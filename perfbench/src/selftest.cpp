// Self-test of the benchmark (run with ctest from the benchmark's build):
//  1. its per-step loop reproduces core::Trainer::run's root_losses bitwise
//     on a short run of each training workload;
//  2. the per-layer metrics that are exact counts repeat between two runs at
//     one seed, and stay put under a second seed while the loss moves.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench.h"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::string describe(const perfbench::ExactCounts& c) {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "flops/step=%.0f rts/step=%.3f msgs=%.0f buckets=%.0f loss=%.9g",
                c.flops_per_step, c.rts_per_step, c.msgs_total, c.buckets,
                static_cast<double>(c.last_loss));
  return buffer;
}

// Self time subtracts direct children only, and never spans of another tid.
void check_self_times() {
  const auto span = [](int tid, std::int64_t begin, std::int64_t end) {
    perfbench::SpanRecord record;
    record.tid = tid;
    record.begin_ns = begin;
    record.end_ns = end;
    return record;
  };
  const std::vector<perfbench::SpanRecord> spans = {
      span(0, 0, 100), span(0, 10, 30), span(0, 12, 20), span(0, 40, 60), span(1, 0, 50)};
  const std::vector<std::int64_t> expected = {60, 12, 8, 20, 50};
  check(perfbench::self_times_ns(spans) == expected, "trace: self time of nested spans");
}

}  // namespace

int main() {
  perfbench::clear_scaffe_environment();
  check_self_times();
  constexpr long kSteps = 3;
  for (const perfbench::TrainWorkload& workload : perfbench::train_workloads()) {
    const std::string name = workload.name;
    const std::vector<float> trainer = perfbench::trainer_losses(workload, 7, kSteps);
    const std::vector<float> loop = perfbench::bench_loop_losses(workload, 7, kSteps);
    check(trainer.size() == static_cast<std::size_t>(kSteps) && bitwise_equal(trainer, loop),
          name + ": benchmark loop reproduces Trainer root_losses bitwise");

    const perfbench::ExactCounts first = perfbench::exact_counts(workload, 7, kSteps);
    const perfbench::ExactCounts again = perfbench::exact_counts(workload, 7, kSteps);
    const perfbench::ExactCounts other = perfbench::exact_counts(workload, 8, kSteps);
    std::printf("  seed 7: %s\n  seed 7: %s\n  seed 8: %s\n", describe(first).c_str(),
                describe(again).c_str(), describe(other).c_str());
    const auto same_counts = [](const perfbench::ExactCounts& a,
                                const perfbench::ExactCounts& b, bool with_messages) {
      return a.flops_per_step == b.flops_per_step && a.rts_per_step == b.rts_per_step &&
             a.buckets == b.buckets && (!with_messages || a.msgs_total == b.msgs_total);
    };
    // The sample store's epoch-ahead exchange runs on its own pump thread,
    // so how many of its messages land inside a fixed step window is timing;
    // the message total is exact only without the store.
    const bool exact_messages = !workload.sample_store;
    check(same_counts(first, again, exact_messages),
          name + ": exact counts repeat at one seed");
    check(std::memcmp(&first.last_loss, &again.last_loss, sizeof(float)) == 0,
          name + ": loss repeats bitwise at one seed");
    check(same_counts(first, other, exact_messages), name + ": exact counts ignore the seed");
    check(first.last_loss != other.last_loss, name + ": loss changes with the seed");
  }

  const perfbench::ModelledStep a = perfbench::des_modelled_step();
  const perfbench::ModelledStep b = perfbench::des_modelled_step();
  std::printf("  des_160: modelled step %.6f ms, exposed comm %.6f ms\n", a.step_ms,
              a.comm_exposed_ms);
  check(a.step_ms > 0 && a.step_ms == b.step_ms && a.comm_exposed_ms == b.comm_exposed_ms,
        "des_160: modelled outputs repeat exactly");

  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
