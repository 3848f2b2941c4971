// End-to-end benchmark of the S-Caffe reproduction: workload definitions,
// the closed loops that run them, host probes and a bench-side span recorder.
//
// Everything is measured from outside the program: the benchmark times calls
// into each layer's public functions (DataReader::next,
// DistributedSolver::train_iteration, Net::forward_layer/backward_layer,
// SgdSolver::apply_update, Comm::reduce/bcast,
// core::simulate_training_iteration) and reads the public stats snapshots
// (Runtime::flow_stats, MemoryRegistry, SampleStore::stats, getrusage).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "dl/net.h"
#include "dl/solver.h"

namespace perfbench {

namespace core = scaffe::core;
namespace dl = scaffe::dl;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

// --- host probes (host.cpp) --------------------------------------------------

/// Single-core fused-multiply-add peak in GFLOP/s, using the widest vector
/// unit the CPU reports (AVX-512, else AVX2+FMA, else scalar). Best of
/// several ~40 ms rounds, so one preempted round does not lower it.
double fma_probe_gflops();

/// Unsets every SCAFFE_* environment variable. The workloads fix every knob
/// themselves; an inherited bucket size, eager limit or sample-store switch
/// would silently change what a workload measures. Call before any thread
/// starts.
void clear_scaffe_environment();

/// Process-wide resource counters from getrusage(RUSAGE_SELF).
struct ProcCounters {
  double minor_faults = 0;
  double involuntary_switches = 0;
  double peak_rss_mb = 0;
};
ProcCounters proc_counters();

// --- span recorder (trace.cpp) -----------------------------------------------

struct SpanRecord {
  std::string name;
  const char* category = "";
  int tid = 0;  // rank (or 0 for single-threaded workloads)
  long step = -1;
  std::uint64_t bytes = 0;
  std::int64_t begin_ns = 0;  // since the recorder's epoch
  std::int64_t end_ns = 0;
};

/// Bench-side spans kept in memory and written out as Chrome trace-event
/// JSON when the run ends (loads in Perfetto or chrome://tracing). A
/// disabled recorder records nothing and its spans cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const noexcept { return enabled_; }

  /// Writes every span as a complete ("X") event; args carry step, bytes and
  /// self time (duration minus the part covered by spans nested in it on
  /// the same tid). Throws on I/O failure.
  void write_chrome_json(const std::string& path) const;

  /// RAII span: records [construction, destruction) when enabled.
  class Span {
   public:
    Span(Tracer& tracer, const char* category, std::string name, int tid, long step = -1,
         std::uint64_t bytes = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    SpanRecord record_;
  };

 private:
  std::int64_t now_ns() const;
  void record(SpanRecord span);
  std::vector<SpanRecord> spans() const;

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
};

/// Self time of each span: its duration minus the union of the spans nested
/// inside it on the same tid. Same order as `spans`.
std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans);

// --- workloads (workloads.cpp) -----------------------------------------------

enum class Model { CifarQuick, MlpWide };

/// One functional training workload: a closed loop of train_iteration on an
/// scmpi world of `ranks` rank threads sharing one `threads`-wide pool.
struct TrainWorkload {
  const char* name;
  Model model;
  int ranks;
  int threads;
  int global_batch;
  core::ScaffeConfig scaffe;
  bool sample_store;

  dl::NetSpec netspec(int shard_batch) const;
  dl::SolverConfig solver_config(std::uint64_t seed) const;
};

/// The training workloads, in BENCHMARK.json order; des_160 is separate.
const std::vector<TrainWorkload>& train_workloads();
const TrainWorkload& train_workload(const std::string& name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // why `correct` is false, or failures
};

/// Runs one workload (`cifar_1x4`, `cifar_2x2_store`, `mlp_4x1_wide` or
/// `des_160`). `traced` selects the per-layer run; `trace_path`, when not
/// empty, receives the span timeline of a traced run.
RunResult run_workload(const std::string& name, std::uint64_t seed, double seconds,
                       bool traced, const std::string& trace_path);

/// Rank 0's losses from `steps` iterations of the benchmark's closed loop
/// (no warm-up), for the bitwise comparison against core::Trainer.
std::vector<float> bench_loop_losses(const TrainWorkload& workload, std::uint64_t seed,
                                     long steps);

/// Rank 0's root_losses from core::Trainer::run over the same composition.
std::vector<float> trainer_losses(const TrainWorkload& workload, std::uint64_t seed,
                                  long steps);

/// The per-layer metrics that are exact counts, from `steps` timed steps
/// after the usual warm-up, plus rank 0's last loss.
struct ExactCounts {
  double flops_per_step = 0;
  double rts_per_step = 0;
  double msgs_total = 0;
  double buckets = 0;
  float last_loss = 0;
};
ExactCounts exact_counts(const TrainWorkload& workload, std::uint64_t seed, long steps);

/// des_160's two model outputs (exact), in ms.
struct ModelledStep {
  double step_ms = 0;
  double comm_exposed_ms = 0;
};
ModelledStep des_modelled_step();

}  // namespace perfbench
