#include <algorithm>
#include <atomic>
#include <climits>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>

#include "coll/algorithms.h"
#include "coll/sim_executor.h"
#include "core/distributed_solver.h"
#include "core/perf_model.h"
#include "core/trainer.h"
#include "data/backend.h"
#include "data/reader.h"
#include "data/sample_store.h"
#include "models/descriptors.h"
#include "models/zoo.h"
#include "mpi/comm.h"
#include "net/cluster.h"
#include "perfbench.h"
#include "util/bytes.h"
#include "util/memory_registry.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace coll = scaffe::coll;
namespace data = scaffe::data;
namespace models = scaffe::models;
namespace mpi = scaffe::mpi;
namespace net = scaffe::net;
namespace util = scaffe::util;

namespace {

// Warm-up steps per set-up: the first step pays lazy allocations (registry
// blocks, transport staging, reader prefetch), so set-up ends after a few.
constexpr int kWarmupSteps = 3;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRounds = 3;
// Trainer's reader composition: queue depth (SCAFFE_PREFETCH_DEPTH default)
// and shuffle seed.
constexpr std::size_t kPrefetchDepth = 4;
constexpr std::uint64_t kShuffleSeed = 2017;
constexpr std::uint64_t kDatasetSize = 50'000;
constexpr std::size_t kSampleFloats = 3 * 32 * 32;
// Rank 0's warm-up losses must match the single-process reference within
// this relative tolerance: the distributed sum order differs from the
// reference's, and a kernel change may legally move float results.
constexpr double kLossTolerance = 1e-3;
// Rounds of the replica and collective phases are capped: with one rank a
// reduce returns at once, and uncapped rounds would only grow the trace.
constexpr long kMaxPhaseRounds = 200;
// The layers reported one by one under dl.*; every other layer (pool, ReLU,
// loss) is summed into dl.other_ms.
const char* const kNamedLayers[] = {"conv1", "conv2", "conv3", "ip1", "ip2", "fc1", "fc2"};

data::SyntheticImageDataset dataset_for(std::uint64_t seed) {
  return {kDatasetSize, 3, 32, 32, 10, seed};
}

// Start of sample `index` in a packed batch of CIFAR-shaped samples.
template <class Floats>
auto sample_at(Floats& batch, int index) {
  return batch.begin() + static_cast<std::ptrdiff_t>(index) *
                             static_cast<std::ptrdiff_t>(kSampleFloats);
}

// --- per-world bookkeeping ----------------------------------------------------

struct LoopStats {
  long steps = 0;
  double window_s = 0;
  std::vector<double> step_ms;  // rank 0: between successive train_iteration returns
  std::vector<double> wait_ms;  // rank 0: DataReader::next
  std::vector<double> compute_ms;
  std::vector<float> losses;
};

struct LayerInfo {
  std::string name;
  double fwd_flops = 0;  // 2 * multiply-adds of the forward GEMM
  double bwd_flops = 0;  // weight and input gradients: 2x forward
  std::vector<double> fwd_ms;
  std::vector<double> bwd_ms;
};

struct Deltas {
  mpi::Mailbox::FlowStats flow;
  util::RegistryStats registry;
  double minor_faults = 0;
  double involuntary_switches = 0;
  double backend_reads = 0;
  double store_hits = 0;
  double store_fallbacks = 0;
};

struct WorldPlan {
  int warmup = kWarmupSteps;
  long fixed_steps = 0;       // untraced loop of exactly this many steps, or
  double loop_seconds = 0;    // an untraced loop this long (0 and 0: none)
  long traced_steps = 0;      // traced loop of exactly this many steps, or
  double traced_seconds = 0;  // this long (traced runs only)
  double replica_seconds = 0;
  double coll_seconds = 0;
};

struct WorldResult {
  double setup_s = 0;
  std::vector<float> warmup_losses;
  LoopStats loop;
  LoopStats traced;
  Deltas deltas;
  std::vector<LayerInfo> layers;
  std::vector<double> update_ms;
  std::vector<double> reduce_ms;
  std::vector<double> bcast_ms;
  double coll_bytes = 0;
  std::size_t buckets = 0;
  long steps_run = 0;   // train_iteration calls on rank 0
  long nonfinite = 0;   // non-finite local losses on any rank
  std::string error;    // exception that ended the world, if any
};

// The rank threads share this process, so they can meet without sending
// messages that would land in a counter window. Throws AbortError when the
// world dies while waiting, as a collective would.
class LocalBarrier {
 public:
  explicit LocalBarrier(int parties) : parties_(parties) {}

  void arrive_and_wait(const mpi::World& world) {
    std::unique_lock<std::mutex> lock(mutex_);
    const long generation = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    while (generation_ == generation) {
      if (world.aborted.load()) throw mpi::AbortError();
      cv_.wait_for(lock, std::chrono::milliseconds(10));
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  const int parties_;
  int arrived_ = 0;       // guarded by mutex_
  long generation_ = 0;   // guarded by mutex_
};

// The closed loops of one world, in the order they run.
enum Phase { kLoopPhase, kTracedPhase, kReplicaPhase, kCollPhase };

// State the rank threads of one world share.
struct Shared {
  explicit Shared(int ranks) : local_barrier(ranks), reduce_ms(ranks), bcast_ms(ranks) {}
  LocalBarrier local_barrier;
  // Step limit of each closed loop, indexed by Phase.
  std::atomic<long> limits[4] = {LONG_MAX, LONG_MAX, LONG_MAX, LONG_MAX};
  std::atomic<long> nonfinite{0};
  std::atomic<std::uint64_t> store_hits{0};
  std::atomic<std::uint64_t> store_fallbacks{0};
  std::vector<double> reduce_ms;  // per rank; read by rank 0 after a barrier
  std::vector<double> bcast_ms;
};

// Closed loop over `step`: exactly `fixed_steps` steps when that is set,
// else until `seconds` have passed or `max_steps` steps have run. Every step
// starts with a collective rooted at rank 0 (train_iteration's parameter
// propagation, or a barrier), so no rank can begin step k+2 before rank 0
// has finished step k. Rank 0 ends the loop by publishing limit = k + 2 after
// step k; every rank then runs exactly `limit` steps, and no rank waits on a
// peer that has already stopped.
template <class Step>
long closed_loop(const mpi::Comm& comm, std::atomic<long>& limit, long fixed_steps,
                 double seconds, Step&& step, long max_steps = LONG_MAX) {
  if (fixed_steps > 0 && comm.rank() == 0) limit.store(fixed_steps);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  bool stopping = false;
  long k = 0;
  for (; k < limit.load(); ++k) {
    step(k);
    if (comm.rank() == 0 && fixed_steps == 0 && !stopping &&
        (Clock::now() >= deadline || k + 2 >= max_steps)) {
      limit.store(k + 2);
      stopping = true;
    }
  }
  return k;
}

std::vector<LayerInfo> describe_layers(dl::Net& net, const dl::NetSpec& spec) {
  std::vector<LayerInfo> layers(net.num_layers());
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    LayerInfo& info = layers[i];
    const dl::LayerSpec& layer_spec = spec.layers[i];
    info.name = layer_spec.name;
    const std::vector<dl::Blob*> params = net.layer(i).params();
    if (params.empty() || layer_spec.num_output <= 0) continue;
    const double top = static_cast<double>(net.blob(layer_spec.tops[0]).count());
    const double macs_per_output =
        static_cast<double>(params[0]->count()) / static_cast<double>(layer_spec.num_output);
    info.fwd_flops = 2.0 * top * macs_per_output;
    info.bwd_flops = 2.0 * info.fwd_flops;
  }
  return layers;
}

/// The gradient spans one aggregation reduces: the fusion buckets when the
/// solver fuses, else one span per layer with parameters.
std::vector<std::pair<std::size_t, std::size_t>> aggregation_spans(
    core::DistributedSolver& solver) {
  const auto& ranges = solver.solver().net().layer_param_ranges();
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  if (const core::BucketPlanner* planner = solver.planner()) {
    for (const core::FusionBucket& bucket : planner->buckets()) {
      if (bucket.elems > 0) spans.emplace_back(ranges[bucket.first_layer].first, bucket.elems);
    }
  } else {
    for (const auto& range : ranges) {
      if (range.second > 0) spans.push_back(range);
    }
  }
  return spans;
}

void rank_body(mpi::Comm& comm, mpi::Runtime& runtime, const TrainWorkload& workload,
               std::uint64_t seed, const WorldPlan& plan, data::LmdbBackend& backend,
               Clock::time_point start, Shared& shared, WorldResult& out, Tracer& tracer) {
  const int rank = comm.rank();
  const bool root = rank == 0;
  const int shard = workload.global_batch / comm.size();

  // Trainer::run's composition: DataReader over the backend or a SampleStore
  // over it, then DistributedSolver.
  std::optional<data::SampleStore> store;
  data::ReadBackend* source = &backend;
  if (workload.sample_store) {
    data::SampleStoreConfig config;
    config.window =
        static_cast<std::uint64_t>(shard) * static_cast<std::uint64_t>(comm.size()) * 4;
    config.sample_floats = kSampleFloats;
    config.shuffle = false;
    config.start_index = 0;
    store.emplace(comm, backend, config);
    source = &*store;
  }
  data::DataReader reader(*source, rank, comm.size(), shard, kSampleFloats, kPrefetchDepth,
                          /*shuffle_epoch_size=*/0, kShuffleSeed);
  core::DistributedSolver solver(comm, workload.netspec(shard), workload.solver_config(seed),
                                 workload.scaffe);

  Tracer untraced(false);
  Clock::time_point last_return;
  const auto train_step = [&](long k, LoopStats* stats, Tracer& spans) {
    Tracer::Span step_span(spans, "core", "step", rank, k);
    const Clock::time_point t0 = Clock::now();
    data::Batch batch;
    {
      Tracer::Span span(spans, "data", "DataReader::next", rank, k);
      batch = reader.next();
    }
    const Clock::time_point t1 = Clock::now();
    core::IterationResult result;
    {
      Tracer::Span span(spans, "core", "DistributedSolver::train_iteration", rank, k);
      result = solver.train_iteration(batch.data, batch.labels);
    }
    const Clock::time_point t2 = Clock::now();
    if (!std::isfinite(result.local_loss)) ++shared.nonfinite;
    if (!root) return;
    ++out.steps_run;
    if (stats == nullptr) {
      out.warmup_losses.push_back(result.local_loss);
      return;
    }
    stats->wait_ms.push_back(ms_between(t0, t1));
    stats->step_ms.push_back(ms_between(last_return, t2));
    stats->compute_ms.push_back(result.compute_ms);
    stats->losses.push_back(result.local_loss);
    last_return = t2;
  };
  const auto timed_loop = [&](Phase phase, LoopStats& stats, long fixed, double seconds,
                              Tracer& spans) {
    const Clock::time_point begin = Clock::now();
    last_return = begin;
    const long steps = closed_loop(comm, shared.limits[phase], fixed, seconds,
                                   [&](long k) { train_step(k, &stats, spans); });
    if (root) {
      stats.steps = steps;
      stats.window_s = ms_between(begin, last_return) / 1e3;
    }
  };

  for (int i = 0; i < plan.warmup; ++i) train_step(i, nullptr, untraced);
  comm.barrier();
  if (root) out.setup_s = ms_between(start, Clock::now()) / 1e3;

  if (plan.fixed_steps > 0 || plan.loop_seconds > 0) {
    comm.barrier();
    timed_loop(kLoopPhase, out.loop, plan.fixed_steps, plan.loop_seconds, untraced);
  }

  if (plan.traced_steps > 0 || plan.traced_seconds > 0) {
    // Counter window: exactly the traced steps. Every rank has returned from
    // its last send when it reaches a local barrier (train_iteration waits
    // for its own collectives), and local barriers send nothing, so the
    // snapshots between them bracket the traced steps' messages exactly.
    const mpi::World& world = runtime.world();
    shared.local_barrier.arrive_and_wait(world);
    ProcCounters proc_before;
    double reads_before = 0;
    if (root) {
      runtime.reset_flow_stats();
      runtime.reset_memory_stats();
      proc_before = proc_counters();
      reads_before = static_cast<double>(backend.reads());
    }
    const data::SampleStoreStats store_before =
        store ? store->stats() : data::SampleStoreStats{};
    shared.local_barrier.arrive_and_wait(world);
    timed_loop(kTracedPhase, out.traced, plan.traced_steps, plan.traced_seconds, tracer);
    shared.local_barrier.arrive_and_wait(world);
    if (root) {
      out.deltas.flow = runtime.flow_stats();
      out.deltas.registry = runtime.memory_stats();
      const ProcCounters proc_after = proc_counters();
      out.deltas.minor_faults = proc_after.minor_faults - proc_before.minor_faults;
      out.deltas.involuntary_switches =
          proc_after.involuntary_switches - proc_before.involuntary_switches;
      out.deltas.backend_reads = static_cast<double>(backend.reads()) - reads_before;
    }
    if (store) {
      const data::SampleStoreStats store_after = store->stats();
      shared.store_hits += store_after.hits - store_before.hits;
      shared.store_fallbacks += store_after.fallbacks - store_before.fallbacks;
    }
    shared.local_barrier.arrive_and_wait(world);
    if (root) {
      out.deltas.store_hits = static_cast<double>(shared.store_hits.load());
      out.deltas.store_fallbacks = static_cast<double>(shared.store_fallbacks.load());
    }
  }

  if (plan.replica_seconds > 0) {
    // Per-layer compute on a same-spec replica, every rank at once so the
    // ranks contend for the shared pool as they do inside train_iteration.
    const dl::NetSpec spec = workload.netspec(shard);
    dl::SgdSolver replica(spec, workload.solver_config(seed));
    dl::Net& net = replica.net();
    const data::Batch batch = reader.next();
    replica.step(batch.data, batch.labels);
    std::vector<LayerInfo> layers = describe_layers(net, spec);
    std::vector<double> update_ms;
    closed_loop(comm, shared.limits[kReplicaPhase], 0, plan.replica_seconds, [&](long k) {
      comm.barrier();
      Tracer::Span step_span(tracer, "dl", "replica_step", rank, k);
      net.set_iteration(k);
      net.zero_param_diffs();
      for (std::size_t i = 0; i < net.num_layers(); ++i) {
        const Clock::time_point t0 = Clock::now();
        {
          Tracer::Span span(tracer, "dl", "Net::forward_layer " + layers[i].name, rank, k);
          net.forward_layer(i);
        }
        layers[i].fwd_ms.push_back(ms_between(t0, Clock::now()));
      }
      for (std::size_t i = net.num_layers(); i-- > 0;) {
        const Clock::time_point t0 = Clock::now();
        {
          Tracer::Span span(tracer, "dl", "Net::backward_layer " + layers[i].name, rank, k);
          net.backward_layer(i);
        }
        layers[i].bwd_ms.push_back(ms_between(t0, Clock::now()));
      }
      const Clock::time_point t0 = Clock::now();
      {
        Tracer::Span span(tracer, "dl", "SgdSolver::apply_update", rank, k);
        replica.apply_update();
      }
      update_ms.push_back(ms_between(t0, Clock::now()));
    }, kMaxPhaseRounds);
    if (root) {
      out.layers = std::move(layers);
      out.update_ms = std::move(update_ms);
    }
  }

  if (plan.coll_seconds > 0) {
    // Reduce and bcast of the gradient in the spans one aggregation uses.
    // Zeros keep the root's sums finite however many rounds run. A round's
    // latency is its slowest rank's.
    const auto spans = aggregation_spans(solver);
    std::vector<float> buffer(solver.solver().net().param_count(), 0.0f);
    const auto rank_u = static_cast<std::size_t>(rank);
    closed_loop(comm, shared.limits[kCollPhase], 0, plan.coll_seconds, [&](long k) {
      comm.barrier();
      Clock::time_point t0 = Clock::now();
      for (const auto& [offset, count] : spans) {
        Tracer::Span span(tracer, "coll", "Comm::reduce", rank, k, count * sizeof(float));
        comm.reduce(std::span<float>(buffer).subspan(offset, count), 0);
      }
      shared.reduce_ms[rank_u] = ms_between(t0, Clock::now());
      t0 = Clock::now();
      for (const auto& [offset, count] : spans) {
        Tracer::Span span(tracer, "coll", "Comm::bcast", rank, k, count * sizeof(float));
        comm.bcast(std::span<float>(buffer).subspan(offset, count), 0);
      }
      shared.bcast_ms[rank_u] = ms_between(t0, Clock::now());
      comm.barrier();
      if (root) {
        out.reduce_ms.push_back(
            *std::max_element(shared.reduce_ms.begin(), shared.reduce_ms.end()));
        out.bcast_ms.push_back(
            *std::max_element(shared.bcast_ms.begin(), shared.bcast_ms.end()));
      }
    }, kMaxPhaseRounds);
    if (root) {
      out.coll_bytes = 0;
      for (const auto& span : spans) {
        out.coll_bytes += static_cast<double>(span.second * sizeof(float));
      }
    }
  }

  if (root) {
    out.buckets = aggregation_spans(solver).size();
    if (out.layers.empty()) {
      out.layers = describe_layers(solver.solver().net(), workload.netspec(shard));
    }
  }
}

WorldResult run_world(const TrainWorkload& workload, std::uint64_t seed,
                          const WorldPlan& plan, Tracer& tracer) {
  util::ThreadPool::set_global_threads(workload.threads);
  WorldResult out;
  data::LmdbBackend backend(dataset_for(seed));
  Shared shared(workload.ranks);
  const Clock::time_point start = Clock::now();
  try {
    mpi::Runtime runtime(workload.ranks);
    runtime.run([&](mpi::Comm& comm) {
      rank_body(comm, runtime, workload, seed, plan, backend, start, shared, out, tracer);
    });
  } catch (const std::exception& error) {
    out.error = error.what();
  }
  out.nonfinite = shared.nonfinite.load();
  return out;
}

/// Rank 0's warm-up losses from single-process large-batch SGD: the full
/// global batch updates one solver, and rank 0's shard (samples s*G + P*i)
/// is evaluated on a shard-sized net holding the same parameters. This is
/// the update distributed root-update training performs, in another sum
/// order.
std::vector<float> reference_losses(const TrainWorkload& workload, std::uint64_t seed,
                                    int steps) {
  util::ThreadPool::set_global_threads(workload.threads);
  const int global = workload.global_batch;
  const int ranks = workload.ranks;
  const int shard = global / ranks;
  const data::SyntheticImageDataset dataset = dataset_for(seed);
  dl::SgdSolver full(workload.netspec(global), workload.solver_config(seed));
  std::optional<dl::Net> shard_net;
  if (ranks > 1) shard_net.emplace(workload.netspec(shard), workload.solver_config(seed).seed);
  std::vector<float> params(full.net().param_count());
  std::vector<float> data(static_cast<std::size_t>(global) * kSampleFloats);
  std::vector<float> labels(static_cast<std::size_t>(global));
  std::vector<float> losses;
  for (int s = 0; s < steps; ++s) {
    for (int j = 0; j < global; ++j) {
      const data::Sample sample =
          dataset.make_sample(static_cast<std::uint64_t>(s * global + j));
      std::copy(sample.image.begin(), sample.image.end(), sample_at(data, j));
      labels[static_cast<std::size_t>(j)] = static_cast<float>(sample.label);
    }
    if (shard_net) {
      full.net().flatten_params(params);
      shard_net->unflatten_params(params);
      auto shard_data = shard_net->blob("data").data();
      auto shard_labels = shard_net->blob("label").data();
      for (int i = 0; i < shard; ++i) {
        std::copy_n(sample_at(data, ranks * i), kSampleFloats, sample_at(shard_data, i));
        shard_labels[static_cast<std::size_t>(i)] = labels[static_cast<std::size_t>(ranks * i)];
      }
      shard_net->set_iteration(s);
      losses.push_back(shard_net->forward());
    }
    const float loss = full.step(data, labels);
    if (!shard_net) losses.push_back(loss);
    full.apply_update();
  }
  return losses;
}

// --- des_160 ---------------------------------------------------------------------

core::TrainPerfConfig des_config() {
  // The paper's Fig. 8 point: GoogLeNet on Cluster-A at 160 GPUs, SC-OBR
  // with CB-16, global batch 1024 over Lustre ImageData readers.
  core::TrainPerfConfig config;
  config.model = models::ModelDesc::googlenet();
  config.cluster = net::ClusterSpec::cluster_a();
  config.gpus = 160;
  config.global_batch = 1024;
  config.variant = core::Variant::SCOBR;
  config.reduce = core::ReduceAlgo::cb(16);
  config.iterations = 100;
  config.sample_bytes = 110 * util::kKiB;
  return config;
}

bool des_ok(const core::IterationBreakdown& result) {
  return !result.oom && !result.reader_failed && result.total > 0 &&
         std::isfinite(result.samples_per_sec) && result.samples_per_sec > 0;
}

/// The sim.* per-layer metrics: the model's two outputs from one
/// simulate_training_iteration call, then, for `seconds`, building and
/// simulating the model's largest collective (the full-gradient CB-16
/// reduce) on its own.
void des_layer_metrics(double seconds, Tracer& tracer, std::map<std::string, double>& v,
                       RunResult& result) {
  const core::TrainPerfConfig config = des_config();
  core::IterationBreakdown modelled;
  {
    Tracer::Span span(tracer, "sim", "core::simulate_training_iteration", 0);
    modelled = core::simulate_training_iteration(config);
  }
  ++result.attempted;
  if (!des_ok(modelled)) {
    ++result.failed;
    result.correct = false;
    result.problems.push_back("DES model is OOM, reader-failed or non-finite");
  }
  v["sim.modelled_step_ms"] = static_cast<double>(modelled.total) / 1e6;
  v["sim.modelled_comm_exposed_ms"] = static_cast<double>(modelled.comm_exposed()) / 1e6;

  std::vector<double> build_ms;
  std::vector<double> simulate_ms;
  const Clock::time_point begin = Clock::now();
  long rep = 0;
  do {
    Clock::time_point t0 = Clock::now();
    coll::Schedule schedule;
    {
      Tracer::Span span(tracer, "sim", "coll::hierarchical_reduce", 0, rep);
      schedule = coll::hierarchical_reduce(config.gpus, config.model.param_count(),
                                           config.reduce.chain_size, config.reduce.lower,
                                           config.reduce.upper, config.reduce.chunks);
    }
    build_ms.push_back(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    {
      Tracer::Span span(tracer, "sim", "coll::simulate_schedule", 0, rep);
      const coll::SimResult sim =
          coll::simulate_schedule(schedule, config.cluster, config.comm_policy);
      if (!(sim.total > 0)) {
        result.correct = false;
        result.problems.push_back("simulate_schedule returned no time");
      }
    }
    simulate_ms.push_back(ms_between(t0, Clock::now()));
    ++rep;
  } while (ms_between(begin, Clock::now()) < seconds * 1e3);
  v["sim.schedule_build_ms"] = median(build_ms);
  v["sim.simulate_schedule_ms"] = median(simulate_ms);
}

// --- metric assembly ---------------------------------------------------------------

struct MetricSink {
  std::vector<Metric>& metrics;
  void operator()(std::string name, double value, const char* unit) {
    metrics.push_back(Metric{std::move(name), value, unit});
  }
};

double safe_div(double a, double b) { return b > 0 ? a / b : 0.0; }

void add_e2e(MetricSink& add, double samples_per_s, double step_ms_p50, double setup_s,
             long attempted, long failed) {
  add("samples_per_s", samples_per_s, "samples/s");
  add("step_ms_p50", step_ms_p50, "ms");
  add("setup_s", setup_s, "s");
  add("peak_rss_mb", proc_counters().peak_rss_mb, "MB");
  const double ok = static_cast<double>(attempted - failed);
  add("ok_step_frac", safe_div(ok, static_cast<double>(attempted)), "frac");
}

void emit_per_layer(MetricSink& add, const std::map<std::string, double>& v) {
  const auto get = [&](const std::string& key) {
    const auto it = v.find(key);
    return it == v.end() ? 0.0 : it->second;
  };
  add("host.fma_gflops", get("host.fma_gflops"), "GFLOP/s");
  add("host.drift_frac", get("host.drift_frac"), "frac");
  for (const char* layer : kNamedLayers) {
    const std::string name(layer);
    add("dl.fwd_ms." + name, get("dl.fwd_ms." + name), "ms");
    add("dl.bwd_ms." + name, get("dl.bwd_ms." + name), "ms");
    add("dl.gflops." + name, get("dl.gflops." + name), "GFLOP/s");
    add("dl.peak_frac." + name, get("dl.peak_frac." + name), "frac");
  }
  const std::pair<const char*, const char*> rest[] = {
      {"dl.other_ms", "ms"},
      {"dl.update_ms", "ms"},
      {"dl.flops_per_step", "flop"},
      {"coll.reduce_ms_p50", "ms"},
      {"coll.bcast_ms_p50", "ms"},
      {"coll.reduce_gbps", "GB/s"},
      {"coll.bcast_gbps", "GB/s"},
      {"mpi.msgs_per_step", "count"},
      {"mpi.rts_per_step", "count"},
      {"mpi.claimed_frac", "frac"},
      {"mpi.credit_waits_per_step", "count"},
      {"mpi.credit_wait_ms_per_step", "ms"},
      {"mpi.peak_mailbox_mb", "MB"},
      {"util.registry_misses_per_step", "count"},
      {"util.registry_hit_rate", "frac"},
      {"util.registry_peak_live_mb", "MB"},
      {"proc.minflt_per_step", "count"},
      {"proc.invol_csw_per_step", "count"},
      {"data.wait_ms_p50", "ms"},
      {"data.wait_frac", "frac"},
      {"data.backend_reads_per_step", "count"},
      {"data.store_hit_frac", "frac"},
      {"core.compute_ms_p50", "ms"},
      {"core.exposed_comm_ms", "ms"},
      {"core.step_ms_p90", "ms"},
      {"core.buckets", "count"},
      {"sim.modelled_step_ms", "ms"},
      {"sim.modelled_comm_exposed_ms", "ms"},
      {"sim.schedule_build_ms", "ms"},
      {"sim.simulate_schedule_ms", "ms"},
      {"trace.overhead_frac", "frac"},
  };
  for (const auto& [name, unit] : rest) add(name, get(name), unit);
}

double sum(const std::vector<double>& values) {
  double total = 0;
  for (double value : values) total += value;
  return total;
}

void training_per_layer(const TrainWorkload& workload, const WorldResult& world,
                        std::map<std::string, double>& v) {
  const double steps = static_cast<double>(std::max<long>(world.traced.steps, 1));
  const double threads_peak = v["host.fma_gflops"] * workload.threads;
  double fwd_bwd_ms = 0;
  double other_ms = 0;
  double flops_per_rank = 0;
  for (const LayerInfo& layer : world.layers) {
    const double fwd = median(layer.fwd_ms);
    const double bwd = median(layer.bwd_ms);
    fwd_bwd_ms += fwd + bwd;
    flops_per_rank += layer.fwd_flops + layer.bwd_flops;
    const bool named = std::find_if(std::begin(kNamedLayers), std::end(kNamedLayers),
                                    [&](const char* n) { return layer.name == n; }) !=
                       std::end(kNamedLayers);
    if (!named) {
      other_ms += fwd + bwd;
      continue;
    }
    v["dl.fwd_ms." + layer.name] = fwd;
    v["dl.bwd_ms." + layer.name] = bwd;
    const double gflops = safe_div(layer.fwd_flops + layer.bwd_flops, (fwd + bwd) * 1e6);
    v["dl.gflops." + layer.name] = gflops;
    v["dl.peak_frac." + layer.name] = safe_div(gflops, threads_peak);
  }
  const double update_ms = median(world.update_ms);
  v["dl.other_ms"] = other_ms;
  v["dl.update_ms"] = update_ms;
  v["dl.flops_per_step"] = flops_per_rank * workload.ranks;

  const double reduce_ms = median(world.reduce_ms);
  const double bcast_ms = median(world.bcast_ms);
  v["coll.reduce_ms_p50"] = reduce_ms;
  v["coll.bcast_ms_p50"] = bcast_ms;
  v["coll.reduce_gbps"] = safe_div(world.coll_bytes, reduce_ms * 1e6);
  v["coll.bcast_gbps"] = safe_div(world.coll_bytes, bcast_ms * 1e6);

  const Deltas& d = world.deltas;
  const double msgs = static_cast<double>(d.flow.enqueued_messages + d.flow.claimed_messages);
  v["mpi.msgs_per_step"] = msgs / steps;
  v["mpi.rts_per_step"] = static_cast<double>(d.flow.rts_handshakes) / steps;
  v["mpi.claimed_frac"] = safe_div(static_cast<double>(d.flow.claimed_messages), msgs);
  v["mpi.credit_waits_per_step"] = static_cast<double>(d.flow.credit_waits) / steps;
  v["mpi.credit_wait_ms_per_step"] = static_cast<double>(d.flow.credit_wait_us) / 1e3 / steps;
  v["mpi.peak_mailbox_mb"] = static_cast<double>(d.flow.peak_occupancy_bytes) / util::kMiB;
  v["util.registry_misses_per_step"] = static_cast<double>(d.registry.misses) / steps;
  v["util.registry_hit_rate"] = d.registry.hit_rate();
  v["util.registry_peak_live_mb"] =
      static_cast<double>(d.registry.peak_live_bytes) / util::kMiB;
  v["proc.minflt_per_step"] = d.minor_faults / steps;
  v["proc.invol_csw_per_step"] = d.involuntary_switches / steps;

  const double wait_p50 = median(world.traced.wait_ms);
  v["data.wait_ms_p50"] = wait_p50;
  v["data.wait_frac"] = safe_div(sum(world.traced.wait_ms), world.traced.window_s * 1e3);
  v["data.backend_reads_per_step"] = d.backend_reads / steps;
  v["data.store_hit_frac"] = safe_div(d.store_hits, d.store_hits + d.store_fallbacks);

  const double step_p50 = median(world.traced.step_ms);
  v["core.compute_ms_p50"] = median(world.traced.compute_ms);
  v["core.exposed_comm_ms"] = step_p50 - wait_p50 - fwd_bwd_ms - update_ms;
  v["core.step_ms_p90"] = percentile(world.traced.step_ms, 0.9);
  v["core.buckets"] = static_cast<double>(world.buckets);

  const double untraced_sps =
      safe_div(static_cast<double>(world.loop.steps), world.loop.window_s);
  const double traced_sps =
      safe_div(static_cast<double>(world.traced.steps), world.traced.window_s);
  v["trace.overhead_frac"] = 1.0 - safe_div(traced_sps, untraced_sps);
}

/// Correctness of one training world; returns the failed-step count.
long check_world(const WorldResult& world, const std::string& label, RunResult& result) {
  long failed = world.nonfinite;
  if (world.nonfinite > 0) {
    result.correct = false;
    result.problems.push_back(label + ": " + std::to_string(world.nonfinite) +
                              " non-finite losses");
  }
  if (!world.error.empty()) {
    result.correct = false;
    ++failed;  // the step that threw
    result.problems.push_back(label + ": " + world.error);
  }
  return failed;
}

RunResult run_training(const TrainWorkload& workload, std::uint64_t seed, double seconds,
                       bool traced, const std::string& trace_path) {
  RunResult result;
  Tracer tracer(traced);
  std::vector<WorldResult> worlds;
  std::map<std::string, double> per_layer;
  if (traced) {
    per_layer["host.fma_gflops"] = fma_probe_gflops();
    WorldPlan plan;
    plan.loop_seconds = 0.25 * seconds;
    plan.traced_seconds = 0.25 * seconds;
    plan.replica_seconds = 0.25 * seconds;
    plan.coll_seconds = 0.15 * seconds;
    worlds.push_back(run_world(workload, seed, plan, tracer));
    des_layer_metrics(0.10 * seconds, tracer, per_layer, result);
  } else {
    for (int round = 0; round < kSetupRounds; ++round) {
      WorldPlan plan;
      if (round == kSetupRounds - 1) plan.loop_seconds = seconds;
      worlds.push_back(run_world(workload, seed, plan, tracer));
    }
  }

  std::vector<double> setups;
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    const WorldResult& world = worlds[i];
    result.attempted += std::max<long>(world.steps_run, 1);
    result.failed += check_world(world, "world " + std::to_string(i), result);
    setups.push_back(world.setup_s);
    if (world.warmup_losses != worlds.front().warmup_losses) {
      result.correct = false;
      result.problems.push_back("warm-up losses differ between set-ups at one seed");
    }
  }

  const std::vector<float> reference = reference_losses(workload, seed, kWarmupSteps);
  const std::vector<float>& measured = worlds.back().warmup_losses;
  if (measured.size() != reference.size()) {
    result.correct = false;
    result.problems.push_back("warm-up produced " + std::to_string(measured.size()) +
                              " losses");
  } else {
    double worst = 0;
    for (std::size_t s = 0; s < reference.size(); ++s) {
      const double ref = reference[s];
      const double tolerance = kLossTolerance * std::max(1.0, std::fabs(ref));
      const double error = std::fabs(static_cast<double>(measured[s]) - ref);
      worst = std::max(worst, error / std::max(1.0, std::fabs(ref)));
      if (!(error <= tolerance)) {
        result.correct = false;
        result.problems.push_back("step " + std::to_string(s) + " loss " +
                                  std::to_string(measured[s]) + " vs reference " +
                                  std::to_string(ref));
      }
    }
    std::fprintf(stderr, "perfbench: warm-up losses within %.3g (relative) of the reference\n",
                 worst);
  }

  MetricSink add{result.metrics};
  const WorldResult& last = worlds.back();
  if (!traced) {
    const double samples = static_cast<double>(last.loop.steps) * workload.global_batch;
    add_e2e(add, safe_div(samples, last.loop.window_s), median(last.loop.step_ms),
            median(setups), result.attempted, result.failed);
    return result;
  }
  training_per_layer(workload, last, per_layer);
  per_layer["host.drift_frac"] = fma_probe_gflops() / per_layer["host.fma_gflops"] - 1.0;
  emit_per_layer(add, per_layer);
  if (!trace_path.empty()) tracer.write_chrome_json(trace_path);
  return result;
}

RunResult run_des(double seconds, bool traced, const std::string& trace_path) {
  util::ThreadPool::set_global_threads(1);
  RunResult result;
  Tracer tracer(traced);
  std::map<std::string, double> per_layer;
  if (traced) per_layer["host.fma_gflops"] = fma_probe_gflops();

  std::optional<core::IterationBreakdown> first;
  const auto call = [&](Tracer& spans, long step) {
    Tracer::Span span(spans, "sim", "core::simulate_training_iteration", 0, step);
    const core::IterationBreakdown out = core::simulate_training_iteration(des_config());
    ++result.attempted;
    if (!des_ok(out)) {
      ++result.failed;
      result.correct = false;
      result.problems.push_back("DES step " + std::to_string(step) +
                                " is OOM, reader-failed or non-finite");
    } else if (!first) {
      first = out;
    } else if (out.total != first->total || out.comm_exposed() != first->comm_exposed()) {
      result.correct = false;
      result.problems.push_back("DES outputs differ between calls");
    }
  };
  // A timed loop of calls; returns per-call ms.
  const auto loop = [&](double loop_seconds, Tracer& spans) {
    std::vector<double> call_ms;
    const Clock::time_point begin = Clock::now();
    const double limit_ms = loop_seconds * 1e3;
    long step = 0;
    do {
      const Clock::time_point t0 = Clock::now();
      call(spans, step++);
      call_ms.push_back(ms_between(t0, Clock::now()));
    } while (ms_between(begin, Clock::now()) < limit_ms);
    return std::make_pair(call_ms, ms_between(begin, Clock::now()) / 1e3);
  };

  Tracer untraced(false);
  std::vector<double> setups;
  const int rounds = traced ? 1 : kSetupRounds;
  for (int round = 0; round < rounds; ++round) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kWarmupSteps; ++i) call(untraced, i);
    setups.push_back(ms_between(start, Clock::now()) / 1e3);
  }
  const int batch = des_config().global_batch;
  MetricSink add{result.metrics};
  if (!traced) {
    const auto [call_ms, window_s] = loop(seconds, untraced);
    add_e2e(add, safe_div(static_cast<double>(call_ms.size()) * batch, window_s),
            median(call_ms), median(setups), result.attempted, result.failed);
    return result;
  }

  const auto [plain_ms, plain_s] = loop(0.4 * seconds, untraced);
  const ProcCounters before = proc_counters();
  util::MemoryRegistry::instance().reset_stats();
  const auto [traced_ms, traced_s] = loop(0.4 * seconds, tracer);
  const ProcCounters after = proc_counters();
  const util::RegistryStats registry = util::MemoryRegistry::instance().stats();
  const double steps = static_cast<double>(traced_ms.size());

  des_layer_metrics(0.2 * seconds, tracer, per_layer, result);
  per_layer["core.step_ms_p90"] = percentile(traced_ms, 0.9);
  per_layer["util.registry_misses_per_step"] = static_cast<double>(registry.misses) / steps;
  per_layer["util.registry_hit_rate"] = registry.hit_rate();
  per_layer["util.registry_peak_live_mb"] =
      static_cast<double>(registry.peak_live_bytes) / util::kMiB;
  per_layer["proc.minflt_per_step"] = (after.minor_faults - before.minor_faults) / steps;
  per_layer["proc.invol_csw_per_step"] =
      (after.involuntary_switches - before.involuntary_switches) / steps;
  per_layer["trace.overhead_frac"] =
      1.0 - safe_div(steps / traced_s, static_cast<double>(plain_ms.size()) / plain_s);
  per_layer["host.drift_frac"] = fma_probe_gflops() / per_layer["host.fma_gflops"] - 1.0;
  emit_per_layer(add, per_layer);
  if (!trace_path.empty()) tracer.write_chrome_json(trace_path);
  return result;
}

}  // namespace

dl::NetSpec TrainWorkload::netspec(int shard_batch) const {
  switch (model) {
    case Model::CifarQuick:
      return models::cifar10_quick_netspec(shard_batch);
    case Model::MlpWide:
      // fc1 = 3072 x 4096 fp32 = 48 MiB, the size class of AlexNet's fc6/fc7.
      return models::mlp_netspec(shard_batch, static_cast<int>(kSampleFloats), 4096, 10);
  }
  throw std::logic_error("unknown model");
}

dl::SolverConfig TrainWorkload::solver_config(std::uint64_t seed) const {
  dl::SolverConfig config;
  config.seed = seed;
  return config;
}

const std::vector<TrainWorkload>& train_workloads() {
  static const std::vector<TrainWorkload> workloads = [] {
    core::ScaffeConfig scobr;
    scobr.variant = core::Variant::SCOBR;
    core::ScaffeConfig wide = scobr;
    wide.reduce = core::ReduceAlgo::cb(2);
    wide.fusion.enabled = true;
    wide.fusion.bucket_bytes = 4 * util::kMiB;
    return std::vector<TrainWorkload>{
        {"cifar_1x4", Model::CifarQuick, 1, 4, 64, scobr, false},
        {"cifar_2x2_store", Model::CifarQuick, 2, 2, 64, scobr, true},
        {"mlp_4x1_wide", Model::MlpWide, 4, 1, 16, wide, false},
    };
  }();
  return workloads;
}

const TrainWorkload& train_workload(const std::string& name) {
  for (const TrainWorkload& workload : train_workloads()) {
    if (name == workload.name) return workload;
  }
  throw std::invalid_argument("unknown training workload: " + name);
}

RunResult run_workload(const std::string& name, std::uint64_t seed, double seconds,
                       bool traced, const std::string& trace_path) {
  if (name == "des_160") return run_des(seconds, traced, trace_path);
  return run_training(train_workload(name), seed, seconds, traced, trace_path);
}

std::vector<float> bench_loop_losses(const TrainWorkload& workload, std::uint64_t seed,
                                     long steps) {
  WorldPlan plan;
  plan.warmup = 0;
  plan.fixed_steps = steps;
  Tracer tracer(false);
  const WorldResult world = run_world(workload, seed, plan, tracer);
  if (!world.error.empty()) throw std::runtime_error(world.error);
  return world.loop.losses;
}

std::vector<float> trainer_losses(const TrainWorkload& workload, std::uint64_t seed,
                                  long steps) {
  util::ThreadPool::set_global_threads(workload.threads);
  data::LmdbBackend backend(dataset_for(seed));
  core::TrainerConfig config;
  config.iterations = static_cast<int>(steps);
  config.global_batch = workload.global_batch;
  config.scaffe = workload.scaffe;
  config.solver = workload.solver_config(seed);
  config.sample_store = workload.sample_store;
  std::vector<float> losses;
  mpi::Runtime runtime(workload.ranks);
  runtime.run([&](mpi::Comm& comm) {
    core::Trainer trainer(comm, backend, kSampleFloats,
                          [&](int batch) { return workload.netspec(batch); }, config);
    core::TrainerReport report = trainer.run();
    if (comm.rank() == 0) losses = std::move(report.root_losses);
  });
  return losses;
}

ExactCounts exact_counts(const TrainWorkload& workload, std::uint64_t seed, long steps) {
  WorldPlan plan;
  plan.traced_steps = steps;
  Tracer tracer(false);
  const WorldResult world = run_world(workload, seed, plan, tracer);
  if (!world.error.empty()) throw std::runtime_error(world.error);
  std::map<std::string, double> v;
  training_per_layer(workload, world, v);
  ExactCounts counts;
  counts.flops_per_step = v["dl.flops_per_step"];
  counts.rts_per_step = v["mpi.rts_per_step"];
  counts.msgs_total = static_cast<double>(world.deltas.flow.enqueued_messages +
                                          world.deltas.flow.claimed_messages);
  counts.buckets = v["core.buckets"];
  counts.last_loss = world.traced.losses.empty() ? 0.0f : world.traced.losses.back();
  return counts;
}

ModelledStep des_modelled_step() {
  const core::IterationBreakdown out = core::simulate_training_iteration(des_config());
  return {static_cast<double>(out.total) / 1e6, static_cast<double>(out.comm_exposed()) / 1e6};
}

}  // namespace perfbench
