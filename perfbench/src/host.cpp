#include <immintrin.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench.h"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

namespace {

// Ten independent accumulator chains hide the FMA latency (4 cycles) behind
// two issue ports. Returns a value derived from every chain so the loop
// cannot be folded away.
constexpr int kChains = 10;

__attribute__((target("avx512f"))) float fma_loop_avx512(long iters, float seed) {
  __m512 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_ps(seed + static_cast<float>(c));
  const __m512 mul = _mm512_set1_ps(0.999999f);
  const __m512 add = _mm512_set1_ps(1e-7f);
  for (long i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_ps(acc[c], mul, add);
  }
  alignas(64) float lanes[16];
  __m512 sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm512_add_ps(sum, acc[c]);
  _mm512_store_ps(lanes, sum);
  float total = 0.0f;
  for (float lane : lanes) total += lane;
  return total;
}

__attribute__((target("avx2,fma"))) float fma_loop_avx2(long iters, float seed) {
  __m256 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_ps(seed + static_cast<float>(c));
  const __m256 mul = _mm256_set1_ps(0.999999f);
  const __m256 add = _mm256_set1_ps(1e-7f);
  for (long i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_ps(acc[c], mul, add);
  }
  alignas(32) float lanes[8];
  __m256 sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm256_add_ps(sum, acc[c]);
  _mm256_store_ps(lanes, sum);
  float total = 0.0f;
  for (float lane : lanes) total += lane;
  return total;
}

float fma_loop_scalar(long iters, float seed) {
  float acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = seed + static_cast<float>(c);
  for (long i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = std::fma(acc[c], 0.999999f, 1e-7f);
  }
  float total = 0.0f;
  for (float value : acc) total += value;
  return total;
}

volatile float g_sink = 0.0f;

}  // namespace

double fma_probe_gflops() {
  int lanes = 1;
  float (*loop)(long, float) = fma_loop_scalar;
  if (__builtin_cpu_supports("avx512f")) {
    lanes = 16;
    loop = fma_loop_avx512;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    lanes = 8;
    loop = fma_loop_avx2;
  }
  // Size one round to ~40 ms from a short calibration round.
  long iters = 1 << 16;
  auto start = Clock::now();
  g_sink = g_sink + loop(iters, 1.0f);
  const double calib_ms = std::max(ms_between(start, Clock::now()), 1e-3);
  iters = std::max<long>(iters,
                         static_cast<long>(static_cast<double>(iters) * 40.0 / calib_ms));

  double best = 0.0;
  for (int round = 0; round < 5; ++round) {
    start = Clock::now();
    g_sink = g_sink + loop(iters, static_cast<float>(round));
    const double seconds = ms_between(start, Clock::now()) / 1e3;
    const double flops = 2.0 * lanes * kChains * static_cast<double>(iters);
    best = std::max(best, flops / seconds / 1e9);
  }
  return best;
}

void clear_scaffe_environment() {
  for (;;) {
    char** entry = environ;
    while (*entry != nullptr && std::strncmp(*entry, "SCAFFE_", 7) != 0) ++entry;
    if (*entry == nullptr) return;
    const std::string name(*entry, std::strcspn(*entry, "="));
    unsetenv(name.c_str());
  }
}

ProcCounters proc_counters() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcCounters out;
  out.minor_faults = static_cast<double>(usage.ru_minflt);
  out.involuntary_switches = static_cast<double>(usage.ru_nivcsw);
  out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  return out;
}

}  // namespace perfbench
