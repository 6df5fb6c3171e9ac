// Microbenchmarks for the batch-GCD machinery, including the RAM-resident
// vs spilled remainder-tree ablation (the paper's key optimization over the
// original disk-spilling implementation) and the squares vs plain remainder
// trees of the k-subset diagonal and off-diagonal tasks.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "batchgcd/batch_gcd.hpp"
#include "batchgcd/coordinator.hpp"
#include "batchgcd/distributed.hpp"
#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"
#include "bench_json.hpp"
#include "obs/monitor.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "util/tracked_arena.hpp"

namespace {

using namespace weakkeys;
using bn::BigInt;

const std::vector<BigInt>& corpus(std::size_t count) {
  static std::map<std::size_t, std::vector<BigInt>> cache;
  auto& moduli = cache[count];
  if (moduli.empty()) {
    rng::PrngRandomSource rng(1234);
    rsa::KeygenOptions opts;
    opts.modulus_bits = 256;
    opts.style = rsa::PrimeStyle::kPlain;
    opts.sieve_primes = 256;  // cheap synthetic corpus
    opts.miller_rabin_rounds = 4;
    moduli.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      moduli.push_back(rsa::generate_key(rng, opts).pub.n);
    }
  }
  return moduli;
}

/// Suite-wide telemetry: the enabled arms of the overhead ablations record
/// into it, and its metrics snapshot is embedded in BENCH_perf_batchgcd.json.
obs::Telemetry& bench_telemetry() {
  static obs::Telemetry telemetry(/*tracing_enabled=*/true);
  return telemetry;
}

void BM_ProductTree(benchmark::State& state) {
  const auto& moduli = corpus(static_cast<std::size_t>(state.range(0)));
  util::TrackedArena arena;
  {
    // Census build: per-level byte/node gauges into the suite metrics
    // snapshot (batchgcd.product_tree.level<k>.* + bytes_peak). One tree at
    // a time ever lives in the arena, so Σ level bytes == arena peak —
    // the identity the profiled-run acceptance check asserts.
    batchgcd::ProductTree census(moduli, &arena);
    census.publish_level_stats(bench_telemetry().metrics());
  }
  for (auto _ : state) {
    batchgcd::ProductTree tree(moduli, &arena);
    benchmark::DoNotOptimize(tree.root());
  }
  state.counters["arena_peak_bytes"] =
      static_cast<double>(arena.peak_bytes());
}
BENCHMARK(BM_ProductTree)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BatchGcd(benchmark::State& state) {
  const auto& moduli = corpus(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(batchgcd::batch_gcd(moduli));
  }
}
BENCHMARK(BM_BatchGcd)->Arg(256)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_NaivePairwise(benchmark::State& state) {
  const auto& moduli = corpus(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(batchgcd::naive_pairwise_gcd(moduli));
  }
}
BENCHMARK(BM_NaivePairwise)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

/// X mod N_i^2 for X = the tree's own root: the single-tree batch GCD and
/// the diagonal k-subset task, over RAM-resident levels.
void BM_RemainderTreeRam(benchmark::State& state) {
  const auto& moduli = corpus(static_cast<std::size_t>(state.range(0)));
  const batchgcd::ProductTree tree(moduli);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        batchgcd::remainder_tree_squares(tree, tree.root()));
  }
}
BENCHMARK(BM_RemainderTreeRam)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

/// X mod N_i for X = another subset's root of the same size: the
/// off-diagonal k-subset task, which needs no squares. Against
/// BM_RemainderTreeRam at the same leaf count.
void BM_RemainderTreePlain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::span<const BigInt> both(corpus(2 * n));
  const batchgcd::ProductTree tree(both.first(n));
  const BigInt other = batchgcd::ProductTree(both.subspan(n)).root();
  for (auto _ : state) {
    benchmark::DoNotOptimize(batchgcd::remainder_tree(tree, other));
  }
}
BENCHMARK(BM_RemainderTreePlain)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// Storage policy for the out-of-core arms: spill every level (threshold 0)
/// into a scratch dir next to the binary, two-level resident window.
batchgcd::TreeStorage bench_storage(const char* base,
                                    util::TrackedArena* arena) {
  batchgcd::TreeStorage storage;
  storage.spill_dir = "bench_spill.d";
  storage.spill_threshold_bytes = 0;
  storage.base = base;
  storage.registry = &bench_telemetry().metrics();
  storage.arena = arena;
  return storage;
}

/// Out-of-core ablation of BM_ProductTree: the same build spilling every
/// level to a CRC-framed file with a two-level resident window. The
/// arena_peak_bytes counter is the bounded-memory proof — it charges only
/// the resident window, so it stays near-flat while tree_bytes grows with
/// the corpus; BM_ProductTree's arena peak is the whole tree. Time deltas
/// against the in-RAM arm price the spill I/O.
void BM_ProductTreeOutOfCore(benchmark::State& state) {
  const auto& moduli = corpus(static_cast<std::size_t>(state.range(0)));
  util::TrackedArena arena;
  const batchgcd::TreeStorage storage = bench_storage("bm_build", &arena);
  std::uint64_t tree_bytes = 0;
  for (auto _ : state) {
    batchgcd::ProductTree tree(moduli, storage, &arena);
    benchmark::DoNotOptimize(tree.root());
    tree_bytes = tree.retained_bytes();
  }
  state.counters["arena_peak_bytes"] =
      static_cast<double>(arena.peak_bytes());
  state.counters["tree_bytes"] = static_cast<double>(tree_bytes);
}
BENCHMARK(BM_ProductTreeOutOfCore)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// Streamed remainder walk over a spilled tree: levels are re-read (and
/// CRC-verified) from disk as the walk descends, against
/// BM_RemainderTreeRam's resident levels: the RAM-resident vs
/// factorable.net-style disk-tier ablation.
void BM_RemainderTreeStreamed(benchmark::State& state) {
  const auto& moduli = corpus(static_cast<std::size_t>(state.range(0)));
  util::TrackedArena arena;
  const batchgcd::TreeStorage storage = bench_storage("bm_walk", &arena);
  const batchgcd::ProductTree tree(moduli, storage, &arena);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        batchgcd::remainder_tree_squares(tree, tree.root()));
  }
  state.counters["arena_peak_bytes"] =
      static_cast<double>(arena.peak_bytes());
}
BENCHMARK(BM_RemainderTreeStreamed)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_DistributedK(benchmark::State& state) {
  const auto& moduli = corpus(2048);
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        batchgcd::batch_gcd_distributed(moduli, k, nullptr));
  }
}
BENCHMARK(BM_DistributedK)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

/// Telemetry overhead ablation: the fault-tolerant coordinator with full
/// instrumentation (one span per task attempt, mirrored global and
/// per-worker counters, task-latency histogram) vs the identical run with
/// telemetry off. Arg: 0 = disabled, 1 = enabled. The acceptance bar is
/// <= 5% overhead for the enabled arm.
void BM_CoordinatedTelemetry(benchmark::State& state) {
  const auto& moduli = corpus(512);
  const bool enabled = state.range(0) != 0;
  batchgcd::CoordinatorConfig config;
  config.subsets = 8;
  config.workers = 4;
  config.telemetry = enabled ? &bench_telemetry() : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(batchgcd::batch_gcd_coordinated(moduli, config));
  }
}
BENCHMARK(BM_CoordinatedTelemetry)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Live-monitor overhead ablation: the same instrumented coordinated run
/// with the background obs::Monitor ticking (snapshot + JSONL line +
/// heartbeat every 25ms) vs without it. Arg: 0 = monitor off, 1 = on. The
/// acceptance bar is <= 5% overhead for the monitored arm: snapshots are
/// bounded by instrument count, not by event rate.
void BM_CoordinatedMonitor(benchmark::State& state) {
  const auto& moduli = corpus(512);
  const bool monitored = state.range(0) != 0;
  batchgcd::CoordinatorConfig config;
  config.subsets = 8;
  config.workers = 4;
  config.telemetry = &bench_telemetry();
  obs::MonitorConfig monitor_config;
  monitor_config.jsonl_path = "/dev/null";  // schema cost without disk churn
  monitor_config.interval = std::chrono::milliseconds(25);
  obs::Monitor monitor(bench_telemetry(), monitor_config);
  if (monitored) monitor.start();
  for (auto _ : state) {
    benchmark::DoNotOptimize(batchgcd::batch_gcd_coordinated(moduli, config));
  }
  if (monitored) monitor.stop();
}
BENCHMARK(BM_CoordinatedMonitor)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Sampling-profiler overhead ablation: the same instrumented coordinated
/// run with the wall-clock sampler attached at the conventional 97 Hz vs
/// without it. Arg: 0 = profiler off, 1 = on. The acceptance bar is <= 5%
/// overhead for the profiled arm (and ~0% for the off arm, which pays one
/// relaxed load per span): sampling cost scales with thread count and
/// cadence, not with span rate.
void BM_CoordinatedProfile(benchmark::State& state) {
  const auto& moduli = corpus(512);
  const bool profiled = state.range(0) != 0;
  batchgcd::CoordinatorConfig config;
  config.subsets = 8;
  config.workers = 4;
  config.telemetry = &bench_telemetry();
  std::unique_ptr<obs::Profiler> profiler;
  if (profiled) {
    obs::ProfilerConfig prof_config;
    prof_config.hz = 97.0;
    prof_config.registry = &bench_telemetry().metrics();
    profiler = std::make_unique<obs::Profiler>(std::move(prof_config));
    profiler->start();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(batchgcd::batch_gcd_coordinated(moduli, config));
  }
  if (profiler) {
    profiler->stop();
    state.counters["profile_samples"] =
        static_cast<double>(profiler->samples());
  }
}
BENCHMARK(BM_CoordinatedProfile)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return weakkeys::bench::run_benchmarks_with_json("perf_batchgcd", argc, argv,
                                                   &bench_telemetry());
}
