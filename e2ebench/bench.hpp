// Shared declarations for wkbench, the end-to-end benchmark program.
//
// wkbench runs one named workload per process: it sets the workload up
// several times (reporting the median as setup_s), then repeats the timed
// body until the run's time budget is spent and reports the median rep.
// Every rep's output is checked; a mismatch or an exception is one failed
// operation. A traced run additionally records spans around the calls into
// each layer and derives the per-layer metrics from them.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "batchgcd/batch_gcd.hpp"
#include "bn/bigint.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace wkbench {

namespace fs = std::filesystem;
namespace obs = weakkeys::obs;
using Clock = std::chrono::steady_clock;

/// Concurrency of every workload: Study threads, util::ThreadPool size and
/// gcd_worker process count. Fixed so the benchmark measures the program,
/// not how many idle cores the host happens to have.
inline constexpr std::size_t kConcurrency = 2;
/// Batch-GCD subset count k (k^2 remainder-tree tasks) in every workload.
inline constexpr std::size_t kSubsets = 4;

[[nodiscard]] double seconds_since(Clock::time_point start);
[[nodiscard]] double median(std::vector<double> values);

/// Per-run settings shared by the workloads.
struct Context {
  std::uint64_t seed = 0;
  fs::path work_dir;       ///< fresh per run; every file the program writes
  fs::path worker_binary;  ///< gcd_worker, built next to wkbench
};

/// Per-layer values a workload measured, by metric name. Metrics of layers
/// the workload does not exercise are left out and reported as 0.
using LayerValues = std::map<std::string, double>;

/// One span on the merged timeline. `pid` separates processes (1 = this
/// one); `tid` separates threads within a process.
struct TimelineEvent {
  std::string name;
  std::uint32_t pid = 1;
  std::uint32_t tid = 0;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
};

/// Time and call count of one span name on the timeline. Self time is the
/// span's time minus the part of it that child spans on the same thread
/// cover.
struct LayerTime {
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

/// The benchmark's own spans (an obs::Tracer) plus spans adopted from the
/// program: core::Study's tracer and the cluster's fleet trace. A disabled
/// timeline hands out inert spans and adopts nothing.
class Timeline {
 public:
  explicit Timeline(bool enabled) : tracer_(enabled) {}

  [[nodiscard]] bool enabled() const { return tracer_.enabled(); }
  [[nodiscard]] obs::Span span(std::string name) {
    return tracer_.span(std::move(name));
  }

  /// Adopts another tracer's completed spans (core::Study's) as children
  /// of the most recent benchmark span named `parent`. Both tracers count
  /// from their own steady-clock epoch; reading both clocks back to back
  /// gives the offset between them.
  void adopt_tracer(const std::string& parent, const obs::Tracer& other);

  /// Adopts a Chrome trace file (the cluster's fleet trace) whose epoch is
  /// the start of the most recent benchmark span named `parent`. Its
  /// processes keep their own lanes, apart from the benchmark's.
  void adopt_chrome_trace(const std::string& parent, const fs::path& path);

  /// Benchmark and adopted spans on one epoch.
  [[nodiscard]] std::vector<TimelineEvent> events() const;
  /// Per-name call count, total and self time over events().
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;
  /// Writes events() as Chrome trace_event JSON.
  void write_chrome_trace(const fs::path& path) const;

 private:
  /// The latest benchmark span called `name`, if one has ended.
  [[nodiscard]] std::optional<obs::TraceEvent> last_event(
      const std::string& name) const;

  obs::Tracer tracer_;
  std::vector<TimelineEvent> adopted_;
};

/// Writes the layer_times() table as JSON: name -> {count, total_s, self_s}.
void write_layer_times(const std::map<std::string, LayerTime>& times,
                       const fs::path& path);

/// A generated batch-GCD corpus: 256-bit moduli (the simulated devices' key
/// size) of which about 1% share a planted prime with exactly one other.
struct Corpus {
  std::vector<weakkeys::bn::BigInt> moduli;
  std::vector<std::size_t> planted;  ///< sorted indices sharing a prime
  /// What any batch GCD must return, known from construction: the planted
  /// prime for a planted modulus, 1 for every other.
  weakkeys::batchgcd::BatchGcdResult expected;
};

/// Generates `count` moduli from `seed` with rsa::generate_key and
/// rsa::generate_prime on `pool`. Deterministic in `seed` regardless of
/// scheduling: modulus i draws from its own stream.
[[nodiscard]] Corpus make_corpus(std::uint64_t seed, std::size_t count,
                                 weakkeys::util::ThreadPool& pool);

/// rsa::generate_key throughput at the simulated devices' key size.
[[nodiscard]] double probe_keygen_keys_per_s(std::uint64_t seed);

/// The traced run's serial split of the k-subset batch GCD into its public
/// calls: per-subset ProductTree, k^2 remainder_tree_squares, the leaf
/// bn::gcd()s and the final combine, each under its own span. `result`
/// must equal batch_gcd_distributed() element for element.
struct Decomposition {
  weakkeys::batchgcd::BatchGcdResult result;
  LayerValues values;  ///< batchgcd.* and bn.* metrics
};
[[nodiscard]] Decomposition decompose_batch_gcd(
    std::span<const weakkeys::bn::BigInt> moduli, Timeline& timeline);

/// Host-noise probes: a fixed ALU loop and a 128 MiB strided read, in ms.
struct HostProbes {
  double alu_ms = 0;
  double mem_ms = 0;
};
[[nodiscard]] HostProbes probe_host();

/// One workload: set-up, a repeatable timed body that checks its own
/// output, and the per-layer values of a traced run.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's inputs and reference outputs. Called several
  /// times (setup_s is the median); each call replaces the previous state.
  virtual void setup(const Context& context) = 0;
  /// One timed repetition. Returns whether its output matched the
  /// reference; spans go to `timeline` (inert when tracing is off).
  virtual bool rep(Timeline& timeline) = 0;
  /// Traced run only, after the reps: adds per-layer values from the
  /// traced reps and from layer-level calls on the workload's own inputs.
  /// Returns whether those calls' outputs matched the workload's.
  virtual bool layers(Timeline& timeline, LayerValues& out) = 0;
  /// One line of input sizes for the run's header.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// The workload called `name`, or null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace wkbench
