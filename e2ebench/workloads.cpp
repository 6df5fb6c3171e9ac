// The two workloads. Each builds its inputs from the run's seed, repeats
// one timed body, and checks every rep against a reference:
//
//   cold_study   Study::run in an empty cache dir (the user's first run)
//   gcd_cluster  batch_gcd_cluster with 2 worker processes over a generated
//                corpus with planted shared primes
//
// Their traced runs also make the layer-level calls the reps do not: the
// serial split of the batch GCD on the workload's moduli, and on cold_study
// the cache-read path of a second run (a warm Study::run plus every
// vendor's time series, as each table/figure binary after the first does).
#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "batchgcd/distributed.hpp"
#include "bench.hpp"
#include "cluster/process_coordinator.hpp"
#include "core/study.hpp"
#include "util/thread_pool.hpp"

namespace wkbench {

namespace core = weakkeys::core;
namespace batchgcd = weakkeys::batchgcd;
namespace cluster = weakkeys::cluster;

namespace {

// Catalog scale of cold_study: about 132k-136k host records and 4.7k
// distinct moduli, depending on the seed.
constexpr double kStudyScale = 0.05;
// Moduli in the gcd_cluster corpus.
constexpr std::size_t kGcdModuli = 8192;

core::StudyConfig study_config(std::uint64_t seed, const fs::path& dir) {
  core::StudyConfig c;
  c.sim.seed = seed;
  c.sim.scale = kStudyScale;
  c.batch_gcd_subsets = kSubsets;
  c.threads = kConcurrency;
  c.cache_path = (dir / "corpus.cache").string();
  c.cache_shards = 1;
  c.profile_hz = 0;
  c.mem_budget_mb = 0;
  return c;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over `text`, continuing from `hash`.
std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

fs::path fresh_dir(const fs::path& path) {
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

std::uint64_t study_digest(const core::Study& study) {
  std::vector<std::string> hex(study.vulnerable().hex().begin(),
                               study.vulnerable().hex().end());
  std::sort(hex.begin(), hex.end());
  std::uint64_t h = kFnvOffset;
  for (const auto& x : hex) h = fnv1a(h, x);
  const core::FactorStats& f = study.factor_stats();
  for (const std::size_t v :
       {f.distinct_moduli, f.nontrivial_divisors, f.shared_prime,
        f.full_modulus, f.bit_errors, f.other, f.second_pass_factored}) {
    h = fnv1a(h, std::to_string(v));
  }
  return h;
}

/// Every vendor's series, the way each table/figure binary reads them.
std::uint64_t series_digest(const core::Study& study) {
  const weakkeys::analysis::TimeSeriesBuilder builder = study.series_builder();
  std::uint64_t h = kFnvOffset;
  for (const auto& vendor : builder.vendors()) {
    const auto series = builder.vendor_series(vendor);
    h = fnv1a(h, vendor);
    for (const auto& p : series.points) {
      h = fnv1a(h, p.date.to_string() + p.source + "/" +
                       std::to_string(p.total_hosts) + "/" +
                       std::to_string(p.vulnerable_hosts));
    }
  }
  return h;
}

double per_call(const std::map<std::string, LayerTime>& times,
                const std::string& name) {
  const auto it = times.find(name);
  return it == times.end() || it->second.count == 0
             ? 0
             : it->second.total_s / static_cast<double>(it->second.count);
}

double self_per_call(const std::map<std::string, LayerTime>& times,
                     const std::string& name) {
  const auto it = times.find(name);
  return it == times.end() || it->second.count == 0
             ? 0
             : it->second.self_s / static_cast<double>(it->second.count);
}

/// The core, analysis and fingerprint layers of the study reps, from the
/// Study's own spans adopted onto the timeline.
void study_layers(const std::map<std::string, LayerTime>& t,
                  LayerValues& out) {
  out["core.ingest_s"] = self_per_call(t, "study.ingest");
  out["analysis.exclude_intermediates_s"] =
      per_call(t, "study.exclude_intermediates");
  out["fingerprint.total_s"] = per_call(t, "study.fingerprint");
  out["fingerprint.mitm_s"] = per_call(t, "fingerprint.mitm");
  out["fingerprint.subject_labels_s"] =
      per_call(t, "fingerprint.subject_labels");
}

/// Adds the serial split's values; returns whether it matched `reference`.
bool add_decomposition(std::span<const weakkeys::bn::BigInt> moduli,
                       const batchgcd::BatchGcdResult& reference,
                       Timeline& timeline, LayerValues& out) {
  Decomposition d = decompose_batch_gcd(moduli, timeline);
  out.insert(d.values.begin(), d.values.end());
  return d.result.divisors == reference.divisors;
}

class ColdStudy final : public Workload {
 public:
  void setup(const Context& context) override {
    context_ = context;
    const fs::path dir = fresh_dir(context.work_dir / "cold-setup");
    core::Study study(study_config(context.seed, dir));
    study.run();
    reference_ = study_digest(study);
    moduli_ = study.dataset().distinct_moduli();
    host_records_ = study.raw_dataset().total_host_records();
    vulnerable_ = study.vulnerable().size();
    fs::remove_all(dir);
  }

  bool rep(Timeline& timeline) override {
    const fs::path dir = fresh_dir(context_.work_dir / "cold-rep");
    bool ok = false;
    {
      core::Study study(study_config(context_.seed, dir));
      {
        obs::Span span = timeline.span("core.study_run");
        study.run();
      }
      timeline.adopt_tracer("core.study_run", study.telemetry().tracer());
      ok = study_digest(study) == reference_;
    }
    fs::remove_all(dir);
    return ok;
  }

  bool layers(Timeline& timeline, LayerValues& out) override {
    // Read before the calls below add spans of the same names.
    const auto t = timeline.layer_times();
    study_layers(t, out);
    out["netsim.simulate_s"] = per_call(t, "study.simulate");
    out["netsim.host_records"] = static_cast<double>(host_records_);
    out["core.distinct_moduli"] = static_cast<double>(moduli_.size());
    out["batchgcd.distributed_s"] = per_call(t, "gcd.distributed");
    out["batchgcd.classify_s"] = per_call(t, "study.classify_divisors");
    out["batchgcd.vulnerable"] = static_cast<double>(vulnerable_);
    // The study's own batch GCD runs on the thread pool; the reference for
    // the serial split is the same library call on the same moduli.
    weakkeys::util::ThreadPool pool(kConcurrency);
    const auto reference =
        batchgcd::batch_gcd_distributed(moduli_, kSubsets, &pool);
    const bool split_ok = add_decomposition(moduli_, reference, timeline, out);
    return warm_path(timeline, out) && split_ok;
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream s;
    s << "scale=" << kStudyScale << " host_records=" << host_records_
      << " distinct_moduli=" << moduli_.size() << " k=" << kSubsets
      << " threads=" << kConcurrency;
    return s.str();
  }

 private:
  /// A user's second run: a cold run writes the corpus and factor caches,
  /// then a warm Study::run reads them back and every vendor's series is
  /// built. Returns whether the warm run hit both caches and reproduced
  /// the cold run's digest and series.
  bool warm_path(Timeline& timeline, LayerValues& out) {
    const fs::path dir = fresh_dir(context_.work_dir / "warm");
    std::uint64_t cold_series = 0;
    {
      core::Study cold(study_config(context_.seed, dir));
      cold.run();
      cold_series = series_digest(cold);
    }
    core::Study warm(study_config(context_.seed, dir));
    {
      obs::Span span = timeline.span("core.warm_study_run");
      warm.run();
    }
    timeline.adopt_tracer("core.warm_study_run", warm.telemetry().tracer());
    std::uint64_t series = 0;
    const auto start = Clock::now();
    {
      obs::Span span = timeline.span("analysis.series");
      series = series_digest(warm);
    }
    out["analysis.series_s"] = seconds_since(start);
    for (const auto& e : warm.telemetry().tracer().events()) {
      if (e.name == "study.load_corpus") {
        out["core.load_corpus_s"] += static_cast<double>(e.dur_us) / 1e6;
      } else if (e.name == "study.factor_moduli") {
        out["core.load_factors_s"] += static_cast<double>(e.dur_us) / 1e6;
      }
    }
    if (out["core.load_corpus_s"] > 0) {
      out["core.corpus_mb_per_s"] =
          static_cast<double>(fs::file_size(dir / "corpus.cache")) / 1e6 /
          out["core.load_corpus_s"];
    }
    const auto counters = warm.telemetry().metrics().snapshot();
    return warm.dataset_cache_status() == core::DatasetLoadStatus::kLoaded &&
           counters.counter("cache.factors.hit") == 1 &&
           study_digest(warm) == reference_ && series == cold_series;
  }

  Context context_;
  std::uint64_t reference_ = 0;
  std::vector<weakkeys::bn::BigInt> moduli_;
  std::size_t host_records_ = 0;
  std::size_t vulnerable_ = 0;
};

/// The process executor: fork/exec, framing, streaming and heartbeats
/// around the k-subset batch GCD.
class GcdCluster final : public Workload {
 public:
  void setup(const Context& context) override {
    context_ = context;
    pool_ = std::make_unique<weakkeys::util::ThreadPool>(kConcurrency);
    corpus_ = make_corpus(context.seed, kGcdModuli, *pool_);
  }

  bool rep(Timeline& timeline) override {
    cluster::ClusterConfig config;
    config.subsets = kSubsets;
    config.workers = kConcurrency;
    config.worker_binary = context_.worker_binary.string();
    // Traced reps collect the fleet trace and fold worker telemetry into a
    // registry; untraced reps run the coordinator's defaults only.
    weakkeys::obs::Telemetry telemetry(timeline.enabled());
    const fs::path fleet_trace = context_.work_dir / "fleet_trace.json";
    if (timeline.enabled()) {
      config.telemetry = &telemetry;
      config.fleet_trace_path = fleet_trace.string();
    }
    batchgcd::BatchGcdResult result;
    cluster::ClusterStats stats;
    {
      obs::Span span = timeline.span("cluster.batch_gcd");
      result = cluster::batch_gcd_cluster(corpus_.moduli, config, &stats);
    }
    if (timeline.enabled()) {
      stats_ = stats;
      timeline.adopt_chrome_trace("cluster.batch_gcd", fleet_trace);
      record_fleet(telemetry.metrics().snapshot());
    }
    return check(result, timeline);
  }

  bool layers(Timeline& timeline, LayerValues& out) override {
    const auto t = timeline.layer_times();
    out["batchgcd.classify_s"] = per_call(t, "batchgcd.classify");
    out["batchgcd.vulnerable"] = static_cast<double>(corpus_.planted.size());
    cluster_layers(t, out);
    // The thread-pool executor on the same input: its time against the
    // reps' wall_s is the process executor's cost. The serial split must
    // equal it, and it must equal what the corpus was built to contain.
    batchgcd::BatchGcdResult parallel;
    const auto start = Clock::now();
    {
      obs::Span span = timeline.span("batchgcd.distributed");
      parallel = batchgcd::batch_gcd_distributed(corpus_.moduli, kSubsets,
                                                 pool_.get());
    }
    out["batchgcd.distributed_s"] = seconds_since(start);
    return parallel.divisors == corpus_.expected.divisors &&
           add_decomposition(corpus_.moduli, parallel, timeline, out);
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream s;
    s << "moduli=" << corpus_.moduli.size() << " bits=256 planted="
      << corpus_.planted.size() << " k=" << kSubsets
      << " workers=" << kConcurrency;
    return s.str();
  }

 private:
  /// Every divisor equals the one the corpus was built with; the moduli
  /// with a nontrivial one are exactly the planted set, and each splits
  /// into factors that multiply back to it.
  bool check(const batchgcd::BatchGcdResult& result, Timeline& timeline) {
    obs::Span span = timeline.span("batchgcd.classify");
    const auto vulnerable = result.vulnerable_indices();
    if (result.divisors != corpus_.expected.divisors ||
        vulnerable != corpus_.planted) {
      return false;
    }
    for (const std::size_t i : vulnerable) {
      const auto split =
          batchgcd::recover_factors(corpus_.moduli[i], result.divisors[i]);
      if (!split || split->p * split->q != corpus_.moduli[i]) return false;
    }
    return true;
  }

  void record_fleet(const weakkeys::obs::MetricsSnapshot& snapshot) {
    worker_cpu_s_ = 0;
    worker_peak_rss_kb_ = 0;
    for (std::size_t w = 0; w < kConcurrency; ++w) {
      const std::string prefix = "fleet.worker." + std::to_string(w) + ".";
      const auto gauge = [&](const std::string& name) -> double {
        const auto it = snapshot.gauges.find(prefix + name);
        return it == snapshot.gauges.end() ? 0 : static_cast<double>(it->second);
      };
      worker_cpu_s_ += (gauge("cpu_user_us") + gauge("cpu_sys_us")) / 1e6;
      worker_peak_rss_kb_ = std::max(worker_peak_rss_kb_, gauge("peak_rss_kb"));
    }
  }

  void cluster_layers(const std::map<std::string, LayerTime>& t,
                      LayerValues& out) const {
    const auto reps = t.find("cluster.batch_gcd");
    const double traced_reps =
        reps == t.end() ? 1 : static_cast<double>(reps->second.count);
    const auto compute = t.find("task.compute");
    out["cluster.attempts"] = static_cast<double>(stats_.attempts);
    out["cluster.tasks_executed"] = static_cast<double>(stats_.tasks_executed);
    out["cluster.useful_ratio"] =
        stats_.attempts == 0 ? 0
                             : static_cast<double>(stats_.tasks_executed) /
                                   static_cast<double>(stats_.attempts);
    out["cluster.retries"] = static_cast<double>(stats_.retries);
    out["cluster.respawns"] = static_cast<double>(stats_.respawns);
    out["cluster.frames_sent"] = static_cast<double>(stats_.frames_sent);
    out["cluster.stream_chunks_sent"] =
        static_cast<double>(stats_.stream_chunks_sent);
    out["cluster.max_heartbeat_rtt_us"] =
        static_cast<double>(stats_.max_heartbeat_rtt_us);
    out["cluster.worker_cpu_s"] = worker_cpu_s_;
    out["cluster.worker_peak_rss_mb"] = worker_peak_rss_kb_ / 1024;
    out["cluster.worker_task_s"] =
        compute == t.end() ? 0 : compute->second.total_s / traced_reps;
  }

  Context context_;
  std::unique_ptr<weakkeys::util::ThreadPool> pool_;
  Corpus corpus_;
  cluster::ClusterStats stats_;
  double worker_cpu_s_ = 0;
  double worker_peak_rss_kb_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "cold_study") return std::make_unique<ColdStudy>();
  if (name == "gcd_cluster") return std::make_unique<GcdCluster>();
  return nullptr;
}

}  // namespace wkbench
