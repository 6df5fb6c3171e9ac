// wkbench: runs one workload and prints its metrics as the last line of
// standard output, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"wall_s": {"value": 5.31, "unit": "s"}, ...}}
//
// Usage:
//   wkbench --workload NAME --seed N --seconds S --trace 0|1
//           --work-dir DIR --out-dir DIR
//
// --trace 0 reports the end-to-end metrics (wall_s, cpu_s, peak_rss_mb,
// setup_s) with tracing off. --trace 1 alternates untraced and traced reps
// and reports the per-layer metrics; it also writes <workload>.trace.json
// (Chrome trace_event) and <workload>.layers.json (self time per span) into
// --out-dir. Every file the library writes goes under --work-dir, which
// wkbench empties first and removes at exit.
#include <sys/resource.h>
#include <unistd.h>

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"

extern char** environ;

namespace wkbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

namespace {

// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 3;
// Fewest timed reps per run, whatever --seconds says (per mode when traced).
constexpr std::size_t kMinReps = 2;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The per-layer metrics, in BENCHMARK.json order. A workload reports 0 for
// a layer it does not exercise.
constexpr MetricSpec kLayerMetrics[] = {
    {"env.alu_probe_ms", "ms"},
    {"env.mem_probe_ms", "ms"},
    {"netsim.simulate_s", "s"},
    {"netsim.host_records", "count"},
    {"rsa.keygen.keys_per_s", "1/s"},
    {"batchgcd.product_tree_s", "s"},
    {"batchgcd.remainder_tree_s", "s"},
    {"batchgcd.leaf_gcd_s", "s"},
    {"batchgcd.combine_s", "s"},
    {"batchgcd.remainder_over_product", "ratio"},
    {"batchgcd.tree_limbs", "limbs"},
    {"batchgcd.max_node_limbs", "limbs"},
    {"batchgcd.distributed_s", "s"},
    {"batchgcd.classify_s", "s"},
    {"batchgcd.vulnerable", "count"},
    {"bn.mul.root_ms", "ms"},
    {"bn.sqr.root_ms", "ms"},
    {"bn.mod.root_ms", "ms"},
    {"bn.gcd.leaf_us", "us"},
#if defined(WKBENCH_HAVE_GMP)
    {"bn.mul.root_vs_gmp", "ratio"},
    {"bn.mod.root_vs_gmp", "ratio"},
    {"bn.gcd.leaf_vs_gmp", "ratio"},
#endif
    {"util.pool.busy_ratio", "ratio"},
    {"core.load_corpus_s", "s"},
    {"core.corpus_mb_per_s", "MB/s"},
    {"core.ingest_s", "s"},
    {"core.load_factors_s", "s"},
    {"core.distinct_moduli", "count"},
    {"analysis.exclude_intermediates_s", "s"},
    {"analysis.series_s", "s"},
    {"fingerprint.total_s", "s"},
    {"fingerprint.mitm_s", "s"},
    {"fingerprint.subject_labels_s", "s"},
    {"cluster.attempts", "count"},
    {"cluster.tasks_executed", "count"},
    {"cluster.useful_ratio", "ratio"},
    {"cluster.retries", "count"},
    {"cluster.respawns", "count"},
    {"cluster.frames_sent", "count"},
    {"cluster.stream_chunks_sent", "count"},
    {"cluster.max_heartbeat_rtt_us", "us"},
    {"cluster.worker_cpu_s", "s"},
    {"cluster.worker_peak_rss_mb", "MiB"},
    {"cluster.worker_task_s", "s"},
    {"obs.trace_overhead_pct", "%"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  fs::path work_dir;
  fs::path out_dir;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "wkbench: " << problem
            << "\nusage: wkbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --out-dir DIR\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || !have_seed || !(o.seconds > 0) ||
      o.work_dir.empty() || o.out_dir.empty()) {
    usage("every flag is required");
  }
  return o;
}

/// Study falls back to WEAKKEYS_* environment variables for 30-odd knobs
/// (cluster workers, spill dir, trace, monitor, profiler, ...). The
/// benchmark configures everything explicitly, so none may leak in — nor
/// into the gcd_worker processes, which inherit this environment.
void clear_weakkeys_environment() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("WEAKKEYS_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const auto& name : names) ::unsetenv(name.c_str());
}

fs::path own_directory() {
  return fs::read_symlink("/proc/self/exe").parent_path();
}

double rusage_cpu_s(int who) {
  rusage u{};
  ::getrusage(who, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

double cpu_now_s() {
  // Children count once reaped: the cluster's workers are, within the rep.
  return rusage_cpu_s(RUSAGE_SELF) + rusage_cpu_s(RUSAGE_CHILDREN);
}

/// VmHWM of this process, in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024;
    }
  }
  return 0;
}

/// Returns freed heap to the kernel and restarts the peak-RSS watermark, so
/// peak_rss_mb covers the timed reps (and the state they use), not the
/// probes' buffer or set-up's transient peaks.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) std::cerr << "wkbench: cannot reset VmHWM; peak includes set-up\n";
}

struct Sample {
  double wall_s = 0;
  double cpu_s = 0;
};

Sample timed_rep(Workload& workload, Timeline& timeline, std::size_t& failed) {
  const double cpu_before = cpu_now_s();
  const auto start = Clock::now();
  bool ok = false;
  try {
    ok = workload.rep(timeline);
    if (!ok) std::cerr << "wkbench: rep output did not match the reference\n";
  } catch (const std::exception& e) {
    std::cerr << "wkbench: rep failed: " << e.what() << "\n";
  }
  Sample s{seconds_since(start), cpu_now_s() - cpu_before};
  if (!ok) ++failed;
  return s;
}

std::string join(const std::vector<double>& values) {
  std::ostringstream s;
  s.precision(4);
  for (std::size_t i = 0; i < values.size(); ++i) {
    s << (i ? " " : "") << values[i];
  }
  return s.str();
}

std::vector<double> pick(const std::vector<Sample>& samples,
                         double Sample::*field) {
  std::vector<double> out;
  for (const auto& s : samples) out.push_back(s.*field);
  return out;
}

void print_result(std::size_t attempted, std::size_t failed,
                  const std::vector<std::pair<MetricSpec, double>>& metrics) {
  std::ostringstream s;
  s.precision(17);
  s << "{\"correct\": " << (failed == 0 ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second : 0;
    s << (i ? ", " : "") << "\"" << metrics[i].first.name
      << "\": {\"value\": " << v << ", \"unit\": \"" << metrics[i].first.unit
      << "\"}";
  }
  s << "}}";
  std::cout << s.str() << std::endl;
}

int run(const Options& o) {
  auto workload = make_workload(o.workload);
  if (!workload) usage("unknown workload " + o.workload);
  Context context{o.seed, o.work_dir, own_directory() / "gcd_worker"};
  fs::remove_all(o.work_dir);
  fs::create_directories(o.work_dir);
  if (o.trace) fs::create_directories(o.out_dir);

  const HostProbes host = probe_host();
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto start = Clock::now();
    workload->setup(context);
    setup_s.push_back(seconds_since(start));
  }
  std::cout << "# wkbench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << o.trace
            << " nproc=" << std::thread::hardware_concurrency()
            << " concurrency=" << kConcurrency << "\n# inputs: "
            << workload->describe() << "\n# env.alu_probe_ms=" << host.alu_ms
            << " env.mem_probe_ms=" << host.mem_ms
            << "\n# setup_s: " << join(setup_s) << std::endl;
  reset_peak_rss();

  // Untraced reps give the end-to-end metrics; a traced run interleaves
  // traced reps with them so the tracing overhead is a like-for-like gap.
  Timeline untraced(false);
  Timeline traced(o.trace);
  std::vector<Sample> plain, with_trace;
  std::size_t failed = 0;
  const auto start = Clock::now();
  while (plain.size() < kMinReps || (o.trace && with_trace.size() < kMinReps) ||
         seconds_since(start) < o.seconds) {
    if (o.trace && with_trace.size() < plain.size()) {
      with_trace.push_back(timed_rep(*workload, traced, failed));
    } else {
      plain.push_back(timed_rep(*workload, untraced, failed));
    }
  }
  std::size_t attempted = plain.size() + with_trace.size();
  const double wall_s = median(pick(plain, &Sample::wall_s));
  const double cpu_s = median(pick(plain, &Sample::cpu_s));
  std::cout << "# wall_s: " << join(pick(plain, &Sample::wall_s))
            << "\n# cpu_s: " << join(pick(plain, &Sample::cpu_s)) << std::endl;

  std::vector<std::pair<MetricSpec, double>> metrics;
  if (!o.trace) {
    metrics = {{{"wall_s", "s"}, wall_s},
               {{"cpu_s", "s"}, cpu_s},
               {{"peak_rss_mb", "MiB"}, peak_rss_mib()},
               {{"setup_s", "s"}, median(setup_s)}};
  } else {
    LayerValues values;
    ++attempted;
    bool ok = false;
    try {
      ok = workload->layers(traced, values);
      if (!ok) std::cerr << "wkbench: layer calls did not match the reps\n";
    } catch (const std::exception& e) {
      std::cerr << "wkbench: layer calls failed: " << e.what() << "\n";
    }
    if (!ok) ++failed;
    const double traced_wall_s = median(pick(with_trace, &Sample::wall_s));
    std::cout << "# traced wall_s: " << join(pick(with_trace, &Sample::wall_s))
              << std::endl;
    values["env.alu_probe_ms"] = host.alu_ms;
    values["env.mem_probe_ms"] = host.mem_ms;
    values["rsa.keygen.keys_per_s"] = probe_keygen_keys_per_s(o.seed);
    values["util.pool.busy_ratio"] =
        cpu_s / (wall_s * static_cast<double>(kConcurrency));
    values["obs.trace_overhead_pct"] =
        (traced_wall_s - wall_s) / wall_s * 100;
    for (const auto& spec : kLayerMetrics) {
      const auto it = values.find(spec.name);
      metrics.push_back({spec, it == values.end() ? 0 : it->second});
    }
    traced.write_chrome_trace(o.out_dir / (o.workload + ".trace.json"));
    write_layer_times(traced.layer_times(),
                      o.out_dir / (o.workload + ".layers.json"));
  }
  fs::remove_all(o.work_dir);
  print_result(attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace wkbench

int main(int argc, char** argv) {
  const wkbench::Options options = wkbench::parse_options(argc, argv);
  wkbench::clear_weakkeys_environment();
  try {
    return wkbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "wkbench: " << e.what() << "\n";
    std::error_code ignored;
    std::filesystem::remove_all(options.work_dir, ignored);
    return 1;
  }
}
