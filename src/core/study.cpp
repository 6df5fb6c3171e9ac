#include "core/study.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <thread>
#include <unordered_map>

#if !defined(_WIN32)
#include <csignal>
#include <unistd.h>
#define WEAKKEYS_HAVE_SIGNALS 1
#endif

#include "analysis/chains.hpp"
#include "batchgcd/coordinator.hpp"
#include "batchgcd/distributed.hpp"
#include "core/binary_io.hpp"
#include "core/ingest.hpp"
#include "core/scan_store.hpp"
#include "netsim/catalog.hpp"
#include "netsim/noise.hpp"
#include "obs/mem.hpp"
#include "util/atomic_file.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::core {

namespace {
/// Bump when the catalog or simulation semantics change, so stale corpus
/// caches are rebuilt.
constexpr std::uint32_t kCatalogVersion = 4;
constexpr std::uint32_t kFactorMagic = 0x574b4633;  // "WKF3" (adds noise key)

/// DatasetLoadStatus text as a metric-name segment (lowercase, dashes).
std::string metric_segment(std::string s) {
  for (char& c : s) {
    if (c == ' ') c = '-';
  }
  return s;
}

#if defined(WEAKKEYS_HAVE_SIGNALS)
// Signal-handler state. One watcher owns these at a time (handlers are
// process-global anyway); the handler itself is async-signal-safe — two
// atomic loads, two atomic stores inside request_async, one write(2).
std::atomic<util::CancellationToken*> g_signal_token{nullptr};
std::atomic<int> g_signal_pipe_wr{-1};

void lifecycle_signal_handler(int signum) {
  if (auto* token = g_signal_token.load(std::memory_order_acquire)) {
    token->request_async(signum);
  }
  const int fd = g_signal_pipe_wr.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(fd, &byte, 1);
  }
}
#endif  // WEAKKEYS_HAVE_SIGNALS
}  // namespace

const char* to_string(RunState s) {
  switch (s) {
    case RunState::kIdle:
      return "idle";
    case RunState::kRunning:
      return "running";
    case RunState::kCancelled:
      return "cancelled";
    case RunState::kFailed:
      return "failed";
    case RunState::kDone:
      return "done";
  }
  return "unknown";
}

/// Installs SIGINT/SIGTERM handlers that trip the run's token, plus a
/// self-pipe watcher thread that promote()s the async trip (running the
/// token's callbacks from a normal context) as soon as the signal lands —
/// without it, callbacks would wait for the next poll/monitor tick. The
/// destructor restores the previous handlers, so the Study's own teardown
/// (dtor flush) still runs under graceful-shutdown semantics.
class LifecycleSignalWatcher {
#if defined(WEAKKEYS_HAVE_SIGNALS)
 public:
  explicit LifecycleSignalWatcher(util::CancellationToken* token) {
    if (::pipe(fds_) != 0) {
      fds_[0] = fds_[1] = -1;
      return;
    }
    g_signal_token.store(token, std::memory_order_release);
    g_signal_pipe_wr.store(fds_[1], std::memory_order_release);
    struct sigaction sa{};
    sa.sa_handler = lifecycle_signal_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGINT, &sa, &old_int_);
    ::sigaction(SIGTERM, &sa, &old_term_);
    installed_ = true;
    watcher_ = std::thread([this, token] {
      char byte;
      while (::read(fds_[0], &byte, 1) > 0) token->promote();
    });
  }

  ~LifecycleSignalWatcher() {
    if (installed_) {
      ::sigaction(SIGINT, &old_int_, nullptr);
      ::sigaction(SIGTERM, &old_term_, nullptr);
    }
    g_signal_token.store(nullptr, std::memory_order_release);
    g_signal_pipe_wr.store(-1, std::memory_order_release);
    if (fds_[1] >= 0) ::close(fds_[1]);  // EOF stops the watcher thread
    if (watcher_.joinable()) watcher_.join();
    if (fds_[0] >= 0) ::close(fds_[0]);
  }

  LifecycleSignalWatcher(const LifecycleSignalWatcher&) = delete;
  LifecycleSignalWatcher& operator=(const LifecycleSignalWatcher&) = delete;

 private:
  int fds_[2] = {-1, -1};
  bool installed_ = false;
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
  std::thread watcher_;
#else
 public:
  explicit LifecycleSignalWatcher(util::CancellationToken*) {}
#endif  // WEAKKEYS_HAVE_SIGNALS
};

Study::Study(StudyConfig config)
    : config_(std::move(config)),
      subject_rules_(fingerprint::SubjectRules::standard()) {
  // The telemetry sink is the primary log: events are always counted and
  // ring-buffered, and the configured string log (if any) is just a text
  // mirror. A null config_.log no longer silently discards progress.
  if (config_.log) telemetry_.sink().set_text_sink(config_.log);
}

Study::~Study() {
  if (exit_flush_token_ != 0) obs::unregister_exit_flush(exit_flush_token_);
  // A run that never reached its normal end (exception, early teardown)
  // still closes the monitor time series and writes the trace artifacts.
  flush_telemetry();
}

void Study::log(const std::string& message) {
  telemetry_.sink().info(message);
}

util::CancellationToken* Study::resolve_token() {
  return config_.cancel ? config_.cancel : &own_token_;
}

util::ThreadPool& Study::pool() {
  if (!pool_) {
    pool_ = std::make_unique<util::ThreadPool>(config_.threads, &telemetry_);
  }
  return *pool_;
}

void Study::cancel(const std::string& reason) {
  resolve_token()->cancel(reason);
}

obs::LifecycleStatus Study::lifecycle() const {
  obs::LifecycleStatus ls;
  auto* self = const_cast<Study*>(this);
  util::CancellationToken* token = self->resolve_token();
  const RunState st = state_.load();
  const bool tripped = token->cancelled();
  ls.phase = to_string(st);
  if (stalled_.load()) {
    ls.phase = "stalled";
  } else if (st == RunState::kRunning && tripped) {
    ls.phase = "cancelling";
  }
  ls.healthy = !stalled_.load() && !tripped && st != RunState::kCancelled &&
               st != RunState::kFailed;
  ls.cancel_reason = tripped ? token->reason() : "";
  ls.deadline_remaining_s = token->deadline_remaining_s();
  {
    std::lock_guard lock(lifecycle_mu_);
    ls.stage = stage_name_;
  }
  return ls;
}

void Study::begin_stage(const std::string& name,
                        std::chrono::milliseconds stage_deadline) {
  poll_mem_budget();
  {
    std::lock_guard lock(lifecycle_mu_);
    stage_name_ = name;
  }
  util::CancellationToken* token = resolve_token();
  if (stage_deadline.count() > 0) {
    auto at = std::chrono::steady_clock::now() + stage_deadline;
    if (run_deadline_at_ && *run_deadline_at_ < at) at = *run_deadline_at_;
    token->set_deadline(at, name);
  } else if (run_deadline_at_) {
    token->set_deadline(*run_deadline_at_, "run");
  }
  token->throw_if_cancelled();
}

std::string Study::checkpoint_path() const {
  return config_.cache_path.empty() ? "" : config_.cache_path + ".study";
}

StudyCheckpointKey Study::checkpoint_key() const {
  return StudyCheckpointKey{
      config_.sim.seed,
      static_cast<std::uint64_t>(config_.sim.scale * 1e6),
      static_cast<std::uint32_t>(config_.sim.miller_rabin_rounds),
      kCatalogVersion,
      config_.noise.fingerprint(),
      static_cast<std::uint32_t>(config_.batch_gcd_subsets),
      config_.fault_tolerant ? 1u : 0u,
  };
}

void Study::load_checkpoint_if_resuming() {
  bool resume = config_.resume;
  if (const char* env = std::getenv("WEAKKEYS_RESUME")) {
    resume = std::atoi(env) != 0;
  }
  const std::string path = checkpoint_path();
  if (!resume || path.empty()) return;
  if (auto cp = load_study_checkpoint(checkpoint_key(), path)) {
    checkpoint_generation_ = cp->generation;
    resumed_stage_ = cp->stage;
    auto& metrics = telemetry_.metrics();
    metrics.counter("checkpoint.resume.stage")
        .set(static_cast<std::uint64_t>(cp->stage));
    metrics.counter("checkpoint.generation").set(cp->generation);
    log("resuming from study checkpoint (generation " +
        std::to_string(cp->generation) + ", last completed stage: " +
        to_string(cp->stage) + ")");
  }
}

void Study::save_stage_checkpoint(StudyStage stage) {
  const std::string path = checkpoint_path();
  if (path.empty()) return;
  if (stage > resumed_stage_) resumed_stage_ = stage;  // highest completed
  StudyCheckpoint cp;
  cp.key = checkpoint_key();
  cp.generation = ++checkpoint_generation_;
  cp.stage = stage;
  try {
    save_study_checkpoint(cp, path);
  } catch (const std::exception& e) {
    telemetry_.sink().warn(std::string("study checkpoint write failed: ") +
                           e.what());
    return;
  }
  auto& metrics = telemetry_.metrics();
  metrics.counter("checkpoint.writes").inc();
  metrics.counter("checkpoint.generation").set(cp.generation);
}

void Study::run() {
  if (ran_) return;
  run_started_.store(true);
  flushed_.store(false);
  state_.store(RunState::kRunning);
  util::CancellationToken* token = resolve_token();

  std::chrono::milliseconds run_deadline = config_.run_deadline;
  if (run_deadline.count() == 0) {
    if (const char* env = std::getenv("WEAKKEYS_DEADLINE")) {
      const double seconds = std::atof(env);
      if (seconds > 0) {
        run_deadline = std::chrono::milliseconds(
            static_cast<std::int64_t>(seconds * 1000.0));
      }
    }
  }
  if (run_deadline.count() > 0) {
    run_deadline_at_ = std::chrono::steady_clock::now() + run_deadline;
    token->set_deadline(*run_deadline_at_, "run");
  }
  if (config_.handle_signals && !signal_watcher_) {
    signal_watcher_ = std::make_unique<LifecycleSignalWatcher>(token);
  }

  start_observability();
  load_checkpoint_if_resuming();

  // pool() starts the run's workers on first use; they stop when run()
  // returns or throws.
  struct PoolStop {
    std::unique_ptr<util::ThreadPool>& pool;
    ~PoolStop() { pool.reset(); }
  } pool_stop{pool_};
  try {
    obs::Span run_span = telemetry_.tracer().span("study.run");
    begin_stage("build_dataset", config_.stage_deadlines.build_dataset);
    build_dataset();
    save_stage_checkpoint(StudyStage::kIngested);
    begin_stage("factor", config_.stage_deadlines.factor);
    factor_moduli();
    save_stage_checkpoint(StudyStage::kFactored);
    begin_stage("fingerprint", config_.stage_deadlines.fingerprint);
    fingerprint_corpus();
  } catch (const util::Cancelled&) {
    state_.store(RunState::kCancelled);
    log("run cancelled: " + token->reason());
    // The per-stage caches already hold everything completed; bump the
    // generation so a resume is attributable to this interruption.
    save_stage_checkpoint(resumed_stage_);
    flush_telemetry();
    throw;
  } catch (...) {
    state_.store(RunState::kFailed);
    flush_telemetry();
    throw;
  }
  token->clear_deadline();
  {
    std::lock_guard lock(lifecycle_mu_);
    stage_name_.clear();
  }
  save_stage_checkpoint(StudyStage::kDone);
  state_.store(RunState::kDone);
  ran_ = true;
  flush_telemetry();
}

void Study::start_observability() {
  std::string monitor_path = config_.monitor_path;
  if (monitor_path.empty()) {
    if (const char* env = std::getenv("WEAKKEYS_MONITOR")) monitor_path = env;
  }
  if (!monitor_path.empty() && !monitor_) {
    obs::MonitorConfig mc;
    mc.jsonl_path = monitor_path;
    mc.interval = config_.monitor_interval;
    if (config_.watchdog_stall_ticks > 0 && !watchdog_) {
      obs::WatchdogConfig wc;
      wc.stall_ticks = config_.watchdog_stall_ticks;
      wc.on_stall = [this](const std::string& diagnostic) {
        stalled_.store(true);
        resolve_token()->cancel("watchdog stall: " + diagnostic);
      };
      watchdog_ = std::make_unique<obs::Watchdog>(telemetry_, wc);
    }
    // The monitor tick doubles as the lifecycle heartbeat: it promotes
    // signal/deadline trips (running the token's callbacks promptly even
    // when no poll site is being hit) and feeds the stall watchdog.
    mc.on_tick = [this](const obs::MetricsSnapshot& snapshot) {
      resolve_token()->promote();
      if (watchdog_) watchdog_->observe(snapshot);
    };
    monitor_ = std::make_unique<obs::Monitor>(telemetry_, mc);
    monitor_->start();
  }

  int port = config_.status_port;
  if (port < 0) {
    if (const char* env = std::getenv("WEAKKEYS_STATUS_PORT")) {
      port = std::atoi(env);
    }
  }
  if (port >= 0 && port <= 65535 && !status_server_) {
    obs::StatusServerConfig sc;
    sc.port = static_cast<std::uint16_t>(port);
    sc.lifecycle = [this] { return lifecycle(); };
    status_server_ = std::make_unique<obs::StatusServer>(telemetry_, sc);
    if (status_server_->start()) {
      log("status server listening on http://127.0.0.1:" +
          std::to_string(status_server_->port()) +
          " (/metrics, /status, /healthz)");
    }
  }

  // Resource-attribution plane (DESIGN.md §5k). Both knobs resolve through
  // the usual env fallbacks; enabling either turns on memory accounting so
  // mem.* gauges flow into the monitor/status exports.
  double profile_hz = config_.profile_hz;
  if (profile_hz < 0) profile_hz = obs::profile_hz_from_env();
  long long budget_mb = config_.mem_budget_mb;
  if (budget_mb < 0) {
    budget_mb = 0;
    if (const char* env = std::getenv("WEAKKEYS_MEM_BUDGET_MB")) {
      budget_mb = std::atoll(env);
    }
  }
  if ((profile_hz > 0 || budget_mb > 0) && obs::mem::supported()) {
    obs::mem::enable(&telemetry_.metrics());
    if (budget_mb > 0) {
      obs::mem::set_budget_bytes(static_cast<std::uint64_t>(budget_mb) *
                                 1024 * 1024);
      log("memory accounting on (soft budget " + std::to_string(budget_mb) +
          " MiB; alarm only, never aborts)");
    }
  }
  if (profile_hz > 0 && !profiler_) {
    std::string profile_out = config_.profile_out;
    if (profile_out.empty()) profile_out = obs::profile_out_from_env();
    obs::ProfilerConfig pc;
    pc.hz = profile_hz;
    pc.out_path = profile_out;
    pc.registry = &telemetry_.metrics();
    pc.writer = [](const std::string& path, const std::string& content) {
      try {
        util::atomic_write_file(path, content);
        return true;
      } catch (const std::exception&) {
        return false;
      }
    };
    profiler_ = std::make_unique<obs::Profiler>(std::move(pc));
    profiler_->start();
    log("profiler sampling at " + std::to_string(profile_hz) + " Hz" +
        (profile_out.empty() ? std::string(" (metrics only)")
                             : " -> " + profile_out));
  }

  // An abnormal process exit (std::exit, uncaught exception unwinding to
  // main) must not lose the run's telemetry. Destructor unregisters.
  if (exit_flush_token_ == 0) {
    exit_flush_token_ =
        obs::register_exit_flush([this] { flush_telemetry(); });
  }
}

void Study::poll_mem_budget() {
  if (!obs::mem::enabled()) return;
  if (obs::mem::consume_budget_alarm()) {
    telemetry_.metrics().counter("mem.budget.alarms").inc();
    telemetry_.sink().warn(
        "memory budget exceeded: live heap bytes crossed " +
        std::to_string(obs::mem::budget_bytes()) +
        " (soft alarm; the run continues)");
  }
}

void Study::flush_telemetry() {
  if (!run_started_.load()) return;  // nothing collected yet
  if (flushed_.exchange(true)) return;
  // Profiler first: its final rollups and the mem census must be in the
  // registry before the monitor writes the `"final":true` snapshot.
  if (profiler_) profiler_->stop();  // also writes the collapsed-stack file
  if (obs::mem::enabled()) obs::mem::publish(telemetry_.metrics());
  poll_mem_budget();
  if (monitor_) monitor_->stop();  // writes the `"final":true` snapshot
  write_trace_if_configured();
}

void Study::write_trace_if_configured() {
  std::string path = config_.trace_path;
  if (path.empty()) {
    if (const char* env = std::getenv("WEAKKEYS_TRACE")) path = env;
  }
  if (path.empty()) return;
  if (telemetry_.write_trace_files(path)) {
    log("telemetry: trace written to " + path + " (metrics snapshot at " +
        path + ".metrics.json)");
  }
}

void Study::build_dataset() {
  obs::Span stage = telemetry_.tracer().span("study.build_dataset");
  auto& metrics = telemetry_.metrics();
  const StoreKey key{
      config_.sim.seed,
      static_cast<std::uint64_t>(config_.sim.scale * 1e6),
      static_cast<std::uint32_t>(config_.sim.miller_rabin_rounds),
      kCatalogVersion,
  };
  std::uint32_t cache_shards = config_.cache_shards;
  if (cache_shards == 0) {
    if (const char* env = std::getenv("WEAKKEYS_CACHE_SHARDS"))
      cache_shards = static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
  }
  bool have_corpus = false;
  if (!config_.cache_path.empty()) {
    obs::Span probe = telemetry_.tracer().span("study.load_corpus");
    if (auto cached =
            cache_shards > 1
                ? load_dataset_sharded(key, config_.cache_path,
                                       &dataset_cache_status_)
                : load_dataset(key, config_.cache_path,
                               &dataset_cache_status_)) {
      log("loaded corpus from " + config_.cache_path);
      metrics.counter("cache.corpus.hit").inc();
      raw_dataset_ = std::move(*cached);
      have_corpus = true;
    } else {
      metrics.counter("cache.corpus.miss").inc();
      // Attribute the rebuild reason as its own counter family: silent
      // rebuilds hide both corruption and stale-key bugs.
      metrics
          .counter("cache.corpus.rebuild." +
                   metric_segment(to_string(dataset_cache_status_)))
          .inc();
      if (dataset_cache_status_ != DatasetLoadStatus::kMissing) {
        log("corpus cache unusable (" +
            std::string(to_string(dataset_cache_status_)) + "), rebuilding " +
            config_.cache_path);
      }
    }
  }

  if (!have_corpus) {
    obs::Span simulate = telemetry_.tracer().span("study.simulate");
    log("simulating six years of scans (first run builds the corpus cache)...");
    netsim::SimConfig sim = config_.sim;
    sim.telemetry = &telemetry_;
    sim.cancel = resolve_token();
    sim.pool = &pool();
    sim.log = [this](const std::string& message) { log("sim: " + message); };
    internet_ = std::make_unique<netsim::Internet>(
        netsim::standard_models(config_.sim.scale), sim);
    raw_dataset_ = internet_->run(netsim::standard_campaigns());
    log("simulated " + std::to_string(raw_dataset_.total_host_records()) +
        " host records");
    if (!config_.cache_path.empty()) {
      if (cache_shards > 1) {
        save_dataset_sharded(raw_dataset_, key, config_.cache_path,
                             cache_shards);
        log("corpus cached to " + config_.cache_path + " (" +
            std::to_string(cache_shards) + " shards)");
      } else {
        save_dataset(raw_dataset_, key, config_.cache_path);
        log("corpus cached to " + config_.cache_path);
      }
    }
  }

  // The cache stores the clean corpus; scan noise is layered on afterwards
  // so one cached simulation serves any NoiseConfig.
  if (config_.noise.any()) {
    obs::Span noise = telemetry_.tracer().span("study.apply_noise");
    noise_summary_ = netsim::apply_noise(raw_dataset_, config_.noise);
    metrics.counter("noise.records_injected").inc(noise_summary_.total());
    log("noise: injected " + std::to_string(noise_summary_.total()) +
        " corrupted records into the scanned corpus");
  }

  // Ingest/quarantine: after this pass every record carries a decoded,
  // plausibly well-formed certificate; everything else is accounted for in
  // ingest_stats_ and (for degenerate moduli) rerouted to factor triage.
  {
    obs::Span ingest_span = telemetry_.tracer().span("study.ingest");
    IngestResult ingest = ingest_dataset(raw_dataset_, resolve_token());
    ingest_stats_ = std::move(ingest.stats);
    degenerate_moduli_ = std::move(ingest.degenerate_moduli);
    record_ingest_metrics();
    log("ingest: " + ingest_stats_.summary());
    obs::Span chains = telemetry_.tracer().span("study.exclude_intermediates");
    dataset_ = analysis::exclude_intermediates(ingest.kept);
  }
}

/// Mirrors IngestStats into the metrics registry. Counters agree exactly
/// with the stats struct (pinned by the telemetry e2e test): per-reason
/// drops are `ingest.drop.<reason>` using the QuarantineReason names.
void Study::record_ingest_metrics() {
  auto& metrics = telemetry_.metrics();
  metrics.counter("ingest.records_seen").inc(ingest_stats_.records_seen);
  metrics.counter("ingest.records_kept").inc(ingest_stats_.records_kept);
  metrics.counter("ingest.records_quarantined")
      .inc(ingest_stats_.records_quarantined);
  metrics.counter("ingest.raw_records").inc(ingest_stats_.raw_records);
  metrics.counter("ingest.raw_recovered").inc(ingest_stats_.raw_recovered);
  metrics.counter("ingest.degenerate_moduli")
      .inc(ingest_stats_.degenerate_moduli);
  for (std::size_t i = 0; i < kQuarantineReasonCount; ++i) {
    if (ingest_stats_.by_reason[i] == 0) continue;
    metrics
        .counter(std::string("ingest.drop.") +
                 to_string(static_cast<QuarantineReason>(i)))
        .inc(ingest_stats_.by_reason[i]);
  }
}

namespace {

bn::BigInt read_bigint(BinaryReader& r) {
  return bn::BigInt::from_bytes(r.bytes());
}

void write_bigint(BinaryWriter& w, const bn::BigInt& v) {
  w.bytes(v.to_bytes());
}

}  // namespace

bool Study::load_factor_cache(const std::string& path) {
  // Truncated or bit-flipped caches fail the length+CRC footer and fall
  // back to recomputation, mirroring the dataset cache's truncation safety.
  if (!verify_checksum_footer(path)) return false;
  BinaryReader r(path);
  if (!r.ok()) return false;
  try {
    if (r.u32() != kFactorMagic) return false;
    if (r.u64() != config_.sim.seed) return false;
    if (r.u64() != static_cast<std::uint64_t>(config_.sim.scale * 1e6))
      return false;
    if (r.u32() != kCatalogVersion) return false;
    // Noisy and pristine runs must never share factoring results: the
    // degenerate-modulus triage below folds quarantine output into stats_.
    if (r.u64() != config_.noise.fingerprint()) return false;
    stats_.distinct_moduli = r.u64();
    stats_.nontrivial_divisors = r.u64();
    stats_.shared_prime = r.u64();
    stats_.full_modulus = r.u64();
    stats_.bit_errors = r.u64();
    stats_.other = r.u64();
    stats_.second_pass_factored = r.u64();
    const std::uint32_t count = r.u32();
    factored_.clear();
    for (std::uint32_t i = 0; i < count; ++i) {
      FactorRecord f;
      f.n = read_bigint(r);
      f.p = read_bigint(r);
      f.q = read_bigint(r);
      f.divisor_class = static_cast<fingerprint::DivisorClass>(r.u32());
      vulnerable_.insert(f.n);
      factored_.push_back(std::move(f));
    }
    for (std::size_t i = 0; i < factored_.size(); ++i) {
      factored_index_[factored_[i].n.to_hex()] = i;
    }
    return true;
  } catch (const std::exception&) {
    factored_.clear();
    factored_index_.clear();
    vulnerable_ = analysis::VulnerableSet();
    stats_ = FactorStats{};
    return false;
  }
}

void Study::save_factor_cache(const std::string& path) const {
  // Stream to <path>.tmp and publish atomically: a SIGKILL between the
  // payload and the footer must never leave a torn factor cache behind.
  const std::string tmp = util::atomic_tmp_path(path);
  {
    BinaryWriter w(tmp);
    write_factor_cache_payload(w);
  }
  append_checksum_footer(tmp);
  util::atomic_publish_file(tmp, path);
}

void Study::write_factor_cache_payload(BinaryWriter& w) const {
  w.u32(kFactorMagic);
  w.u64(config_.sim.seed);
  w.u64(static_cast<std::uint64_t>(config_.sim.scale * 1e6));
  w.u32(kCatalogVersion);
  w.u64(config_.noise.fingerprint());
  w.u64(stats_.distinct_moduli);
  w.u64(stats_.nontrivial_divisors);
  w.u64(stats_.shared_prime);
  w.u64(stats_.full_modulus);
  w.u64(stats_.bit_errors);
  w.u64(stats_.other);
  w.u64(stats_.second_pass_factored);
  w.u32(static_cast<std::uint32_t>(factored_.size()));
  for (const auto& f : factored_) {
    write_bigint(w, f.n);
    write_bigint(w, f.p);
    write_bigint(w, f.q);
    w.u32(static_cast<std::uint32_t>(f.divisor_class));
  }
}

void Study::factor_moduli() {
  obs::Span stage = telemetry_.tracer().span("study.factor_moduli");
  auto& metrics = telemetry_.metrics();
  const std::string factor_cache =
      config_.cache_path.empty() ? "" : config_.cache_path + ".factors";
  if (!factor_cache.empty() && load_factor_cache(factor_cache)) {
    metrics.counter("cache.factors.hit").inc();
    record_factor_metrics();
    log("loaded " + std::to_string(factored_.size()) +
        " factored moduli from " + factor_cache);
    return;
  }
  if (!factor_cache.empty()) metrics.counter("cache.factors.miss").inc();

  const std::vector<bn::BigInt> moduli = dataset_.distinct_moduli();
  stats_.distinct_moduli = moduli.size();
  log("running batch GCD over " + std::to_string(moduli.size()) +
      " distinct moduli (k=" + std::to_string(config_.batch_gcd_subsets) + ")");

  // Cluster knobs fall back to the environment so deployments can scale a
  // study out to worker processes without a code change.
  std::size_t worker_processes = config_.worker_processes;
  if (worker_processes == 0) {
    if (const char* env = std::getenv("WEAKKEYS_WORKERS"))
      worker_processes = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  std::string worker_binary = config_.worker_binary;
  if (worker_binary.empty()) {
    if (const char* env = std::getenv("WEAKKEYS_WORKER_BIN"))
      worker_binary = env;
  }
  int worker_port = config_.worker_port;
  if (worker_port < 0) {
    worker_port = 0;
    if (const char* env = std::getenv("WEAKKEYS_WORKER_PORT"))
      worker_port = static_cast<int>(std::strtol(env, nullptr, 10));
  }
  std::size_t remote_workers = config_.remote_workers;
  if (remote_workers == 0) {
    if (const char* env = std::getenv("WEAKKEYS_REMOTE_WORKERS"))
      remote_workers = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  int session_grace_ms = config_.session_grace_ms;
  if (session_grace_ms < 0) {
    session_grace_ms = 0;
    if (const char* env = std::getenv("WEAKKEYS_WORKER_GRACE_MS"))
      session_grace_ms = static_cast<int>(std::strtol(env, nullptr, 10));
  }
  std::size_t chunk_bytes = config_.stream_chunk_bytes;
  if (chunk_bytes == 0) {
    if (const char* env = std::getenv("WEAKKEYS_CHUNK_BYTES"))
      chunk_bytes = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  std::size_t stream_window = config_.stream_window_chunks;
  if (stream_window == 0) {
    if (const char* env = std::getenv("WEAKKEYS_STREAM_WINDOW"))
      stream_window = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  int telemetry_interval_ms = config_.telemetry_interval_ms;
  if (telemetry_interval_ms < 0) {
    if (const char* env = std::getenv("WEAKKEYS_TELEMETRY_INTERVAL_MS"))
      telemetry_interval_ms =
          static_cast<int>(std::strtol(env, nullptr, 10));
  }
  std::string fleet_trace_path = config_.fleet_trace_path;
  if (fleet_trace_path.empty()) {
    if (const char* env = std::getenv("WEAKKEYS_FLEET_TRACE"))
      fleet_trace_path = env;
  }

  // Out-of-core spill policy (DESIGN.md §5l). One TreeStorage parameterizes
  // every subset tree this run builds; generation 0 means each tree stamps
  // its level files with its own subset fingerprint, which is stable across
  // runs of the same corpus — exactly what SIGKILL resume needs.
  std::string spill_dir = config_.spill_dir;
  if (spill_dir.empty()) {
    if (const char* env = std::getenv("WEAKKEYS_SPILL_DIR")) spill_dir = env;
  }
  long long spill_threshold_mb = config_.spill_threshold_mb;
  if (spill_threshold_mb < 0) {
    if (const char* env = std::getenv("WEAKKEYS_SPILL_THRESHOLD_MB"))
      spill_threshold_mb = std::strtoll(env, nullptr, 10);
  }
  if (spill_threshold_mb < 0) spill_threshold_mb = 256;
  long long spill_ram_fallback_mb = config_.spill_ram_fallback_mb;
  if (spill_ram_fallback_mb < 0) {
    if (const char* env = std::getenv("WEAKKEYS_SPILL_RAM_FALLBACK_MB"))
      spill_ram_fallback_mb = std::strtoll(env, nullptr, 10);
  }
  util::FaultInjector storage_injector(config_.faults);
  batchgcd::TreeStorage tree_storage;
  tree_storage.spill_dir = spill_dir;
  tree_storage.spill_threshold_bytes =
      static_cast<std::uint64_t>(spill_threshold_mb) * 1024 * 1024;
  tree_storage.base = "study";
  tree_storage.registry = &metrics;
  if (spill_ram_fallback_mb > 0) {
    tree_storage.ram_fallback_budget_bytes =
        static_cast<std::uint64_t>(spill_ram_fallback_mb) * 1024 * 1024;
  }
  if (config_.faults.any_storage_faults()) {
    tree_storage.injector = &storage_injector;
  }
  const batchgcd::TreeStorage* storage =
      tree_storage.enabled() ? &tree_storage : nullptr;
  if (storage != nullptr) {
    log("spill: dir=" + spill_dir + " threshold=" +
        std::to_string(spill_threshold_mb) + " MiB");
  }

  batchgcd::BatchGcdResult result;
  if (worker_processes > 0 || remote_workers > 0) {
    obs::Span gcd_span = telemetry_.tracer().span("gcd.cluster");
    // Multi-process path: fork/exec gcd_worker processes, supervise them
    // over TCP with heartbeats and per-task timeouts, survive crashes via
    // respawn and the same resume journal the in-process coordinator uses.
    cluster::ClusterConfig cc;
    cc.subsets = config_.batch_gcd_subsets;
    cc.workers = worker_processes;
    cc.remote_workers = remote_workers;
    cc.worker_binary = worker_binary;
    cc.port = static_cast<std::uint16_t>(worker_port);
    cc.session_grace = std::chrono::milliseconds(session_grace_ms);
    if (chunk_bytes > 0) cc.stream_chunk_bytes = chunk_bytes;
    if (stream_window > 0) cc.stream_window_chunks = stream_window;
    if (telemetry_interval_ms >= 0) {
      cc.telemetry_interval = std::chrono::milliseconds(telemetry_interval_ms);
    }
    cc.fleet_trace_path = fleet_trace_path;
    cc.checkpoint_path =
        config_.cache_path.empty() ? "" : config_.cache_path + ".gcdckpt";
    cc.log = [this](const std::string& message) { log(message); };
    cc.telemetry = &telemetry_;
    cc.cancel = resolve_token();
    util::FaultInjector injector(config_.faults);
    if (config_.faults.any_faults()) cc.injector = &injector;
    if (storage != nullptr) {
      // Worker processes inherit the environment, so exporting the spill
      // knobs here reaches every spawned gcd_worker without new spawn
      // plumbing (the same pattern the profiler knobs use).
      ::setenv("WEAKKEYS_SPILL_DIR", spill_dir.c_str(), 0);
      ::setenv("WEAKKEYS_SPILL_THRESHOLD_MB",
               std::to_string(spill_threshold_mb).c_str(), 0);
    }
    result = cluster::batch_gcd_cluster(moduli, cc, &cluster_stats_);
    gcd_span.end();
    log("cluster: " + std::to_string(cluster_stats_.tasks_executed) +
        " tasks on " + std::to_string(cluster_stats_.workers_spawned) +
        " worker processes (" + std::to_string(cluster_stats_.respawns) +
        " respawns, " + std::to_string(cluster_stats_.workers_lost) +
        " lost, " + std::to_string(cluster_stats_.reconnects) +
        " reconnects, " + std::to_string(cluster_stats_.results_quarantined) +
        " quarantined, " + std::to_string(cluster_stats_.tasks_resumed) +
        " resumed from checkpoint)");
  } else if (config_.fault_tolerant) {
    obs::Span gcd_span = telemetry_.tracer().span("gcd.coordinated");
    // Fault-tolerant path: verified results, retries, and a checkpoint
    // journal so a killed run resumes with only the unfinished tasks.
    batchgcd::CoordinatorConfig coord;
    coord.subsets = config_.batch_gcd_subsets;
    coord.workers = config_.threads;
    coord.checkpoint_path =
        config_.cache_path.empty() ? "" : config_.cache_path + ".gcdckpt";
    coord.log = [this](const std::string& message) { log(message); };
    coord.telemetry = &telemetry_;
    coord.cancel = resolve_token();
    util::FaultInjector injector(config_.faults);
    if (config_.faults.any_faults()) coord.injector = &injector;
    coord.storage = storage;
    result = batchgcd::batch_gcd_coordinated(moduli, coord, &coordinator_stats_);
    gcd_span.end();
    log("coordinator: " + std::to_string(coordinator_stats_.attempts) +
        " attempts for " + std::to_string(coordinator_stats_.tasks) +
        " tasks (" + std::to_string(coordinator_stats_.retries) + " retries, " +
        std::to_string(coordinator_stats_.corruptions_caught) +
        " corruptions caught, " +
        std::to_string(coordinator_stats_.stragglers_killed) +
        " stragglers killed, " +
        std::to_string(coordinator_stats_.tasks_resumed) +
        " resumed from checkpoint)");
  } else {
    // Fault-free fast path: every task assumed to succeed exactly once.
    obs::Span gcd_span = telemetry_.tracer().span("gcd.distributed");
    result = batchgcd::batch_gcd_distributed(
        moduli, config_.batch_gcd_subsets, &pool(), nullptr, resolve_token(),
        &telemetry_.metrics(), storage);
  }

  obs::Span classify_span = telemetry_.tracer().span("study.classify_divisors");
  std::vector<std::size_t> full_modulus_indices;
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    const bn::BigInt& d = result.divisors[i];
    if (d <= bn::BigInt(1)) continue;
    ++stats_.nontrivial_divisors;

    const auto verdict = fingerprint::classify_divisor(moduli[i], d);
    switch (verdict.cls) {
      case fingerprint::DivisorClass::kSharedPrime: {
        const auto split = batchgcd::recover_factors(moduli[i], d);
        factored_.push_back(
            {moduli[i], split->p, split->q, verdict.cls});
        vulnerable_.insert(moduli[i]);
        ++stats_.shared_prime;
        break;
      }
      case fingerprint::DivisorClass::kFullModulus:
        full_modulus_indices.push_back(i);
        ++stats_.full_modulus;
        break;
      case fingerprint::DivisorClass::kSmoothBitError:
        ++stats_.bit_errors;
        break;
      case fingerprint::DivisorClass::kOther:
        ++stats_.other;
        break;
    }
  }

  classify_span.end();

  // Second pass: moduli whose divisor equals the modulus share *both* primes
  // with the rest of the corpus (degenerate-generator cliques). Pairwise GCD
  // within this small set splits them.
  obs::Span second_pass_span = telemetry_.tracer().span("study.second_pass");
  for (const std::size_t i : full_modulus_indices) {
    for (const std::size_t j : full_modulus_indices) {
      if (i == j) continue;
      const bn::BigInt g = bn::gcd(moduli[i], moduli[j]);
      if (g > bn::BigInt(1) && g < moduli[i]) {
        factored_.push_back({moduli[i], g, moduli[i] / g,
                             fingerprint::DivisorClass::kFullModulus});
        vulnerable_.insert(moduli[i]);
        ++stats_.second_pass_factored;
        break;
      }
    }
  }

  second_pass_span.end();

  // Quarantined degenerate moduli (zero/tiny/even) never reach the GCD
  // input — an even modulus alone would smear a factor of 2 across the whole
  // corpus — but the paper still accounts for them as malformed keys, so
  // triage each into the bit-error/other buckets here.
  obs::Span triage_span = telemetry_.tracer().span("study.triage_degenerate");
  std::size_t triaged_bit_errors = 0;
  for (const auto& n : degenerate_moduli_) {
    if (fingerprint::triage_degenerate_modulus(n) ==
        fingerprint::DivisorClass::kSmoothBitError) {
      ++stats_.bit_errors;
      ++triaged_bit_errors;
    } else {
      ++stats_.other;
    }
  }
  if (!degenerate_moduli_.empty()) {
    log("triaged " + std::to_string(degenerate_moduli_.size()) +
        " quarantined degenerate moduli (" +
        std::to_string(triaged_bit_errors) + " as bit errors)");
  }

  triage_span.end();

  for (std::size_t i = 0; i < factored_.size(); ++i) {
    factored_index_[factored_[i].n.to_hex()] = i;
  }
  record_factor_metrics();
  log("factored " + std::to_string(factored_.size()) + " moduli (" +
      std::to_string(stats_.bit_errors) + " bit errors excluded)");
  if (!factor_cache.empty()) save_factor_cache(factor_cache);
}

/// Mirrors FactorStats into `factor.*` counters (set, not inc: the stats
/// struct is the authoritative total, whether computed or cache-loaded).
void Study::record_factor_metrics() {
  auto& metrics = telemetry_.metrics();
  metrics.counter("factor.distinct_moduli").set(stats_.distinct_moduli);
  metrics.counter("factor.nontrivial_divisors")
      .set(stats_.nontrivial_divisors);
  metrics.counter("factor.shared_prime").set(stats_.shared_prime);
  metrics.counter("factor.full_modulus").set(stats_.full_modulus);
  metrics.counter("factor.bit_errors").set(stats_.bit_errors);
  metrics.counter("factor.other").set(stats_.other);
  metrics.counter("factor.second_pass_factored")
      .set(stats_.second_pass_factored);
  metrics.counter("factor.factored_moduli").set(factored_.size());
}

const FactorRecord* Study::find_factor(const bn::BigInt& n) const {
  const auto it = factored_index_.find(n.to_hex());
  return it == factored_index_.end() ? nullptr : &factored_[it->second];
}

void Study::fingerprint_corpus() {
  obs::Span stage = telemetry_.tracer().span("study.fingerprint");
  // Degenerate-generator cliques.
  obs::Span clique_span = telemetry_.tracer().span("fingerprint.cliques");
  std::vector<fingerprint::FactoredModulus> triples;
  triples.reserve(factored_.size());
  for (const auto& f : factored_) triples.push_back({f.p, f.q, f.n});
  cliques_ = fingerprint::find_degenerate_cliques(triples);
  std::set<std::string> clique_prime_hex;
  for (const auto& clique : cliques_) {
    for (const auto& n : clique.moduli) clique_moduli_.insert(n);
    for (const auto& p : clique.primes) clique_prime_hex.insert(p.to_hex());
  }
  log("found " + std::to_string(cliques_.size()) +
      " degenerate-generator cliques");
  telemetry_.metrics().counter("fingerprint.cliques").set(cliques_.size());
  clique_span.end();
  resolve_token()->throw_if_cancelled();

  // Subject labels per unique certificate, and per-modulus subject vendors.
  obs::Span subject_span =
      telemetry_.tracer().span("fingerprint.subject_labels");
  std::unordered_map<std::string, std::set<std::string>> subject_vendors;
  for (const auto& snap : dataset_.snapshots) {
    for (const auto& rec : snap.records) {
      const auto* ptr = rec.certificate.get();
      auto [it, fresh] = subject_label_cache_.try_emplace(ptr);
      if (fresh) it->second = subject_rules_.classify(*ptr, rec.banner);
      if (it->second) {
        subject_vendors[ptr->key.n.to_hex()].insert(it->second->vendor);
      }
    }
  }

  subject_span.end();
  resolve_token()->throw_if_cancelled();

  // Vendor prime pools from subject-labeled factored moduli (clique primes
  // stay out: the clique label takes precedence, as in the paper).
  obs::Span pools_span = telemetry_.tracer().span("fingerprint.prime_pools");
  for (const auto& f : factored_) {
    if (clique_moduli_.contains(f.n)) continue;
    const auto it = subject_vendors.find(f.n.to_hex());
    if (it == subject_vendors.end() || it->second.size() != 1) continue;
    const std::string& vendor = *it->second.begin();
    pools_.add(vendor, f.p);
    pools_.add(vendor, f.q);
  }

  pools_span.end();

  // Shared-prime extrapolation for factored moduli with no subject label.
  obs::Span extrapolate_span =
      telemetry_.tracer().span("fingerprint.extrapolate");
  for (const auto& f : factored_) {
    if (clique_moduli_.contains(f.n)) continue;
    const std::string hex = f.n.to_hex();
    if (subject_vendors.contains(hex)) continue;
    const std::string vendor = pools_.extrapolate(f.p, f.q);
    if (!vendor.empty()) extrapolated_[hex] = vendor;
  }
  log("shared-prime extrapolation labeled " +
      std::to_string(extrapolated_.size()) + " moduli");
  telemetry_.metrics()
      .counter("fingerprint.extrapolated")
      .set(extrapolated_.size());
  extrapolate_span.end();

  // Fixed-key MITM candidates.
  obs::Span mitm_span = telemetry_.tracer().span("fingerprint.mitm");
  std::vector<std::string> factored_hex;
  factored_hex.reserve(factored_.size());
  for (const auto& f : factored_) factored_hex.push_back(f.n.to_hex());
  mitm_ = fingerprint::detect_fixed_key_mitm(dataset_, factored_hex,
                                             fingerprint::MitmOptions{});
  telemetry_.metrics().counter("fingerprint.mitm_candidates").set(mitm_.size());
}

analysis::RecordLabeler Study::labeler() const {
  return [this](const netsim::HostRecord& rec)
             -> std::optional<fingerprint::VendorLabel> {
    const auto& c = rec.cert();
    // 1. Degenerate-generator clique: every certificate carrying a clique
    //    modulus is the IBM implementation, whatever the subject says
    //    (this is how the paper labeled the Siemens-subject overlap).
    if (clique_moduli_.contains(c.key.n)) {
      return fingerprint::VendorLabel{"IBM", "RSA-II", "prime-clique"};
    }
    // 2. Subject / SAN / banner rules.
    const auto* ptr = rec.certificate.get();
    auto [it, fresh] = subject_label_cache_.try_emplace(ptr);
    if (fresh) it->second = subject_rules_.classify(c, rec.banner);
    if (it->second) return it->second;
    // 3. Shared-prime extrapolation.
    const auto ex = extrapolated_.find(c.key.n.to_hex());
    if (ex != extrapolated_.end()) {
      return fingerprint::VendorLabel{ex->second, "", "shared-prime"};
    }
    return std::nullopt;
  };
}

std::map<std::string, std::vector<bn::BigInt>>
Study::recovered_primes_by_vendor() const {
  // Rebuild per-modulus vendor attribution the way the labeler does, but at
  // modulus granularity.
  std::unordered_map<std::string, std::set<std::string>> subject_vendors;
  for (const auto& [ptr, label] : subject_label_cache_) {
    if (label) subject_vendors[ptr->key.n.to_hex()].insert(label->vendor);
  }

  std::map<std::string, std::vector<bn::BigInt>> out;
  for (const auto& f : factored_) {
    std::string vendor;
    if (clique_moduli_.contains(f.n)) {
      vendor = "IBM";
    } else {
      const std::string hex = f.n.to_hex();
      const auto it = subject_vendors.find(hex);
      if (it != subject_vendors.end() && it->second.size() == 1) {
        vendor = *it->second.begin();
      } else if (const auto ex = extrapolated_.find(hex);
                 ex != extrapolated_.end()) {
        vendor = ex->second;
      }
    }
    if (vendor.empty()) continue;
    out[vendor].push_back(f.p);
    out[vendor].push_back(f.q);
  }
  return out;
}

analysis::TimeSeriesBuilder Study::series_builder() const {
  return analysis::TimeSeriesBuilder(dataset_, vulnerable_, labeler());
}

const netsim::ScanDataset& Study::raw_dataset() const { return raw_dataset_; }
const netsim::ScanDataset& Study::dataset() const { return dataset_; }
const IngestStats& Study::ingest_stats() const { return ingest_stats_; }
const netsim::NoiseSummary& Study::noise_summary() const {
  return noise_summary_;
}
DatasetLoadStatus Study::dataset_cache_status() const {
  return dataset_cache_status_;
}
const FactorStats& Study::factor_stats() const { return stats_; }
const batchgcd::CoordinatorStats& Study::coordinator_stats() const {
  return coordinator_stats_;
}
const std::vector<FactorRecord>& Study::factored() const { return factored_; }
const analysis::VulnerableSet& Study::vulnerable() const { return vulnerable_; }
const std::vector<fingerprint::PrimeClique>& Study::cliques() const {
  return cliques_;
}
const fingerprint::PrimePools& Study::prime_pools() const { return pools_; }
const std::vector<fingerprint::MitmCandidate>& Study::mitm_candidates() const {
  return mitm_;
}
const netsim::Internet* Study::ground_truth() const { return internet_.get(); }

}  // namespace weakkeys::core
