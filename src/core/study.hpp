// The end-to-end study pipeline — the library's primary public API.
//
// Study reproduces the paper's methodology section for section:
//   1. obtain six years of scan data (simulate, or load the cached corpus);
//   2. reconstruct chains and drop Rapid7 intermediates (Section 3.1);
//   3. extract all distinct RSA moduli across protocols and run the
//      distributed batch GCD (Section 3.2);
//   4. classify divisors (shared prime / duplicate / bit error), splitting
//      both-primes-shared moduli with a pairwise second pass;
//   5. fingerprint implementations: subject rules, degenerate-generator
//      cliques, shared-prime-pool extrapolation, OpenSSL prime fingerprint,
//      fixed-key MITM detection (Section 3.3).
//
// Everything the table/figure binaries need hangs off the accessors.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/timeseries.hpp"
#include "batchgcd/batch_gcd.hpp"
#include "batchgcd/coordinator.hpp"
#include "cluster/process_coordinator.hpp"
#include "fingerprint/divisor_class.hpp"
#include "fingerprint/ibm_clique.hpp"
#include "fingerprint/mitm_detector.hpp"
#include "fingerprint/openssl_fingerprint.hpp"
#include "fingerprint/prime_pools.hpp"
#include "core/ingest.hpp"
#include "core/scan_store.hpp"
#include "core/study_checkpoint.hpp"
#include "fingerprint/subject_rules.hpp"
#include "netsim/internet.hpp"
#include "netsim/noise.hpp"
#include "obs/monitor.hpp"
#include "obs/profiler.hpp"
#include "obs/status_server.hpp"
#include "obs/telemetry.hpp"
#include "obs/watchdog.hpp"
#include "util/cancellation.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::core {

struct StudyConfig {
  netsim::SimConfig sim;
  /// Batch-GCD subset count (the paper used k=16 on 22 machines).
  std::size_t batch_gcd_subsets = 4;
  /// Worker threads of the run's pool (0 = hardware): corpus keygen in
  /// study.simulate and the fault-free distributed batch GCD both use it.
  std::size_t threads = 0;
  /// Dataset cache path; empty disables caching. A stale or mismatched
  /// cache is silently rebuilt.
  std::string cache_path = "weakkeys_corpus.cache";
  /// Corpus cache shard count: > 1 splits the record stream round-robin
  /// across "<cache_path>.shard<i>" files (each CRC-footed and atomically
  /// published) so 10^6-host corpora don't serialize through one multi-GB
  /// file, and ingest streams the shards back in original order — study
  /// results are byte-identical to the single-file cache. 0 falls back to
  /// WEAKKEYS_CACHE_SHARDS; still 0 (or 1) keeps the single file.
  std::uint32_t cache_shards = 0;
  /// Route the factoring stage through the fault-tolerant cluster
  /// coordinator (batch_gcd_coordinated) instead of the fault-free
  /// batch_gcd_distributed fast path. Enables checkpoint/resume: completed
  /// remainder-tree tasks journal to `cache_path + ".gcdckpt"`, so an
  /// interrupted factoring run re-executes only the unfinished tasks.
  bool fault_tolerant = false;
  /// Fault injection for the coordinator (all-zero = no injected faults).
  /// Only meaningful with fault_tolerant = true.
  util::FaultConfig faults;
  /// Route the factoring stage through the multi-process TCP cluster
  /// (batch_gcd_cluster): fork/exec this many gcd_worker processes and
  /// supervise them with heartbeats, per-task timeouts, and respawn.
  /// 0 falls back to the WEAKKEYS_WORKERS environment variable; still 0
  /// keeps factoring in-process (fault_tolerant / fast path as above).
  /// The cluster path implies fault tolerance: it shares the coordinator's
  /// journal format, so cluster and in-process runs resume each other.
  std::size_t worker_processes = 0;
  /// Path to the gcd_worker binary for the cluster path. Empty falls back
  /// to the WEAKKEYS_WORKER_BIN environment variable; required (and
  /// validated executable) when worker_processes resolves > 0.
  std::string worker_binary;
  /// Listener port for worker connections, 0 for kernel-assigned.
  /// Negative falls back to WEAKKEYS_WORKER_PORT; still negative means 0.
  int worker_port = -1;
  /// Extra dial-in slots for remote gcd_worker --connect processes the
  /// study does not spawn. 0 falls back to WEAKKEYS_REMOTE_WORKERS. The
  /// cluster path activates when local + remote workers resolve > 0.
  std::size_t remote_workers = 0;
  /// Session grace window (ms) for the cluster path: how long a
  /// disconnected worker's session is held for reconnection before the
  /// slot respawns. Negative falls back to WEAKKEYS_WORKER_GRACE_MS;
  /// still negative means 0 (disconnect = death).
  int session_grace_ms = -1;
  /// Chunk size (bytes) for streaming subset/product payloads to workers.
  /// 0 falls back to WEAKKEYS_CHUNK_BYTES, then the cluster default.
  std::size_t stream_chunk_bytes = 0;
  /// Backpressure window (chunks in flight beyond the acked prefix).
  /// 0 falls back to WEAKKEYS_STREAM_WINDOW, then the cluster default.
  std::size_t stream_window_chunks = 0;
  /// Telemetry export cadence (ms) for the cluster path: each v3 worker
  /// ships a TelemetrySnapshot (metrics + task spans + RSS/CPU) at most
  /// this often, fanned into fleet.worker.<id>.* / fleet.* metrics on the
  /// study registry (visible via /metrics, /status, and the monitor).
  /// Negative falls back to WEAKKEYS_TELEMETRY_INTERVAL_MS; still negative
  /// keeps the cluster default (500ms). 0 disables worker export.
  int telemetry_interval_ms = -1;
  /// Fleet-merged Chrome trace path for the cluster path: coordinator
  /// assign spans plus clock-rebased worker task spans on one timeline,
  /// written when the factoring stage ends (plus fleet metrics JSON at
  /// `<path>.metrics.json`). Empty falls back to WEAKKEYS_FLEET_TRACE;
  /// still empty disables the merged trace (metric fan-in is unaffected).
  std::string fleet_trace_path;
  /// Scan-noise injection: appends corrupted records to the scanned corpus
  /// after simulation or cache load (the cache always stores the clean
  /// corpus). All-zero = pristine. The ingest quarantine pass absorbs the
  /// damage; results on the clean subset are invariant under any setting.
  netsim::NoiseConfig noise;
  /// Progress sink (the simulation and factoring take a while at full
  /// scale). Null no longer discards events: everything is still counted
  /// and ring-buffered by the telemetry sink (Study::telemetry()); this
  /// callback only controls whether the text is *printed* somewhere.
  std::function<void(const std::string&)> log;
  /// Write a Chrome trace_event JSON of the run here after run() finishes
  /// (plus a metrics snapshot at `<trace_path>.metrics.json`). Empty falls
  /// back to the WEAKKEYS_TRACE environment variable; still empty disables
  /// the dump (spans and metrics are collected either way — see
  /// Study::telemetry()). Load the trace in about://tracing or perfetto.
  std::string trace_path;
  /// Live-monitor JSONL time-series path: run() starts a background
  /// obs::Monitor appending one snapshot object per line (schema in
  /// DESIGN.md §5f) plus human heartbeats through the sink. Empty falls
  /// back to the WEAKKEYS_MONITOR environment variable; still empty
  /// disables the monitor.
  std::string monitor_path;
  /// Monitor snapshot / heartbeat cadence.
  std::chrono::milliseconds monitor_interval{250};
  /// Embedded HTTP status server (GET /metrics Prometheus exposition,
  /// GET /status JSON, GET /healthz liveness): the loopback port to bind,
  /// 0 for a kernel-assigned ephemeral port (read the result from
  /// Study::status_port()). Negative falls back to WEAKKEYS_STATUS_PORT;
  /// still negative disables the server. It stays up until the Study is
  /// destroyed, so finished runs remain scrapeable.
  int status_port = -1;
  /// Sampling-profiler cadence in Hz (DESIGN.md §5k): run() starts an
  /// obs::Profiler snapshotting every thread's span/kernel stack and
  /// feeding `profiler.*` rollups into the registry (visible via /metrics,
  /// /status, the monitor, and the heartbeat line). Negative falls back to
  /// WEAKKEYS_PROFILE_HZ; <= 0 after fallback disables profiling. Enabling
  /// the profiler also enables memory accounting (mem.* gauges).
  double profile_hz = -1;
  /// Collapsed-stack (flamegraph) output path, written atomically when
  /// telemetry flushes. Empty falls back to WEAKKEYS_PROFILE_OUT; still
  /// empty keeps the profile in metrics only.
  std::string profile_out;
  /// Soft memory budget in MiB: enables memory accounting and latches a
  /// watchdog-visible alarm (`mem.budget.alarms` counter + sink warning)
  /// the first time live heap bytes cross the watermark. The run is never
  /// aborted — results stay identical to an unconstrained run. Negative
  /// falls back to WEAKKEYS_MEM_BUDGET_MB; <= 0 after fallback disables
  /// the budget.
  long long mem_budget_mb = -1;
  /// Out-of-core batch GCD: directory for product-tree level spills
  /// (DESIGN.md §5l). When the spill policy fires, each subset's product
  /// tree keeps at most two levels resident and streams the rest through
  /// CRC-framed level files here, bounding factoring memory at corpus
  /// scale. Empty falls back to WEAKKEYS_SPILL_DIR; still empty disables
  /// spilling. Level files are generation-stamped with the corpus
  /// fingerprint, so a killed run that left them behind resumes from them.
  std::string spill_dir;
  /// Estimated per-tree bytes at which spilling kicks in, in MiB. 0 spills
  /// every tree (chaos/CI mode); negative falls back to
  /// WEAKKEYS_SPILL_THRESHOLD_MB (still negative = 256 MiB). Only
  /// meaningful with a spill dir.
  long long spill_threshold_mb = -1;
  /// Last-rung budget for the spill degradation ladder, in MiB: when
  /// storage keeps failing, levels are pinned in RAM up to this budget
  /// before the run cancels with util::StorageError. Negative falls back
  /// to WEAKKEYS_SPILL_RAM_FALLBACK_MB; still negative = 0 = unlimited.
  long long spill_ram_fallback_mb = -1;

  // -- Run lifecycle (cancellation, deadlines, watchdog, resume) ---------

  /// External cancellation token. When set, run() polls (and arms
  /// deadlines on) this token instead of the Study's internal one, so one
  /// token can span several studies or be shared with a driver. Must
  /// outlive the Study.
  util::CancellationToken* cancel = nullptr;
  /// Whole-run wall-clock budget; the token's deadline trips once it is
  /// exhausted and the run unwinds with util::Cancelled ("deadline
  /// exceeded (run)"). Zero falls back to the WEAKKEYS_DEADLINE
  /// environment variable (seconds, fractional allowed); still zero means
  /// no deadline.
  std::chrono::milliseconds run_deadline{0};
  /// Optional per-stage budgets, each clamped to whatever remains of the
  /// run deadline. Zero = that stage inherits the run deadline only.
  struct StageDeadlines {
    std::chrono::milliseconds build_dataset{0};
    std::chrono::milliseconds factor{0};
    std::chrono::milliseconds fingerprint{0};
  } stage_deadlines;
  /// Declare the run stalled (and cancel it) after this many consecutive
  /// monitor ticks with zero movement across the progress counters. Rides
  /// the monitor thread, so it needs monitor_path/WEAKKEYS_MONITOR to be
  /// active. 0 disables the watchdog.
  std::size_t watchdog_stall_ticks = 0;
  /// Resume a previous run of the same configuration: load the WKC1 study
  /// checkpoint (`cache_path + ".study"`) and continue its generation
  /// count. The per-stage caches (corpus, gcdckpt journal, factors) do
  /// the actual work-skipping; this flag additionally surfaces
  /// `checkpoint.resume.stage` so callers can assert what was skipped.
  /// False falls back to the WEAKKEYS_RESUME environment variable.
  bool resume = false;
  /// Install SIGINT/SIGTERM handlers for the duration of the Study that
  /// trip the run's cancellation token (async-signal-safely) instead of
  /// killing the process: the run unwinds, flushes telemetry, and writes
  /// its checkpoint. Previous handlers are restored on destruction.
  bool handle_signals = false;
};

/// One factored modulus with everything later stages need.
struct FactorRecord {
  bn::BigInt n;
  bn::BigInt p;
  bn::BigInt q;
  fingerprint::DivisorClass divisor_class;
};

struct FactorStats {
  std::size_t distinct_moduli = 0;
  std::size_t nontrivial_divisors = 0;
  std::size_t shared_prime = 0;   ///< factored via a single shared prime
  std::size_t full_modulus = 0;   ///< both primes shared (clique members)
  std::size_t bit_errors = 0;     ///< smooth divisors: corrupted moduli
  std::size_t other = 0;
  std::size_t second_pass_factored = 0;  ///< full-modulus cases split pairwise
};

/// Coarse run state for the lifecycle probe (/healthz, /status).
enum class RunState : int {
  kIdle = 0,       ///< constructed, run() not yet called
  kRunning = 1,    ///< inside run()
  kCancelled = 2,  ///< run() unwound with util::Cancelled
  kFailed = 3,     ///< run() unwound with any other exception
  kDone = 4,       ///< run() completed
};

const char* to_string(RunState s);

class LifecycleSignalWatcher;  // SIGINT/SIGTERM -> token (study.cpp)

class Study {
 public:
  explicit Study(StudyConfig config = {});
  ~Study();

  /// Runs the full pipeline. Idempotent. Throws util::Cancelled when the
  /// run's token trips (signal, deadline, watchdog, or explicit cancel());
  /// telemetry is flushed and the study checkpoint written first, so a
  /// resume=true re-run continues from the last completed stage.
  void run();

  /// Trips the run's cancellation token from any thread. Poll sites at
  /// batch granularity (simulated month, scan snapshot, remainder-tree
  /// task) pick it up, so cancel latency is bounded by one batch.
  void cancel(const std::string& reason);

  /// The run's current lifecycle state, as served by /healthz and /status.
  /// Safe to call from any thread, including while run() executes.
  [[nodiscard]] obs::LifecycleStatus lifecycle() const;
  [[nodiscard]] RunState run_state() const { return state_.load(); }
  /// The token run() polls: config.cancel when set, else the internal one.
  [[nodiscard]] util::CancellationToken& cancellation_token() {
    return *resolve_token();
  }

  // -- Data ------------------------------------------------------------
  /// Records exactly as scanned (including Rapid7 intermediates).
  [[nodiscard]] const netsim::ScanDataset& raw_dataset() const;
  /// After chain reconstruction (this is what all analyses use).
  [[nodiscard]] const netsim::ScanDataset& dataset() const;
  /// Quarantine accounting from the ingest/validation pass (all records
  /// kept and zero quarantined on a pristine corpus).
  [[nodiscard]] const IngestStats& ingest_stats() const;
  /// What apply_noise injected this run (all-zero when noise is off).
  [[nodiscard]] const netsim::NoiseSummary& noise_summary() const;
  /// Outcome of the corpus-cache probe (kMissing when caching is disabled).
  [[nodiscard]] DatasetLoadStatus dataset_cache_status() const;

  // -- Factoring ---------------------------------------------------------
  [[nodiscard]] const FactorStats& factor_stats() const;
  /// Coordinator telemetry (attempts, retries, corruptions caught, ...).
  /// All zero when the fast path ran or the factor cache was hit.
  [[nodiscard]] const batchgcd::CoordinatorStats& coordinator_stats() const;
  /// Process-cluster telemetry (respawns, heartbeat deaths, quarantined
  /// results, frame loss, ...). All zero unless the factoring stage ran on
  /// the multi-process cluster (worker_processes / WEAKKEYS_WORKERS).
  [[nodiscard]] const cluster::ClusterStats& cluster_stats() const {
    return cluster_stats_;
  }
  [[nodiscard]] const std::vector<FactorRecord>& factored() const;
  /// Moduli counted as vulnerable: genuinely weak keys (shared-prime and
  /// clique factorizations; bit errors excluded, as in the paper).
  [[nodiscard]] const analysis::VulnerableSet& vulnerable() const;

  // -- Fingerprinting ------------------------------------------------------
  /// Degenerate-generator cliques found among the factored moduli.
  [[nodiscard]] const std::vector<fingerprint::PrimeClique>& cliques() const;
  /// Per-vendor recovered-prime pools (after subject labeling).
  [[nodiscard]] const fingerprint::PrimePools& prime_pools() const;
  /// Fixed-key MITM candidates (Internet Rimon).
  [[nodiscard]] const std::vector<fingerprint::MitmCandidate>& mitm_candidates() const;

  /// The full labeler: clique -> subject rules -> shared-prime
  /// extrapolation. Safe to copy into analysis builders.
  [[nodiscard]] analysis::RecordLabeler labeler() const;

  /// Vendor -> recovered primes (for Table 5 classification).
  [[nodiscard]] std::map<std::string, std::vector<bn::BigInt>>
  recovered_primes_by_vendor() const;

  /// Convenience: a TimeSeriesBuilder over dataset() with this study's
  /// vulnerable set and labeler. The Study must outlive the builder.
  [[nodiscard]] analysis::TimeSeriesBuilder series_builder() const;

  /// Ground-truth device list — only available when the corpus was simulated
  /// this run (not loaded from cache). For tests and validation only.
  [[nodiscard]] const netsim::Internet* ground_truth() const;

  /// The factor record for modulus `n`, if it was factored.
  [[nodiscard]] const FactorRecord* find_factor(const bn::BigInt& n) const;

  // -- Telemetry -----------------------------------------------------------
  /// The run's metrics registry, span tracer, and structured event sink.
  /// Live from construction; populated by run(). Metric names and the span
  /// model are documented in DESIGN.md §5e.
  [[nodiscard]] obs::Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] const obs::Telemetry& telemetry() const { return telemetry_; }

  /// The live monitor, if one was configured and started by run();
  /// null otherwise (and before run()).
  [[nodiscard]] obs::Monitor* monitor() { return monitor_.get(); }

  /// The bound status-server port, or -1 when the server is off. Safe to
  /// poll from another thread while run() executes.
  [[nodiscard]] int status_port() const {
    return status_server_ ? status_server_->port() : -1;
  }

  /// Closes the observability artifacts exactly once: stops the monitor
  /// (writing the `"final":true` snapshot) and writes the trace/metrics
  /// files if configured. Called automatically from run(), the destructor,
  /// and a process-exit hook, so an aborted run still leaves its telemetry
  /// on disk. The status server is untouched (it lives until destruction).
  void flush_telemetry();

 private:
  void build_dataset();
  void factor_moduli();
  void fingerprint_corpus();
  bool load_factor_cache(const std::string& path);
  void save_factor_cache(const std::string& path) const;
  void write_factor_cache_payload(class BinaryWriter& w) const;
  void log(const std::string& message);
  void record_ingest_metrics();
  void record_factor_metrics();
  void start_observability();
  /// Reports the soft-budget alarm (once per run) through the sink and the
  /// `mem.budget.alarms` counter. Called at stage boundaries and the final
  /// flush; the monitor tick polls too, whichever fires first reports.
  void poll_mem_budget();
  void write_trace_if_configured();
  [[nodiscard]] util::CancellationToken* resolve_token();
  /// The run's thread pool, started on first use and stopped when run()
  /// returns or throws.
  [[nodiscard]] util::ThreadPool& pool();
  [[nodiscard]] std::string checkpoint_path() const;
  [[nodiscard]] StudyCheckpointKey checkpoint_key() const;
  void load_checkpoint_if_resuming();
  void save_stage_checkpoint(StudyStage stage);
  /// Marks `name` as the running stage and arms its deadline (clamped to
  /// the run deadline); throws util::Cancelled if the token has tripped.
  void begin_stage(const std::string& name,
                   std::chrono::milliseconds stage_deadline);

  StudyConfig config_;
  obs::Telemetry telemetry_;
  // Declared after telemetry_ (they hold references into it) so they are
  // destroyed first.
  std::unique_ptr<obs::Monitor> monitor_;
  std::unique_ptr<obs::StatusServer> status_server_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::unique_ptr<LifecycleSignalWatcher> signal_watcher_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::uint64_t exit_flush_token_ = 0;
  std::atomic<bool> run_started_{false};
  std::atomic<bool> flushed_{false};
  bool ran_ = false;

  // -- lifecycle state ----------------------------------------------------
  util::CancellationToken own_token_;
  std::atomic<RunState> state_{RunState::kIdle};
  std::atomic<bool> stalled_{false};
  /// Armed run deadline (steady clock), if any; stage deadlines clamp to it.
  std::optional<std::chrono::steady_clock::time_point> run_deadline_at_;
  mutable std::mutex lifecycle_mu_;  ///< guards stage_name_
  std::string stage_name_;
  std::uint64_t checkpoint_generation_ = 0;
  StudyStage resumed_stage_ = StudyStage::kInit;
  netsim::ScanDataset raw_dataset_;
  netsim::ScanDataset dataset_;
  std::unique_ptr<netsim::Internet> internet_;
  IngestStats ingest_stats_;
  netsim::NoiseSummary noise_summary_;
  DatasetLoadStatus dataset_cache_status_ = DatasetLoadStatus::kMissing;
  /// Distinct quarantined degenerate moduli, triaged into FactorStats.
  std::vector<bn::BigInt> degenerate_moduli_;

  FactorStats stats_;
  batchgcd::CoordinatorStats coordinator_stats_;
  cluster::ClusterStats cluster_stats_;
  std::vector<FactorRecord> factored_;
  analysis::VulnerableSet vulnerable_;

  fingerprint::SubjectRules subject_rules_;
  std::vector<fingerprint::PrimeClique> cliques_;
  analysis::VulnerableSet clique_moduli_;
  fingerprint::PrimePools pools_;
  std::vector<fingerprint::MitmCandidate> mitm_;
  /// modulus hex -> extrapolated vendor (shared-prime pass).
  std::map<std::string, std::string> extrapolated_;
  /// modulus hex -> index into factored_.
  std::map<std::string, std::size_t> factored_index_;
  /// per-certificate subject-label cache (pointers owned by the dataset).
  mutable std::map<const cert::Certificate*,
                   std::optional<fingerprint::VendorLabel>>
      subject_label_cache_;
};

}  // namespace weakkeys::core
