#include "cluster/process_coordinator.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "batchgcd/coordinator.hpp"
#include "batchgcd/product_tree.hpp"
#include "batchgcd/task_journal.hpp"
#include "cluster/protocol.hpp"
#include "core/binary_io.hpp"
#include "obs/fleet.hpp"
#include "util/net.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::cluster {

#if defined(WEAKKEYS_HAVE_NET)

namespace {

using batchgcd::TaskClaim;
using bn::BigInt;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kNoWorker = static_cast<std::uint32_t>(-1);

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

enum class SlotState : std::uint8_t {
  kSpawning,      ///< process forked (or dial-in awaited), waiting for Hello
  kLive,          ///< handshake done, serving tasks
  kDisconnected,  ///< link lost but session held; awaiting ReconnectHello
  kLost,          ///< death observed, awaiting supervisor handling
  kRetired,       ///< given up (restart budget exhausted or shutting down)
};

enum class TaskState : std::uint8_t { kQueued, kAssigned, kDone };

struct Pending {
  std::size_t task = 0;
  std::size_t attempt = 0;  ///< 0-based attempt about to run
  Clock::time_point ready_at;
  std::uint32_t banned_worker = kNoWorker;
};

/// One in-progress chunked payload transfer to a worker (go-back-N sender
/// side; the head of Slot::transfers is the active one).
struct Transfer {
  std::uint32_t stream_id = 0;
  StreamKind kind = StreamKind::kSubset;
  std::uint32_t subset = 0;
  std::shared_ptr<const std::vector<std::uint8_t>> payload;
  std::uint32_t crc = 0;       ///< crc32 of the whole payload
  std::uint64_t acked = 0;     ///< receiver's contiguous prefix
  std::uint64_t sent_off = 0;  ///< next byte to send
  bool begin_sent = false;
  Clock::time_point last_progress;
};

struct Slot {
  std::uint32_t id = 0;
  bool is_remote = false;  ///< dial-in worker: never forked, killed or reaped
  SlotState state = SlotState::kRetired;
  pid_t pid = -1;
  /// Bumped per (re)spawn *and* per link attach/detach; the RX thread's
  /// exit signal. A reconnect within one worker incarnation still retires
  /// the old RX thread cleanly before the new link gets its own.
  std::uint64_t epoch = 0;
  util::net::UniqueFd fd;
  std::unique_ptr<FrameConn> conn;
  std::thread rx;
  Clock::time_point spawn_at;
  Clock::time_point last_pong;
  Clock::time_point last_ping;
  std::uint64_t ping_seq = 0;
  /// Negotiated protocol dialect for this incarnation, recorded from the
  /// Hello: every frame the coordinator sends this worker is encoded for
  /// this version (v2 workers get legacy bodies, no telemetry).
  std::uint32_t version = kProtocolVersion;
  bool busy = false;
  Pending current;  ///< valid when busy
  std::uint64_t assign_span = 0;  ///< open fleet assign span (valid when busy)
  Clock::time_point assigned_at;
  std::size_t strikes = 0;  ///< verification failures this incarnation
  // -- session state: survives disconnects, reset per incarnation ----------
  std::uint64_t session_id = 0;      ///< 0 = no session established yet
  std::uint64_t rx_result_seq = 0;   ///< dedup high-water for result replays
  std::uint64_t rx_telemetry_seq = 0;  ///< dedup high-water for telemetry
  Clock::time_point disconnected_at;
  std::deque<Transfer> transfers;
  std::vector<bool> delivered_subsets;   ///< fully acked by the worker
  std::vector<bool> delivered_products;
  std::uint64_t tx_seq_base = 0;    ///< injector counters carried across
  std::uint64_t conn_seq_base = 0;  ///< reconnects (see FrameConn ctor)
  std::uint64_t worker_frames_sent = 0;  ///< worker-reported, via Pong
  std::uint64_t worker_frames_dropped = 0;
  obs::Histogram* rtt_hist = nullptr;  ///< cluster.worker.<id>.rtt_us
};

class ProcessCoordinator {
 public:
  ProcessCoordinator(std::span<const BigInt> moduli,
                     const ClusterConfig& config)
      : config_(config),
        moduli_(moduli),
        fleet_(config.telemetry ? &config.telemetry->metrics() : nullptr,
               /*trace_enabled=*/!config.fleet_trace_path.empty()) {
    if (config_.telemetry) {
      auto& m = config_.telemetry->metrics();
      m_workers_alive_ = &m.gauge("cluster.workers_alive");
      m_respawns_ = &m.counter("cluster.respawns");
      m_workers_lost_ = &m.counter("cluster.workers_lost");
      m_tasks_executed_ = &m.counter("cluster.tasks_executed");
      m_tasks_resumed_ = &m.counter("cluster.tasks_resumed");
      m_tasks_reassigned_ = &m.counter("cluster.tasks_reassigned");
      m_task_timeouts_ = &m.counter("cluster.task_timeouts");
      m_quarantined_ = &m.counter("cluster.results_quarantined");
      m_attempts_ = &m.counter("cluster.attempts");
      m_retries_ = &m.counter("cluster.retries");
      m_frames_sent_ = &m.counter("cluster.frames_sent");
      m_frames_dropped_ = &m.counter("cluster.frames_dropped");
      m_frames_corrupt_ = &m.counter("cluster.frames_corrupt");
      m_reconnects_ = &m.counter("cluster.reconnects");
      m_sessions_expired_ = &m.counter("cluster.sessions_expired");
      m_duplicate_results_ = &m.counter("cluster.duplicate_results");
      m_stream_chunks_ = &m.counter("cluster.stream_chunks");
      m_stream_resumes_ = &m.counter("cluster.stream_resumes");
      m_rtt_us_ = &m.histogram("cluster.heartbeat_rtt_us");
    }
    k_ = std::clamp<std::size_t>(config.subsets, 1,
                                 std::max<std::size_t>(moduli.size(), 1));
    total_ = k_ * k_;
    remote_n_ = config.remote_workers;
    workers_n_ = remote_n_ > 0 ? config.workers
                               : std::max<std::size_t>(config.workers, 1);
    chunk_bytes_ = std::clamp<std::size_t>(config.stream_chunk_bytes, 1,
                                           kMaxFrameBytes / 2);
    window_chunks_ = std::max<std::size_t>(config.stream_window_chunks, 1);

    subsets_.resize(k_);
    const std::size_t base = moduli.size() / k_;
    const std::size_t extra = moduli.size() % k_;
    std::size_t offset = 0;
    for (std::size_t a = 0; a < k_; ++a) {
      const std::size_t len = base + (a < extra ? 1 : 0);
      subsets_[a].offset = offset;
      subsets_[a].moduli = moduli.subspan(offset, len);
      offset += len;
    }
    partial_.resize(k_);
    for (std::size_t a = 0; a < k_; ++a) {
      partial_[a].assign(subsets_[a].moduli.size(), BigInt(1));
    }
    enc_subset_.resize(k_);
    enc_subset_crc_.assign(k_, 0);
    enc_product_.resize(k_);
    enc_product_crc_.assign(k_, 0);
  }

  ~ProcessCoordinator() { cleanup(); }

  batchgcd::BatchGcdResult run(ClusterStats* stats) {
    batchgcd::BatchGcdResult result;
    result.divisors.assign(moduli_.size(), BigInt(1));
    if (moduli_.empty()) {
      if (stats) *stats = stats_;
      return result;
    }
    stats_.subsets = k_;
    stats_.tasks = total_;
    stats_.workers = workers_n_ + remote_n_;
    if (config_.telemetry) {
      auto& m = config_.telemetry->metrics();
      m.counter("cluster.tasks").set(total_);
      m.counter("cluster.subsets").set(k_);
      m.counter("cluster.workers").set(workers_n_ + remote_n_);
    }

    tstate_.assign(total_, TaskState::kQueued);
    fingerprint_ = batchgcd::corpus_fingerprint(moduli_, k_);
    if (!config_.checkpoint_path.empty()) open_journal();

    for (std::size_t t = 0; t < total_; ++t) {
      if (tstate_[t] != TaskState::kDone) {
        pending_.push_back({t, 0, Clock::now(), kNoWorker});
      }
    }
    if (committed_ > 0) {
      log("checkpoint: resumed " + std::to_string(committed_) + "/" +
          std::to_string(total_) + " tasks from " + config_.checkpoint_path);
    }

    if (config_.cancel && config_.cancel->cancelled()) cancelled_ = true;
    if (!pending_.empty() && !cancelled_) {
      compute_products();
      if (!cancelled_) supervise();
    }

    cleanup();
    if (stats) *stats = stats_;
    if (fatal_) std::rethrow_exception(fatal_);
    if (cancelled_) {
      journal_.close();
      throw util::Cancelled(config_.cancel ? config_.cancel->reason()
                                           : "cluster");
    }
    if (halted_) {
      journal_.close();
      throw batchgcd::CoordinatorInterrupted(
          "cluster halted after " + std::to_string(stats_.tasks_executed) +
          " tasks (checkpoint retained)");
    }

    for (std::size_t a = 0; a < k_; ++a) {
      for (std::size_t i = 0; i < subsets_[a].moduli.size(); ++i) {
        result.divisors[subsets_[a].offset + i] =
            bn::gcd(subsets_[a].moduli[i], partial_[a][i]);
      }
    }
    journal_.close();
    if (!config_.checkpoint_path.empty() &&
        config_.remove_checkpoint_on_success) {
      std::remove(config_.checkpoint_path.c_str());
    }
    if (stats) *stats = stats_;
    return result;
  }

 private:
  struct Subset {
    std::size_t offset = 0;
    std::span<const BigInt> moduli;
  };

  void log(const std::string& message) const {
    if (config_.log) config_.log(message);
  }

  [[nodiscard]] bool sessions_enabled() const {
    return config_.session_grace.count() > 0;
  }

  // -- setup ---------------------------------------------------------------

  void open_journal() {
    journal_.open(
        config_.checkpoint_path, fingerprint_,
        static_cast<std::uint32_t>(total_),
        [this](std::uint32_t task, std::vector<TaskClaim>&& claims) {
          if (task >= total_ || tstate_[task] == TaskState::kDone)
            return false;
          const std::size_t a = task % k_;
          if (!verify(a, claims)) return false;
          for (const auto& claim : claims) {
            partial_[a][claim.leaf] = partial_[a][claim.leaf] * claim.divisor;
          }
          tstate_[task] = TaskState::kDone;
          ++committed_;
          ++stats_.tasks_resumed;
          if (m_tasks_resumed_) m_tasks_resumed_->inc();
          return true;
        });
  }

  /// Builds each subset's product tree just for its root — workers grow
  /// their own leaf trees, the coordinator only ships products around.
  void compute_products() {
    products_.assign(k_, BigInt(1));
    try {
      const std::size_t nthreads = std::min<std::size_t>(
          std::max<std::size_t>(workers_n_ + remote_n_, 2), k_);
      if (nthreads <= 1) {
        for (std::size_t b = 0; b < k_; ++b) {
          if (config_.cancel) config_.cancel->throw_if_cancelled();
          products_[b] = batchgcd::ProductTree(subsets_[b].moduli).root();
        }
      } else {
        util::ThreadPool pool(nthreads, config_.telemetry);
        pool.parallel_for(
            k_,
            [this](std::size_t b) {
              products_[b] = batchgcd::ProductTree(subsets_[b].moduli).root();
            },
            config_.cancel);
      }
    } catch (const util::Cancelled&) {
      cancelled_ = true;
    }
  }

  // -- process management --------------------------------------------------

  void start_listener() {
    int bound = 0;
    listen_fd_.reset(util::net::listen_tcp(
        config_.bind_address, config_.port,
        static_cast<int>(std::max<std::size_t>(workers_n_ + remote_n_, 4)),
        &bound));
    if (!listen_fd_.valid()) {
      throw ClusterError("cluster: cannot listen on " + config_.bind_address +
                         ":" + std::to_string(config_.port) + ": " +
                         std::strerror(errno));
    }
    bound_port_ = static_cast<std::uint16_t>(bound);
  }

  /// Clears everything a fresh worker incarnation must not inherit. Caller
  /// holds mu_.
  void reset_session(Slot& slot) {
    slot.session_id = 0;
    slot.rx_result_seq = 0;
    slot.rx_telemetry_seq = 0;
    slot.transfers.clear();
    slot.delivered_subsets.assign(k_, false);
    slot.delivered_products.assign(k_, false);
    slot.tx_seq_base = 0;
    slot.conn_seq_base = 0;
    slot.worker_frames_sent = 0;
    slot.worker_frames_dropped = 0;
  }

  /// fork/execs one worker into `slot`. Caller holds mu_.
  void spawn(Slot& slot) {
    std::vector<std::string> args;
    args.push_back(config_.worker_binary);
    args.push_back("--port");
    args.push_back(std::to_string(bound_port_));
    args.push_back("--worker-id");
    args.push_back(std::to_string(slot.id));
    if (sessions_enabled()) {
      args.push_back("--session-reconnect");
      args.push_back("--reconnect-window-ms");
      args.push_back(std::to_string(config_.session_grace.count()));
    }
    if (config_.telemetry_interval.count() > 0) {
      args.push_back("--telemetry-interval-ms");
      args.push_back(std::to_string(config_.telemetry_interval.count()));
    } else {
      args.push_back("--no-telemetry");
    }
    if (config_.injector) {
      const util::FaultConfig& f = config_.injector->config();
      args.push_back("--seed");
      args.push_back(std::to_string(f.seed));
      if (config_.worker_frame_faults && f.any_frame_faults()) {
        args.push_back("--frame-drop");
        args.push_back(std::to_string(f.frame_drop_probability));
        args.push_back("--frame-garble");
        args.push_back(std::to_string(f.frame_garble_probability));
        args.push_back("--frame-delay");
        args.push_back(std::to_string(f.frame_delay_probability));
        args.push_back("--frame-delay-ms");
        args.push_back(std::to_string(f.frame_delay_ms));
      }
      if (config_.worker_frame_faults && f.any_conn_faults()) {
        args.push_back("--conn-disconnect");
        args.push_back(std::to_string(f.conn_disconnect_probability));
        args.push_back("--conn-partition");
        args.push_back(std::to_string(f.conn_partition_probability));
        args.push_back("--conn-half-open");
        args.push_back(std::to_string(f.conn_half_open_probability));
        args.push_back("--conn-drip");
        args.push_back(std::to_string(f.conn_slow_drip_probability));
        args.push_back("--conn-partition-ms");
        args.push_back(std::to_string(f.conn_partition_ms));
        args.push_back("--conn-drip-ms");
        args.push_back(std::to_string(f.conn_drip_delay_ms));
      }
      // Thread-tier faults run worker-side in the cluster: a kCrash is a
      // real _exit mid-task, a kCorruptResult a real bad divisor on the
      // wire, a kStraggle a real deadline miss (slept past task_timeout).
      if (f.crash_probability > 0) {
        args.push_back("--fault-crash");
        args.push_back(std::to_string(f.crash_probability));
      }
      if (f.straggle_probability > 0) {
        args.push_back("--fault-straggle");
        args.push_back(std::to_string(f.straggle_probability));
        args.push_back("--straggle-ms");
        args.push_back(std::to_string(config_.task_timeout.count() * 3 / 2));
      }
      if (f.corrupt_probability > 0) {
        args.push_back("--fault-corrupt");
        args.push_back(std::to_string(f.corrupt_probability));
      }
    }
    // Last so they can override anything the coordinator generated.
    for (const std::string& extra : config_.worker_extra_args) {
      args.push_back(extra);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      throw ClusterError(std::string("cluster: fork failed: ") +
                         std::strerror(errno));
    }
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      // exec failed: exit without running any parent-process atexit state.
      std::fprintf(stderr, "gcd_worker exec failed: %s: %s\n", argv[0],
                   std::strerror(errno));
      ::_exit(127);
    }
    slot.pid = pid;
    arm(slot);
  }

  /// Readies a dial-in slot for a (new) remote worker: same lifecycle as a
  /// fork, minus the fork. The worker must Hello within spawn_timeout.
  void arm_remote(Slot& slot) {
    slot.pid = -1;
    arm(slot);
  }

  void arm(Slot& slot) {
    slot.state = SlotState::kSpawning;
    ++slot.epoch;
    slot.spawn_at = Clock::now();
    slot.last_pong = slot.spawn_at;
    slot.last_ping = slot.spawn_at;
    slot.busy = false;
    slot.strikes = 0;
    reset_session(slot);
    ++stats_.workers_spawned;
  }

  /// Accepts any queued connections and completes their handshake. Runs
  /// without mu_ (locks only to attach); a worker that connects but stalls
  /// before Hello costs a bounded wait and is cleaned up by spawn_timeout.
  void accept_pending() {
    while (util::net::wait_readable(listen_fd_.get(),
                                    std::chrono::milliseconds(0))) {
      util::net::UniqueFd fd(util::net::accept_cloexec(listen_fd_.get()));
      if (!fd.valid()) return;
      const timeval send_timeout{5, 0};
      ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                   sizeof(send_timeout));
      handshake(std::move(fd));
    }
  }

  void handshake(util::net::UniqueFd fd) {
    FrameConn probe(fd.get(), 0, nullptr);
    Frame frame;
    const auto deadline = Clock::now() + std::chrono::milliseconds(250);
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return;
      const RecvStatus status = probe.recv(&frame, left);
      if (status == RecvStatus::kCorrupt) continue;
      if (status != RecvStatus::kOk) return;
      break;
    }
    // Any dialect in [kMinProtocolVersion, kProtocolVersion] is served —
    // the coordinator speaks each worker's negotiated version per link.
    if (frame.type == MsgType::kHello) {
      const auto hello = HelloMsg::decode(frame.body);
      if (hello && hello->version >= kMinProtocolVersion &&
          hello->version <= kProtocolVersion) {
        attach_fresh(*hello, std::move(fd));
      }
      return;
    }
    if (frame.type == MsgType::kReconnectHello) {
      const auto msg = ReconnectHelloMsg::decode(frame.body);
      if (msg && msg->version >= kMinProtocolVersion &&
          msg->version <= kProtocolVersion) {
        reattach(*msg, std::move(fd), probe);
      }
      return;
    }
  }

  [[nodiscard]] const util::FaultInjector* link_injector() const {
    if (!config_.injector) return nullptr;
    const util::FaultConfig& f = config_.injector->config();
    return f.any_frame_faults() || f.any_conn_faults() ? config_.injector
                                                       : nullptr;
  }

  void attach_fresh(const HelloMsg& hello, util::net::UniqueFd fd) {
    std::lock_guard guard(mu_);
    if (hello.worker_id >= slots_.size()) return;
    Slot& slot = slots_[hello.worker_id];
    if (slot.state != SlotState::kSpawning) return;
    if (!slot.is_remote && slot.pid != static_cast<pid_t>(hello.pid)) {
      return;  // stale or impostor connection; UniqueFd closes it
    }
    if (slot.is_remote) slot.pid = static_cast<pid_t>(hello.pid);
    slot.version = hello.version;
    fleet_.on_worker_fresh(slot.id);
    slot.fd = std::move(fd);
    slot.conn = std::make_unique<FrameConn>(slot.fd.get(), 2ull * slot.id,
                                            link_injector());
    slot.session_id = next_session_id_++;
    HelloAckMsg ack;
    ack.fingerprint = fingerprint_;
    ack.heartbeat_interval_ms =
        static_cast<std::uint32_t>(config_.heartbeat_interval.count());
    ack.session_id = slot.session_id;
    if (!slot.conn->send(MsgType::kHelloAck, ack.encode())) {
      slot.conn.reset();
      slot.fd.reset();
      return;
    }
    slot.state = SlotState::kLive;
    slot.last_pong = Clock::now();
    // First heartbeat on the next tick, ahead of the first task: every
    // session gets an RTT sample and a clock-offset estimate, however short
    // the run.
    slot.last_ping = slot.last_pong - config_.heartbeat_interval;
    refresh_alive_gauge();
    ++slot.epoch;
    slot.rx = std::thread([this, id = slot.id, epoch = slot.epoch] {
      rx_loop(id, epoch);
    });
    log("cluster: worker " + std::to_string(slot.id) + " up (pid " +
        std::to_string(slot.pid) + ", session " +
        std::to_string(slot.session_id) + ")");
  }

  /// A worker dialed back after link loss offering its session. Validate,
  /// retire whatever link is still attached, splice the new one in (injector
  /// counters carried over so the fault schedule continues instead of
  /// replaying), tell the worker our result high-water mark, and resume the
  /// in-flight transfer from its acked prefix.
  void reattach(const ReconnectHelloMsg& msg, util::net::UniqueFd fd,
                FrameConn& probe) {
    const auto reject = [&probe] {
      ReconnectAckMsg nack;
      nack.accepted = 0;
      probe.send(MsgType::kReconnectAck, nack.encode());
    };
    std::unique_lock lock(mu_);
    if (!sessions_enabled() || stop_ || msg.worker_id >= slots_.size()) {
      reject();
      return;
    }
    Slot& slot = slots_[msg.worker_id];
    if (slot.session_id == 0 || slot.session_id != msg.session_id ||
        (slot.state != SlotState::kLive &&
         slot.state != SlotState::kDisconnected) ||
        (!slot.is_remote && slot.pid != static_cast<pid_t>(msg.pid))) {
      reject();
      return;
    }
    // The old link may still be attached: not yet torn down by
    // tick_disconnected, or half-open (the worker noticed before we did).
    detach_link(slot, lock);
    if (slot.state != SlotState::kLive &&
        slot.state != SlotState::kDisconnected) {
      reject();  // demoted while we joined the old RX thread
      return;
    }
    slot.fd = std::move(fd);
    slot.conn = std::make_unique<FrameConn>(slot.fd.get(), 2ull * slot.id,
                                            link_injector(),
                                            slot.tx_seq_base,
                                            slot.conn_seq_base);
    ReconnectAckMsg ack;
    ack.accepted = 1;
    ack.ack_result_seq = slot.rx_result_seq;
    ack.heartbeat_interval_ms =
        static_cast<std::uint32_t>(config_.heartbeat_interval.count());
    if (!slot.conn->send(MsgType::kReconnectAck, ack.encode())) {
      slot.conn.reset();
      slot.fd.reset();
      slot.state = SlotState::kDisconnected;
      return;  // still within grace; maybe the next dial works
    }
    const auto now = Clock::now();
    slot.state = SlotState::kLive;
    slot.last_pong = now;
    slot.last_ping = now;
    if (!slot.transfers.empty()) {
      Transfer& t = slot.transfers.front();
      if (t.begin_sent && t.sent_off > t.acked) {
        ++stats_.stream_resumes;
        if (m_stream_resumes_) m_stream_resumes_->inc();
      }
      t.sent_off = t.acked;
      t.begin_sent = false;
      t.last_progress = now;
    }
    ++stats_.reconnects;
    if (m_reconnects_) m_reconnects_->inc();
    refresh_alive_gauge();
    ++slot.epoch;
    slot.rx = std::thread([this, id = slot.id, epoch = slot.epoch] {
      rx_loop(id, epoch);
    });
    log("cluster: worker " + std::to_string(slot.id) + " reconnected (session " +
        std::to_string(slot.session_id) + ", replaying past seq " +
        std::to_string(slot.rx_result_seq) + ")");
    pump_streams(slot);
    cv_.notify_all();
  }

  /// Declares the slot's link dead while holding mu_. With sessions enabled
  /// the slot parks in kDisconnected (session kept, grace clock started and
  /// the socket shut down so both the RX thread and a half-open peer see
  /// EOF); otherwise PR 6 semantics: the worker is lost.
  void link_lost(Slot& slot, const char* why) {
    if (slot.state != SlotState::kLive) return;
    if (sessions_enabled() && !stop_) {
      slot.state = SlotState::kDisconnected;
      slot.disconnected_at = Clock::now();
      if (slot.fd.valid()) ::shutdown(slot.fd.get(), SHUT_RDWR);
      log("cluster: worker " + std::to_string(slot.id) + " link lost (" +
          std::string(why) + "); holding session " +
          std::to_string(slot.session_id) + " for " +
          std::to_string(config_.session_grace.count()) + "ms");
    } else {
      slot.state = SlotState::kLost;
    }
    refresh_alive_gauge();
    cv_.notify_all();
  }

  /// Retires the slot's link without touching the session: bumps the epoch
  /// so the RX thread exits, joins it (dropping mu_ briefly), banks the
  /// injector counters for the next link, and folds transport stats. Safe
  /// across the unlock: only the supervisor thread detaches links, and the
  /// exiting RX thread touches the slot only under mu_ before the join
  /// completes.
  void detach_link(Slot& slot, std::unique_lock<std::mutex>& lock) {
    if (!slot.conn && !slot.rx.joinable()) return;
    ++slot.epoch;
    if (slot.fd.valid()) ::shutdown(slot.fd.get(), SHUT_RDWR);
    std::thread rx = std::move(slot.rx);
    lock.unlock();
    if (rx.joinable()) rx.join();
    lock.lock();
    if (slot.conn) {
      slot.tx_seq_base = slot.conn->tx_seq();
      slot.conn_seq_base = slot.conn->conn_seq();
      fold_link_stats(slot);
    }
    slot.conn.reset();
    slot.fd.reset();
  }

  // -- RX path (one thread per live connection) ----------------------------

  void rx_loop(std::uint32_t id, std::uint64_t epoch) {
    FrameConn* conn = nullptr;
    {
      std::lock_guard guard(mu_);
      Slot& slot = slots_[id];
      if (slot.epoch != epoch || !slot.conn) return;
      conn = slot.conn.get();
    }
    for (;;) {
      {
        std::lock_guard guard(mu_);
        Slot& slot = slots_[id];
        if (stop_ || slot.epoch != epoch || slot.state != SlotState::kLive) {
          return;
        }
      }
      Frame frame;
      switch (conn->recv(&frame, std::chrono::milliseconds(100))) {
        case RecvStatus::kTimeout:
          continue;
        case RecvStatus::kCorrupt: {
          std::lock_guard guard(mu_);
          ++stats_.frames_corrupt;
          if (m_frames_corrupt_) m_frames_corrupt_->inc();
          continue;
        }
        case RecvStatus::kClosed: {
          std::lock_guard guard(mu_);
          Slot& slot = slots_[id];
          if (slot.epoch == epoch) link_lost(slot, "connection closed");
          return;
        }
        case RecvStatus::kOk:
          break;
      }
      std::lock_guard guard(mu_);
      Slot& slot = slots_[id];
      if (slot.epoch != epoch || slot.state != SlotState::kLive) return;
      switch (frame.type) {
        case MsgType::kPong:
          if (const auto pong = PongMsg::decode(frame.body)) {
            on_pong(slot, *pong);
          }
          break;
        case MsgType::kTaskResult:
          if (auto result = TaskResultMsg::decode(frame.body)) {
            on_result(slot, std::move(*result));
          }
          break;
        case MsgType::kStreamAck:
          if (const auto ack = StreamAckMsg::decode(frame.body)) {
            on_stream_ack(slot, *ack);
          }
          break;
        case MsgType::kTelemetrySnapshot:
          if (auto snap = TelemetrySnapshotMsg::decode(frame.body)) {
            on_telemetry(slot, *snap);
          }
          break;
        default:
          break;
      }
    }
  }

  void on_pong(Slot& slot, const PongMsg& pong) {
    slot.last_pong = Clock::now();
    slot.worker_frames_sent = pong.frames_sent;
    slot.worker_frames_dropped = pong.frames_dropped;
    const std::int64_t recv_ns = now_ns();
    // v3 Pongs echo the worker's steady clock: one midpoint-method offset
    // observation per heartbeat (worker_now_ns stays 0 on v2 links and is
    // ignored). The Pong always precedes the worker's TelemetrySnapshot on
    // the same link, so span rebasing never runs without an estimate.
    fleet_.observe_clock(slot.id, pong.t_send_ns, recv_ns, pong.worker_now_ns);
    const std::int64_t rtt_ns = recv_ns - pong.t_send_ns;
    if (rtt_ns >= 0) {
      const auto rtt_us = static_cast<std::uint64_t>(rtt_ns / 1000);
      stats_.max_heartbeat_rtt_us =
          std::max(stats_.max_heartbeat_rtt_us, rtt_us);
      if (m_rtt_us_) m_rtt_us_->record(rtt_us);
      if (slot.rtt_hist) slot.rtt_hist->record(rtt_us);
    }
  }

  /// One worker telemetry export under mu_: dedup outbox replays by
  /// sequence, then hand the decoded snapshot to the fleet aggregator
  /// (clock-rebased span merge + fleet.* metric fan-out).
  void on_telemetry(Slot& slot, const TelemetrySnapshotMsg& msg) {
    if (msg.seq <= slot.rx_telemetry_seq) {
      ++stats_.telemetry_replays;
      return;  // replayed export; everything in it was ingested already
    }
    slot.rx_telemetry_seq = msg.seq;
    obs::FleetSnapshot snap;
    snap.worker_id = slot.id;
    snap.seq = msg.seq;
    snap.first_span_index = msg.first_span_index;
    snap.trace_epoch_ns = msg.trace_epoch_ns;
    snap.rss_kb = msg.rss_kb;
    snap.peak_rss_kb = msg.peak_rss_kb;
    snap.cpu_user_us = msg.cpu_user_us;
    snap.cpu_sys_us = msg.cpu_sys_us;
    snap.counters = msg.counters;
    snap.gauges = msg.gauges;
    snap.spans.reserve(msg.spans.size());
    for (const TelemetrySpan& s : msg.spans) {
      obs::TraceEvent ev;
      ev.name = s.name;
      ev.tid = 0;  // worker spans all live on the compute thread's lane
      ev.ts_us = s.ts_us;
      ev.dur_us = s.dur_us;
      ev.depth = s.depth;
      ev.args = s.args;
      snap.spans.push_back(std::move(ev));
    }
    ++stats_.telemetry_snapshots;
    stats_.telemetry_spans += fleet_.ingest(snap);
  }

  /// Handles one TaskResult under mu_: drop session replays we already
  /// processed, then re-verify and commit or quarantine. Late results for
  /// reassigned/finished tasks are welcome when valid and fresh (folding is
  /// commutative) and counted as duplicates when the task already committed
  /// — the journal therefore records every task exactly once.
  void on_result(Slot& slot, TaskResultMsg&& result) {
    if (result.result_seq != 0) {
      if (result.result_seq <= slot.rx_result_seq) {
        // Replay of a frame this session already delivered (the worker's
        // outbox is pruned by acks, but an ack can cross a replay in
        // flight). Everything it carried was handled the first time.
        ++stats_.results_replayed;
        return;
      }
      slot.rx_result_seq = result.result_seq;
    }
    const std::size_t task = result.task;
    const bool was_current = slot.busy && slot.current.task == task;
    std::size_t attempt = 0;
    std::uint64_t assign_span = 0;
    if (was_current) {
      attempt = slot.current.attempt;
      slot.busy = false;  // the slot is schedulable again either way
      assign_span = slot.assign_span;
      slot.assign_span = 0;
    }
    const auto close_span = [&](bool committed) {
      fleet_.end_assign(assign_span, now_ns(), committed);
    };
    if (task >= total_) {
      close_span(false);
      return;
    }
    if (tstate_[task] == TaskState::kDone) {
      close_span(true);  // this attempt's work is done, just redundantly
      ++stats_.duplicate_results;
      if (m_duplicate_results_) m_duplicate_results_->inc();
      cv_.notify_all();
      return;  // duplicate of an already committed task
    }

    const std::size_t a = task % k_;
    if (verify(a, result.claims)) {
      close_span(true);
      // Commit even when this slot was already timed out for the task —
      // the result is verified, and any later duplicate lands in the
      // kDone branch above.
      drop_from_pending(task);
      commit(task, result.claims);
    } else {
      close_span(false);
      // Quarantine: the claims never touch the accumulators or the
      // journal. The sender earns a strike; at the limit it is demoted.
      ++stats_.results_quarantined;
      if (m_quarantined_) m_quarantined_->inc();
      ++slot.strikes;
      log("cluster: worker " + std::to_string(slot.id) +
          " returned a corrupt result for task " + std::to_string(task) +
          " (strike " + std::to_string(slot.strikes) + ")");
      if (slot.strikes >= config_.quarantine_strikes &&
          slot.state == SlotState::kLive) {
        ++stats_.workers_demoted;
        slot.state = SlotState::kLost;  // supervisor kills + respawns
      }
      if (was_current) {
        requeue(task, attempt + 1, slot.id);
      }
    }
    cv_.notify_all();
  }

  // -- chunked payload streaming (mu_ held) --------------------------------

  [[nodiscard]] std::shared_ptr<const std::vector<std::uint8_t>>
  encoded_payload(StreamKind kind, std::size_t idx, std::uint32_t* crc) {
    auto& cache = kind == StreamKind::kSubset ? enc_subset_ : enc_product_;
    auto& crcs =
        kind == StreamKind::kSubset ? enc_subset_crc_ : enc_product_crc_;
    if (!cache[idx]) {
      std::vector<std::uint8_t> bytes;
      if (kind == StreamKind::kSubset) {
        SubsetDataMsg msg;
        msg.subset = static_cast<std::uint32_t>(idx);
        msg.moduli.assign(subsets_[idx].moduli.begin(),
                          subsets_[idx].moduli.end());
        bytes = msg.encode();
      } else {
        ProductDataMsg msg;
        msg.subset = static_cast<std::uint32_t>(idx);
        msg.product = products_[idx];
        bytes = msg.encode();
      }
      crcs[idx] = core::crc32(bytes);
      cache[idx] =
          std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
    }
    *crc = crcs[idx];
    return cache[idx];
  }

  /// Queues a transfer for (kind, idx) unless delivered or already queued.
  void ensure_transfer(Slot& slot, StreamKind kind, std::size_t idx) {
    const bool delivered = kind == StreamKind::kSubset
                               ? slot.delivered_subsets[idx]
                               : slot.delivered_products[idx];
    if (delivered) return;
    for (const Transfer& t : slot.transfers) {
      if (t.kind == kind && t.subset == idx) return;
    }
    Transfer t;
    t.stream_id = next_stream_id_++;
    t.kind = kind;
    t.subset = static_cast<std::uint32_t>(idx);
    t.payload = encoded_payload(kind, idx, &t.crc);
    t.last_progress = Clock::now();
    slot.transfers.push_back(std::move(t));
  }

  /// Drives the slot's head transfer: (re)announce with StreamBegin, then
  /// send chunks up to the backpressure window beyond the acked prefix.
  /// Chunks are injectable — a dropped chunk stalls the prefix and the
  /// retransmit timer rewinds to it (go-back-N).
  void pump_streams(Slot& slot) {
    if (slot.state != SlotState::kLive || !slot.conn ||
        slot.transfers.empty()) {
      return;
    }
    Transfer& t = slot.transfers.front();
    const std::uint64_t total = t.payload->size();
    if (!t.begin_sent) {
      StreamBeginMsg begin;
      begin.stream_id = t.stream_id;
      begin.kind = static_cast<std::uint8_t>(t.kind);
      begin.subset = t.subset;
      begin.total_bytes = total;
      begin.payload_crc = t.crc;
      if (!slot.conn->send(MsgType::kStreamBegin, begin.encode(),
                           /*injectable=*/true)) {
        link_lost(slot, "stream send failed");
        return;
      }
      t.begin_sent = true;
      t.last_progress = Clock::now();
    }
    const std::uint64_t window =
        static_cast<std::uint64_t>(chunk_bytes_) * window_chunks_;
    bool sent_any = false;
    while (t.sent_off < total && t.sent_off - t.acked < window) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(chunk_bytes_, total - t.sent_off));
      StreamChunkMsg chunk;
      chunk.stream_id = t.stream_id;
      chunk.offset = t.sent_off;
      const auto* base = t.payload->data() + t.sent_off;
      chunk.data.assign(base, base + n);
      if (!slot.conn->send(MsgType::kStreamChunk, chunk.encode(),
                           /*injectable=*/true)) {
        link_lost(slot, "stream send failed");
        return;
      }
      t.sent_off += n;
      ++stats_.stream_chunks_sent;
      if (m_stream_chunks_) m_stream_chunks_->inc();
      sent_any = true;
    }
    if (sent_any) t.last_progress = Clock::now();
  }

  void on_stream_ack(Slot& slot, const StreamAckMsg& ack) {
    if (slot.transfers.empty()) return;
    Transfer& t = slot.transfers.front();
    if (t.stream_id != ack.stream_id) return;
    const std::uint64_t total = t.payload->size();
    if (ack.received > total || ack.received <= t.acked) return;
    t.acked = ack.received;
    t.last_progress = Clock::now();
    if (t.acked == total) {
      if (t.kind == StreamKind::kSubset) {
        slot.delivered_subsets[t.subset] = true;
      } else {
        slot.delivered_products[t.subset] = true;
      }
      slot.transfers.pop_front();
      cv_.notify_all();  // a blocked assignment may now be satisfiable
    }
    pump_streams(slot);  // window slid, or the next transfer's Begin
  }

  /// Go-back-N retransmit: a head transfer with no ack progress for
  /// stream_retransmit rewinds to the acked prefix and resends — recovery
  /// for injected chunk/ack drops without any per-chunk bookkeeping.
  void tick_streams() {
    const auto now = Clock::now();
    for (Slot& slot : slots_) {
      if (slot.state != SlotState::kLive || slot.transfers.empty()) continue;
      Transfer& t = slot.transfers.front();
      if (now - t.last_progress > config_.stream_retransmit) {
        if (t.begin_sent && t.sent_off > t.acked) {
          ++stats_.stream_resumes;
          if (m_stream_resumes_) m_stream_resumes_->inc();
        }
        t.sent_off = t.acked;
        t.begin_sent = false;
        t.last_progress = now;
      }
      pump_streams(slot);
    }
  }

  // -- task bookkeeping (mu_ held) -----------------------------------------

  [[nodiscard]] bool verify(std::size_t a,
                            const std::vector<TaskClaim>& claims) const {
    const BigInt one(1);
    for (const auto& claim : claims) {
      if (claim.leaf >= subsets_[a].moduli.size()) return false;
      const BigInt& n = subsets_[a].moduli[claim.leaf];
      if (!(claim.divisor > one) || claim.divisor > n) return false;
      if (!(n % claim.divisor == BigInt(0))) return false;
    }
    return true;
  }

  void commit(std::size_t task, const std::vector<TaskClaim>& claims) {
    const std::size_t a = task % k_;
    for (const auto& claim : claims) {
      partial_[a][claim.leaf] = partial_[a][claim.leaf] * claim.divisor;
    }
    journal_.append(static_cast<std::uint32_t>(task), claims);
    tstate_[task] = TaskState::kDone;
    ++committed_;
    ++stats_.tasks_executed;
    if (m_tasks_executed_) m_tasks_executed_->inc();
    if (config_.halt_after_tasks != 0 &&
        stats_.tasks_executed >= config_.halt_after_tasks &&
        committed_ < total_) {
      halted_ = true;
    }
  }

  void drop_from_pending(std::size_t task) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->task == task) {
        pending_.erase(it);
        return;
      }
    }
  }

  [[nodiscard]] bool is_queued_or_assigned(std::size_t task) const {
    if (tstate_[task] == TaskState::kAssigned) {
      for (const Slot& slot : slots_) {
        if (slot.busy && slot.current.task == task) return true;
      }
    }
    for (const Pending& p : pending_) {
      if (p.task == task) return true;
    }
    return false;
  }

  /// Requeues `task` for its next attempt, or records the fatal retry
  /// exhaustion. No-op when the task is done or already queued/assigned
  /// elsewhere.
  void requeue(std::size_t task, std::size_t next_attempt,
               std::uint32_t banned_worker) {
    if (tstate_[task] == TaskState::kDone) return;
    tstate_[task] = TaskState::kQueued;
    if (is_queued_or_assigned(task)) return;
    if (config_.retry.exhausted(next_attempt)) {
      if (!fatal_) {
        fatal_ = std::make_exception_ptr(ClusterError(
            "cluster: task " + std::to_string(task) + " failed after " +
            std::to_string(next_attempt) + " attempts"));
      }
      cv_.notify_all();
      return;
    }
    pending_.push_back(
        {task, next_attempt,
         Clock::now() +
             config_.retry.jittered_delay(task, next_attempt - 1),
         slots_.size() > 1 ? banned_worker : kNoWorker});
  }

  // -- supervisor ----------------------------------------------------------

  void supervise() {
    start_listener();
    if (config_.on_listen) config_.on_listen(bound_port_);
    {
      std::lock_guard guard(mu_);
      slots_.resize(workers_n_ + remote_n_);
      for (std::size_t w = 0; w < slots_.size(); ++w) {
        Slot& slot = slots_[w];
        slot.id = static_cast<std::uint32_t>(w);
        if (config_.telemetry) {
          slot.rtt_hist = &config_.telemetry->metrics().histogram(
              "cluster.worker." + std::to_string(w) + ".rtt_us");
        }
        if (w < workers_n_) {
          spawn(slot);
        } else {
          slot.is_remote = true;
          arm_remote(slot);
        }
      }
    }

    for (;;) {
      accept_pending();
      std::unique_lock lock(mu_);
      if (config_.cancel && config_.cancel->cancelled()) cancelled_ = true;
      if (fatal_ || cancelled_ || halted_) return;
      if (committed_ == total_) return;

      tick_liveness();
      tick_disconnected(lock);  // may drop the lock to join an RX thread
      tick_lost(lock);          // may drop the lock to join an RX thread
      if (fatal_) return;
      tick_timeouts();
      tick_streams();
      tick_assign();
      tick_frame_metrics();

      if (!any_active_slots() && committed_ < total_) {
        fatal_ = std::make_exception_ptr(
            ClusterError("cluster: all workers lost (restart budget " +
                         std::to_string(config_.restart_budget) +
                         " exhausted) with " +
                         std::to_string(total_ - committed_) +
                         " tasks pending"));
        return;
      }
      cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
  }

  [[nodiscard]] bool any_active_slots() const {
    for (const Slot& slot : slots_) {
      if (slot.state != SlotState::kRetired) return true;
    }
    return false;
  }

  /// Heartbeats: ping live workers on the configured cadence and declare
  /// dead any that have not ponged within the miss budget. SIGSTOPped
  /// workers are caught exactly here — their socket is open but silent. So
  /// are half-open links: the socket looks fine to write, nothing ever
  /// arrives. Pings carry the session's result high-water mark so the
  /// worker can prune its replay outbox.
  void tick_liveness() {
    const auto now = Clock::now();
    const auto dead_after = config_.heartbeat_interval *
                            static_cast<int>(config_.heartbeat_misses);
    for (Slot& slot : slots_) {
      if (slot.state == SlotState::kSpawning &&
          now - slot.spawn_at > config_.spawn_timeout) {
        log("cluster: worker " + std::to_string(slot.id) +
            " failed to connect within spawn timeout");
        slot.state = SlotState::kLost;
        continue;
      }
      if (slot.state != SlotState::kLive) continue;
      if (now - slot.last_pong > dead_after) {
        ++stats_.heartbeat_deaths;
        link_lost(slot, "missed heartbeats");
        continue;
      }
      if (now - slot.last_ping >= config_.heartbeat_interval) {
        slot.last_ping = now;
        PingMsg ping;
        ping.seq = slot.ping_seq++;
        ping.t_send_ns = now_ns();
        ping.ack_result_seq = slot.rx_result_seq;
        ping.ack_telemetry_seq = slot.rx_telemetry_seq;
        if (!slot.conn->send(MsgType::kPing, ping.encode(slot.version))) {
          link_lost(slot, "ping send failed");
        }
      }
    }
  }

  /// Tends parked sessions: tears down the dead link (the RX thread may
  /// still be draining) so a redial can splice in cleanly, and expires
  /// sessions whose grace window ran out — those become ordinary losses.
  void tick_disconnected(std::unique_lock<std::mutex>& lock) {
    for (std::size_t w = 0; w < slots_.size(); ++w) {
      Slot& slot = slots_[w];
      if (slot.state != SlotState::kDisconnected) continue;
      detach_link(slot, lock);
      if (slot.state != SlotState::kDisconnected) continue;
      if (Clock::now() - slot.disconnected_at > config_.session_grace) {
        log("cluster: worker " + std::to_string(slot.id) + " session " +
            std::to_string(slot.session_id) + " expired after " +
            std::to_string(config_.session_grace.count()) +
            "ms grace; declaring lost");
        ++stats_.sessions_expired;
        if (m_sessions_expired_) m_sessions_expired_->inc();
        slot.state = SlotState::kLost;
      }
    }
  }

  /// Buries lost workers: requeue their in-flight task, reap the process,
  /// and respawn within the restart budget (else retire the slot). Joining
  /// the RX thread requires dropping mu_ briefly.
  void tick_lost(std::unique_lock<std::mutex>& lock) {
    for (std::size_t w = 0; w < slots_.size(); ++w) {
      Slot& slot = slots_[w];
      if (slot.state != SlotState::kLost) continue;
      ++stats_.workers_lost;
      if (m_workers_lost_) m_workers_lost_->inc();
      refresh_alive_gauge();

      // Invalidate the epoch so the RX thread exits, then wake it.
      ++slot.epoch;
      if (slot.fd.valid()) ::shutdown(slot.fd.get(), SHUT_RDWR);
      std::thread rx = std::move(slot.rx);
      const pid_t pid = slot.is_remote ? -1 : slot.pid;

      if (slot.busy) {
        slot.busy = false;
        fleet_.end_assign(slot.assign_span, now_ns(), /*committed=*/false);
        slot.assign_span = 0;
        ++stats_.tasks_reassigned;
        if (m_tasks_reassigned_) m_tasks_reassigned_->inc();
        requeue(slot.current.task, slot.current.attempt + 1, slot.id);
      }

      lock.unlock();
      if (rx.joinable()) rx.join();
      if (pid > 0) {
        ::kill(pid, SIGKILL);  // no-op if already gone; un-sticks SIGSTOP
        int status = 0;
        ::waitpid(pid, &status, 0);
      }
      lock.lock();

      fold_conn_stats(slot);
      slot.conn.reset();
      slot.fd.reset();
      slot.pid = -1;

      if (respawns_used_ < config_.restart_budget) {
        ++respawns_used_;
        ++stats_.respawns;
        if (m_respawns_) m_respawns_->inc();
        log("cluster: respawning worker " + std::to_string(slot.id) + " (" +
            std::to_string(respawns_used_) + "/" +
            std::to_string(config_.restart_budget) + " restarts used)");
        if (slot.is_remote) {
          arm_remote(slot);  // re-open the slot for a fresh dial-in
        } else {
          try {
            spawn(slot);
          } catch (const ClusterError&) {
            slot.state = SlotState::kRetired;
            ++stats_.workers_retired;
          }
        }
      } else {
        log("cluster: restart budget exhausted; retiring worker " +
            std::to_string(slot.id) + " (degrading to fewer workers)");
        slot.state = SlotState::kRetired;
        ++stats_.workers_retired;
      }
    }
  }

  /// Per-assignment deadline: a task not answered in time is requeued on
  /// another worker. The slow worker stays alive — if it is actually dead
  /// the heartbeat says so. Disconnected slots keep their deadline running:
  /// a partition that outlasts task_timeout surrenders the task to another
  /// worker, and the healed session's late replay is deduplicated.
  void tick_timeouts() {
    const auto now = Clock::now();
    for (Slot& slot : slots_) {
      if ((slot.state != SlotState::kLive &&
           slot.state != SlotState::kDisconnected) ||
          !slot.busy) {
        continue;
      }
      if (now - slot.assigned_at <= config_.task_timeout) continue;
      ++stats_.task_timeouts;
      if (m_task_timeouts_) m_task_timeouts_->inc();
      ++stats_.tasks_reassigned;
      if (m_tasks_reassigned_) m_tasks_reassigned_->inc();
      log("cluster: task " + std::to_string(slot.current.task) +
          " timed out on worker " + std::to_string(slot.id) + "; requeueing");
      const Pending timed_out = slot.current;
      slot.busy = false;
      fleet_.end_assign(slot.assign_span, now_ns(), /*committed=*/false);
      slot.assign_span = 0;
      requeue(timed_out.task, timed_out.attempt + 1, slot.id);
    }
  }

  /// Hands ready tasks to idle live workers. A task is only assignable to a
  /// worker that holds its subset and product (fully acked streams); for
  /// the first candidate that is missing data, the transfers are queued and
  /// the scan keeps looking for one the worker can start right now.
  void tick_assign() {
    const auto now = Clock::now();
    for (Slot& slot : slots_) {
      if (slot.state != SlotState::kLive || slot.busy) continue;
      std::size_t pick = pending_.size();
      bool enqueued = false;
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        const Pending& p = pending_[i];
        if (p.banned_worker == slot.id && live_slots() > 1) continue;
        if (p.ready_at > now) continue;
        const std::size_t a = p.task % k_;
        const std::size_t b = p.task / k_;
        if (slot.delivered_subsets[a] && slot.delivered_products[b]) {
          pick = i;
          break;
        }
        if (!enqueued) {
          ensure_transfer(slot, StreamKind::kSubset, a);
          ensure_transfer(slot, StreamKind::kProduct, b);
          enqueued = true;
        }
      }
      if (enqueued) pump_streams(slot);
      if (slot.state != SlotState::kLive) continue;  // pump lost the link
      if (pick == pending_.size()) continue;
      Pending p = pending_[pick];
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(pick));
      assign(slot, p);
    }
  }

  [[nodiscard]] std::size_t live_slots() const {
    std::size_t n = 0;
    for (const Slot& slot : slots_) {
      if (slot.state == SlotState::kLive) ++n;
    }
    return n;
  }

  /// Ships one assignment (the worker already holds the payloads — see
  /// tick_assign), then applies any process-tier fault decided for this
  /// (task, attempt).
  void assign(Slot& slot, const Pending& p) {
    const std::size_t b = p.task / k_;
    const std::size_t a = p.task % k_;

    TaskAssignMsg msg;
    msg.task = static_cast<std::uint32_t>(p.task);
    msg.product_subset = static_cast<std::uint32_t>(b);
    msg.leaf_subset = static_cast<std::uint32_t>(a);
    msg.attempt = static_cast<std::uint32_t>(p.attempt);
    // Trace context (v3 only; the v2 body has no room for it): the worker
    // parents its task spans under this attempt's assign span. trace_id 0
    // means fleet tracing is off and the worker opens no spans.
    std::uint64_t assign_span = 0;
    if (slot.version >= 3) {
      const std::int64_t t = now_ns();
      assign_span = fleet_.begin_assign(msg.task, slot.id, msg.attempt, t);
      msg.trace_id = fleet_.trace_id();
      msg.parent_span = assign_span;
      msg.assign_ts_ns = t;
    }
    // Process-tier fault injection: the decision is keyed on (task,
    // attempt) like every other tier, so the schedule is independent of
    // which worker drew the assignment. The victim is stopped before the
    // assignment goes out, so it dies (or hangs) with this task unread —
    // a small task would otherwise be finished between send() and kill().
    // Remote workers are out of signal reach — their chaos comes from the
    // connection tier.
    auto fault = util::ProcessFaultKind::kNone;
    if (config_.injector && !slot.is_remote && slot.pid > 0) {
      fault = config_.injector->decide_process(p.task, p.attempt);
      if (fault != util::ProcessFaultKind::kNone) ::kill(slot.pid, SIGSTOP);
    }
    if (!slot.conn->send(MsgType::kTaskAssign, msg.encode(slot.version),
                         /*injectable=*/true)) {
      fleet_.end_assign(assign_span, now_ns(), /*committed=*/false);
      link_lost(slot, "assign send failed");
      pending_.push_back(p);
      return;
    }
    slot.busy = true;
    slot.current = p;
    slot.assign_span = assign_span;
    slot.assigned_at = Clock::now();
    tstate_[p.task] = TaskState::kAssigned;
    ++stats_.attempts;
    if (m_attempts_) m_attempts_->inc();
    if (p.attempt > 0) {
      ++stats_.retries;
      if (m_retries_) m_retries_->inc();
    }

    switch (fault) {
      case util::ProcessFaultKind::kSigkill:
        ++stats_.sigkills_injected;
        ::kill(slot.pid, SIGKILL);
        break;
      case util::ProcessFaultKind::kSigstop:
        ++stats_.sigstops_injected;  // stopped above
        break;
      case util::ProcessFaultKind::kNone:
        break;
    }
  }

  // -- metrics -------------------------------------------------------------

  void refresh_alive_gauge() {
    if (m_workers_alive_) {
      m_workers_alive_->set(static_cast<std::int64_t>(live_slots()));
    }
  }

  /// Folds a finished link's transport counters into the run totals (live
  /// connections are summed on top in tick_frame_metrics()).
  void fold_link_stats(Slot& slot) {
    if (!slot.conn) return;
    const FrameStats& s = slot.conn->stats();
    retired_frames_sent_ += s.sent;
    retired_frames_dropped_ += s.dropped + slot.worker_frames_dropped;
    retired_frames_corrupt_ += s.corrupt;
    retired_conn_faults_ +=
        s.conn_disconnects + s.conn_partitions + s.conn_half_opens +
        s.conn_drips;
  }

  /// fold_link_stats plus the per-slot death count — for links that ended
  /// with the worker, not just the connection.
  void fold_conn_stats(Slot& slot) {
    fold_link_stats(slot);
    if (config_.telemetry) {
      auto& m = config_.telemetry->metrics();
      const std::string prefix = "cluster.worker." + std::to_string(slot.id);
      m.counter(prefix + ".deaths").inc();
    }
  }

  void tick_frame_metrics() {
    std::uint64_t sent = retired_frames_sent_;
    std::uint64_t dropped = retired_frames_dropped_;
    std::uint64_t corrupt = retired_frames_corrupt_;
    std::uint64_t conn_faults = retired_conn_faults_;
    for (const Slot& slot : slots_) {
      if (!slot.conn) continue;
      const FrameStats& s = slot.conn->stats();
      sent += s.sent;
      dropped += s.dropped + slot.worker_frames_dropped;
      corrupt += s.corrupt;
      conn_faults += s.conn_disconnects + s.conn_partitions +
                     s.conn_half_opens + s.conn_drips;
    }
    stats_.frames_sent = sent;
    stats_.frames_dropped = dropped;
    stats_.frames_corrupt = corrupt;
    stats_.conn_faults_injected = conn_faults;
    if (m_frames_sent_) m_frames_sent_->set(sent);
    if (m_frames_dropped_) m_frames_dropped_->set(dropped);
    // frames_corrupt is inc()'d live by the RX threads.
  }

  // -- teardown ------------------------------------------------------------

  /// Stops everything, in an order that cannot deadlock or leak: shutdown
  /// frames (best effort), RX threads, sockets, then child processes (a
  /// grace period for clean exits, SIGKILL for the rest — a SIGSTOPped
  /// worker cannot process Shutdown). Remote workers get the Shutdown frame
  /// but are never signalled or reaped — they are not our children.
  /// Idempotent.
  void cleanup() {
    {
      std::lock_guard guard(mu_);
      if (cleaned_up_) return;
      cleaned_up_ = true;
      for (Slot& slot : slots_) {
        // Nothing is left to deliver: a cache fill still streaming would
        // only race the drain below, and a failed chunk send there severs
        // the link under the worker's final telemetry flush.
        slot.transfers.clear();
        if (slot.state == SlotState::kLive && slot.conn) {
          slot.conn->send(MsgType::kShutdown, {});
        }
      }
    }
    // Drain before severing: a Shutdown-ed worker flushes its final
    // TelemetrySnapshot (the last tasks' spans and counter totals) and
    // exits, closing its socket — each RX thread keeps ingesting until that
    // EOF parks the slot. Bounded: a wedged (e.g. SIGSTOPped) worker cannot
    // flush and is severed at the deadline instead.
    {
      std::unique_lock lock(mu_);
      cv_.wait_until(lock, Clock::now() + std::chrono::milliseconds(500),
                     [this] {
                       for (const Slot& slot : slots_) {
                         if (slot.state == SlotState::kLive && slot.conn) {
                           return false;
                         }
                       }
                       return true;
                     });
    }
    std::vector<std::thread> rx_threads;
    std::vector<pid_t> pids;
    {
      std::lock_guard guard(mu_);
      stop_ = true;
      for (Slot& slot : slots_) {
        ++slot.epoch;
        if (slot.fd.valid()) ::shutdown(slot.fd.get(), SHUT_RDWR);
        if (slot.rx.joinable()) rx_threads.push_back(std::move(slot.rx));
        if (slot.pid > 0 && !slot.is_remote) pids.push_back(slot.pid);
      }
    }
    for (auto& t : rx_threads) t.join();
    {
      std::lock_guard guard(mu_);
      for (Slot& slot : slots_) {
        fold_conn_stats(slot);
        slot.conn.reset();
        slot.fd.reset();
        slot.pid = -1;
        if (slot.state != SlotState::kRetired) slot.state = SlotState::kRetired;
      }
      tick_frame_metrics();
      if (m_workers_alive_) m_workers_alive_->set(0);
    }
    listen_fd_.reset();

    // Grace period for clean exits, then SIGKILL stragglers and reap.
    const auto deadline = Clock::now() + std::chrono::milliseconds(500);
    std::vector<pid_t>& remaining = pids;
    while (!remaining.empty() && Clock::now() < deadline) {
      std::erase_if(remaining, [](pid_t pid) {
        int status = 0;
        return ::waitpid(pid, &status, WNOHANG) != 0;
      });
      if (!remaining.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    for (const pid_t pid : remaining) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }

    // All RX threads are joined: the merged timeline is final. Write the
    // Chrome trace plus the fleet metrics JSON next to it.
    if (!config_.fleet_trace_path.empty()) {
      write_json_file(config_.fleet_trace_path, fleet_.chrome_trace_json());
      write_json_file(config_.fleet_trace_path + ".metrics.json",
                      fleet_.fleet_metrics_json());
    }
  }

  void write_json_file(const std::string& path, const std::string& json) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      log("cluster: cannot write " + path);
      return;
    }
    out << json << '\n';
    log("cluster: wrote " + path);
  }

  // -- state ---------------------------------------------------------------

  ClusterConfig config_;
  std::span<const BigInt> moduli_;
  std::size_t k_ = 1;
  std::size_t total_ = 0;
  std::size_t workers_n_ = 1;  ///< local (forked) slots
  std::size_t remote_n_ = 0;   ///< dial-in slots after the local ones
  std::size_t chunk_bytes_ = 64 * 1024;
  std::size_t window_chunks_ = 8;
  std::uint64_t fingerprint_ = 0;
  std::vector<Subset> subsets_;
  std::vector<BigInt> products_;  ///< per-subset product-tree roots

  util::net::UniqueFd listen_fd_;
  std::uint16_t bound_port_ = 0;
  /// Fleet observability: clock alignment, merged trace, fleet.* metric
  /// fan-out. Internally synchronized — called from RX threads and the
  /// supervisor without mu_ ordering concerns.
  obs::FleetAggregator fleet_;

  std::mutex mu_;  ///< guards everything below
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  std::deque<Pending> pending_;
  std::vector<TaskState> tstate_;
  std::size_t committed_ = 0;  ///< resumed + executed
  std::size_t respawns_used_ = 0;
  std::uint64_t next_session_id_ = 1;
  std::uint32_t next_stream_id_ = 1;
  bool halted_ = false;
  bool cancelled_ = false;
  bool stop_ = false;
  bool cleaned_up_ = false;
  std::exception_ptr fatal_;
  std::vector<std::vector<BigInt>> partial_;  ///< per subset, per leaf
  // Encoded payload caches, shared across every slot's transfers (the
  // bytes for subset a are identical no matter which worker needs them).
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> enc_subset_;
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> enc_product_;
  std::vector<std::uint32_t> enc_subset_crc_;
  std::vector<std::uint32_t> enc_product_crc_;
  batchgcd::TaskJournal journal_;
  ClusterStats stats_;
  std::uint64_t retired_frames_sent_ = 0;
  std::uint64_t retired_frames_dropped_ = 0;
  std::uint64_t retired_frames_corrupt_ = 0;
  std::uint64_t retired_conn_faults_ = 0;

  obs::Gauge* m_workers_alive_ = nullptr;
  obs::Counter* m_respawns_ = nullptr;
  obs::Counter* m_workers_lost_ = nullptr;
  obs::Counter* m_tasks_executed_ = nullptr;
  obs::Counter* m_tasks_resumed_ = nullptr;
  obs::Counter* m_tasks_reassigned_ = nullptr;
  obs::Counter* m_task_timeouts_ = nullptr;
  obs::Counter* m_quarantined_ = nullptr;
  obs::Counter* m_attempts_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_frames_sent_ = nullptr;
  obs::Counter* m_frames_dropped_ = nullptr;
  obs::Counter* m_frames_corrupt_ = nullptr;
  obs::Counter* m_reconnects_ = nullptr;
  obs::Counter* m_sessions_expired_ = nullptr;
  obs::Counter* m_duplicate_results_ = nullptr;
  obs::Counter* m_stream_chunks_ = nullptr;
  obs::Counter* m_stream_resumes_ = nullptr;
  obs::Histogram* m_rtt_us_ = nullptr;
};

}  // namespace

batchgcd::BatchGcdResult batch_gcd_cluster(std::span<const BigInt> moduli,
                                           const ClusterConfig& config,
                                           ClusterStats* stats) {
  const bool spawns_workers =
      !(config.workers == 0 && config.remote_workers > 0);
  if (spawns_workers) {
    if (config.worker_binary.empty()) {
      throw ClusterError("cluster: worker_binary not configured");
    }
    if (::access(config.worker_binary.c_str(), X_OK) != 0) {
      throw ClusterError("cluster: worker binary not executable: " +
                         config.worker_binary);
    }
  }
  ProcessCoordinator coordinator(moduli, config);
  return coordinator.run(stats);
}

#else  // !WEAKKEYS_HAVE_NET

batchgcd::BatchGcdResult batch_gcd_cluster(std::span<const bn::BigInt>,
                                           const ClusterConfig&,
                                           ClusterStats*) {
  throw ClusterError("cluster: not supported on this platform");
}

#endif

}  // namespace weakkeys::cluster
