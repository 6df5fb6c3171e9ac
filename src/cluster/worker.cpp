#include "cluster/worker.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"
#include "cluster/protocol.hpp"
#include "core/binary_io.hpp"
#include "obs/mem.hpp"
#include "obs/proc_stats.hpp"
#include "obs/prof_stack.hpp"
#include "obs/profiler.hpp"
#include "util/atomic_file.hpp"
#include "util/net.hpp"

namespace weakkeys::cluster {

#if defined(WEAKKEYS_HAVE_NET)

namespace {

using bn::BigInt;
using Clock = std::chrono::steady_clock;

/// Stream id for the worker -> coordinator direction of worker `w`'s
/// connection (the coordinator uses 2*w for its own direction).
std::uint64_t tx_stream(std::uint32_t worker_id) {
  return 2ull * worker_id + 1;
}

/// rx_loop() outcome that is not a process exit code: the transport died
/// but the session may still be resumable.
constexpr int kLinkLost = -1;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One TCP connection: fd + framed endpoint. Sessions outlive links — the
/// worker swaps in a fresh Link per reconnect while the compute thread may
/// still hold a shared_ptr to the dead one (its sends fail harmlessly; the
/// outbox replay owns delivery).
struct Link {
  util::net::UniqueFd fd;
  FrameConn conn;
  Link(int raw_fd, std::uint64_t stream, const util::FaultInjector* injector,
       std::uint64_t tx_seq_start, std::uint64_t conn_seq_start)
      : fd(raw_fd),
        conn(raw_fd, stream, injector, tx_seq_start, conn_seq_start) {}
};

class Worker {
 public:
  explicit Worker(const WorkerConfig& config)
      : config_(config),
        injector_(config.faults),
        version_(config.protocol_version != 0 ? config.protocol_version
                                              : kProtocolVersion),
        telemetry_enabled_(version_ >= 3 &&
                           config.telemetry_interval.count() > 0),
        trace_epoch_ns_(steady_now_ns()) {}

  int run() {
    util::net::ignore_sigpipe();
    int code = kWorkerExitProtocol;
    std::thread compute;
    auto backoff = config_.reconnect_backoff;
    auto give_up_at = Clock::now() + config_.reconnect_window;

    for (;;) {
      const bool resuming = session_id_ != 0;
      std::shared_ptr<Link> link = dial();
      if (!link) {
        if (!resuming) {
          log("worker " + std::to_string(config_.worker_id) +
              ": cannot connect to coordinator");
          code = kWorkerExitConnect;
          break;
        }
        if (Clock::now() >= give_up_at) {
          log("worker " + std::to_string(config_.worker_id) +
              ": reconnect window exhausted");
          code = kWorkerExitConnect;
          break;
        }
        std::this_thread::sleep_for(backoff);
        backoff = std::min(backoff * 2, std::chrono::milliseconds(1000));
        continue;
      }

      const Handshake hs = resuming ? reconnect_handshake(link.get())
                                    : hello_handshake(link.get());
      if (hs == Handshake::kFatal) {
        code = kWorkerExitProtocol;
        break;
      }
      if (hs == Handshake::kRetry) {
        if (!resuming || Clock::now() >= give_up_at) {
          code = resuming ? kWorkerExitConnect : kWorkerExitProtocol;
          break;
        }
        std::this_thread::sleep_for(backoff);
        backoff = std::min(backoff * 2, std::chrono::milliseconds(1000));
        continue;
      }

      install_link(link);
      if (resuming) replay_outbox(link.get());
      if (!compute.joinable()) {
        compute = std::thread([this] { compute_loop(); });
      }

      code = rx_loop(link.get());
      if (code == kWorkerExitOk) {
        // Shutdown. Final telemetry flush before the link closes: the
        // coordinator drains its RX side until EOF, so the last tasks'
        // spans and the final counter values make it into the fleet view.
        // The compute thread stops first: it records a task's send span
        // after the result is on the wire, and the answer to the last
        // result can be this very Shutdown. Best-effort — a dead link at
        // this point just loses the tail.
        stop_compute(compute);
        maybe_send_telemetry(link.get(), /*force=*/true);
      }
      drop_link(link.get());
      if (code != kLinkLost) break;
      if (!config_.session_reconnect || session_id_ == 0) {
        code = kWorkerExitProtocol;
        break;
      }
      log("worker " + std::to_string(config_.worker_id) +
          ": connection lost; attempting session resume");
      give_up_at = Clock::now() + config_.reconnect_window;
      backoff = config_.reconnect_backoff;
    }

    stop_compute(compute);
    return code == kLinkLost ? kWorkerExitProtocol : code;
  }

 private:
  enum class Handshake : std::uint8_t { kOk, kRetry, kFatal };

  /// Lets the compute thread drain its queue and exit, then joins it.
  void stop_compute(std::thread& compute) {
    if (!compute.joinable()) return;
    {
      std::lock_guard guard(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    compute.join();
  }

  void log(const std::string& message) const {
    if (config_.log) config_.log(message);
  }

  std::shared_ptr<Link> dial() {
    const int raw = util::net::connect_tcp(
        config_.coordinator_address, config_.port, config_.connect_timeout);
    if (raw < 0) return nullptr;
    if (config_.tcp_keepalive) util::net::enable_keepalive(raw);
    const util::FaultInjector* injector =
        (config_.faults.any_frame_faults() || config_.faults.any_conn_faults())
            ? &injector_
            : nullptr;
    return std::make_shared<Link>(raw, tx_stream(config_.worker_id), injector,
                                  tx_seq_base_, conn_seq_base_);
  }

  void install_link(const std::shared_ptr<Link>& link) {
    std::lock_guard guard(mu_);
    link_ = link;
  }

  /// Retires a dead link: detaches it from the compute thread and banks the
  /// injector counters so the next connection continues the fault schedule
  /// instead of replaying it.
  void drop_link(Link* link) {
    std::lock_guard guard(mu_);
    tx_seq_base_ = link->conn.tx_seq();
    conn_seq_base_ = link->conn.conn_seq();
    if (link_.get() == link) link_.reset();
  }

  Handshake hello_handshake(Link* link) {
    HelloMsg hello;
    hello.worker_id = config_.worker_id;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    hello.version = version_;
    if (!link->conn.send(MsgType::kHello, hello.encode()))
      return Handshake::kFatal;
    const auto deadline = Clock::now() + config_.connect_timeout;
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return Handshake::kFatal;
      Frame frame;
      switch (link->conn.recv(&frame, left)) {
        case RecvStatus::kOk: {
          if (frame.type != MsgType::kHelloAck) return Handshake::kFatal;
          const auto ack = HelloAckMsg::decode(frame.body);
          if (!ack) return Handshake::kFatal;
          session_id_ = ack->session_id;
          hb_interval_ms_ = ack->heartbeat_interval_ms;
          return Handshake::kOk;
        }
        case RecvStatus::kCorrupt:
          continue;  // control frames are sent clean; be tolerant anyway
        case RecvStatus::kTimeout:
        case RecvStatus::kClosed:
          return Handshake::kFatal;
      }
    }
  }

  Handshake reconnect_handshake(Link* link) {
    ReconnectHelloMsg hello;
    hello.worker_id = config_.worker_id;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    hello.session_id = session_id_;
    hello.version = version_;
    {
      std::lock_guard guard(mu_);
      hello.last_committed_seq = acked_result_seq_;
    }
    if (!link->conn.send(MsgType::kReconnectHello, hello.encode()))
      return Handshake::kRetry;
    const auto deadline = Clock::now() + config_.connect_timeout;
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return Handshake::kRetry;
      Frame frame;
      switch (link->conn.recv(&frame, left)) {
        case RecvStatus::kOk: {
          if (frame.type != MsgType::kReconnectAck) return Handshake::kRetry;
          const auto ack = ReconnectAckMsg::decode(frame.body);
          if (!ack) return Handshake::kRetry;
          if (ack->accepted == 0) {
            // Session expired coordinator-side: a fresh incarnation has
            // been (or will be) spawned in our place. Nothing to resume.
            log("worker " + std::to_string(config_.worker_id) +
                ": session rejected by coordinator");
            return Handshake::kFatal;
          }
          hb_interval_ms_ = ack->heartbeat_interval_ms;
          prune_outbox(ack->ack_result_seq);
          return Handshake::kOk;
        }
        case RecvStatus::kCorrupt:
          continue;
        case RecvStatus::kTimeout:
        case RecvStatus::kClosed:
          return Handshake::kRetry;
      }
    }
  }

  void prune_outbox(std::uint64_t ack_seq) {
    std::lock_guard guard(mu_);
    acked_result_seq_ = std::max(acked_result_seq_, ack_seq);
    while (!outbox_.empty() && outbox_.front().result_seq <= acked_result_seq_)
      outbox_.pop_front();
  }

  void prune_telemetry(std::uint64_t ack_seq) {
    std::lock_guard guard(mu_);
    acked_telemetry_seq_ = std::max(acked_telemetry_seq_, ack_seq);
    while (!telemetry_outbox_.empty() &&
           telemetry_outbox_.front().seq <= acked_telemetry_seq_) {
      telemetry_outbox_.pop_front();
    }
  }

  /// Resends every result the coordinator has not acknowledged. Replays are
  /// injectable like first sends: a replayed frame can be dropped again,
  /// and either a later Ping ack or the next reconnect settles it.
  /// Unacked telemetry snapshots replay too (clean, like all telemetry
  /// sends) — that is what makes export loss-tolerant across link flaps.
  void replay_outbox(Link* link) {
    std::vector<TaskResultMsg> replay;
    std::vector<TelemetrySnapshotMsg> telemetry_replay;
    {
      std::lock_guard guard(mu_);
      replay.assign(outbox_.begin(), outbox_.end());
      telemetry_replay.assign(telemetry_outbox_.begin(),
                              telemetry_outbox_.end());
    }
    for (const auto& result : replay) {
      if (!link->conn.send(MsgType::kTaskResult, result.encode(),
                           /*injectable=*/true)) {
        return;  // link already dead again; rx_loop will notice
      }
    }
    for (const auto& snap : telemetry_replay) {
      if (!link->conn.send(MsgType::kTelemetrySnapshot, snap.encode())) return;
    }
  }

  // -- telemetry export (RX thread only) ----------------------------------

  /// Packages pending spans + current counters + proc stats into a
  /// sequenced TelemetrySnapshot, outboxes it, and sends it on `link`.
  /// Throttled to telemetry_interval unless `force` (the Shutdown flush).
  /// Returns false only on a hard send failure (link dead).
  bool maybe_send_telemetry(Link* link, bool force) {
    if (!telemetry_enabled_) return true;
    const std::int64_t now = steady_now_ns();
    if (!force && last_telemetry_ns_ != 0 &&
        now - last_telemetry_ns_ <
            config_.telemetry_interval.count() * 1000000) {
      return true;
    }
    last_telemetry_ns_ = now;
    TelemetrySnapshotMsg snap;
    snap.worker_id = config_.worker_id;
    snap.trace_epoch_ns = trace_epoch_ns_;
    {
      std::lock_guard guard(mu_);
      snap.seq = ++next_telemetry_seq_;
      snap.first_span_index = span_base_;
      snap.spans = std::move(pending_spans_);
      pending_spans_.clear();
      span_base_ += snap.spans.size();
      snap.gauges.emplace_back(
          "queue_depth", static_cast<std::int64_t>(queue_.size()));
    }
    snap.counters = {
        {"tasks_executed", tasks_done_.load(std::memory_order_relaxed)},
        {"claims_found", claims_found_.load(std::memory_order_relaxed)},
        {"compute_us", compute_us_.load(std::memory_order_relaxed)},
    };
    // Resource-attribution plane (generic fields: the coordinator's fleet
    // aggregator republishes them as fleet.worker.<id>.<name> untouched).
    if (obs::mem::enabled()) {
      const obs::mem::Totals mem = obs::mem::totals();
      snap.gauges.emplace_back("mem_live_kb", mem.live_bytes / 1024);
      snap.gauges.emplace_back(
          "mem_peak_kb", static_cast<std::int64_t>(mem.peak_bytes / 1024));
      if (obs::mem::consume_budget_alarm()) {
        log("worker " + std::to_string(config_.worker_id) +
            ": memory budget exceeded (soft alarm; run continues)");
        budget_alarms_.fetch_add(1, std::memory_order_relaxed);
      }
      const std::uint64_t alarms =
          budget_alarms_.load(std::memory_order_relaxed);
      if (alarms > 0) snap.counters.emplace_back("mem_budget_alarms", alarms);
    }
    const obs::ProcSelfStats proc = obs::sample_proc_self();
    if (proc.rss_available) {
      snap.rss_kb = proc.rss_kb;
      snap.peak_rss_kb = proc.peak_rss_kb;
    }
    if (proc.cpu_available) {
      snap.cpu_user_us = static_cast<std::int64_t>(proc.cpu_user_us);
      snap.cpu_sys_us = static_cast<std::int64_t>(proc.cpu_sys_us);
    }
    {
      static const int outbox_label =
          obs::mem::register_label("cluster.outbox");
      obs::MemScope mem_scope(outbox_label);
      std::lock_guard guard(mu_);
      telemetry_outbox_.push_back(snap);
    }
    // Clean (non-injectable) like other control-plane frames: in-window
    // loss recovery would need its own retransmit layer, so loss tolerance
    // lives at the reconnect/replay level instead.
    return link->conn.send(MsgType::kTelemetrySnapshot, snap.encode());
  }

  /// Appends one completed task span (timestamps relative to
  /// trace_epoch_ns_) to the pending buffer the next snapshot drains.
  void record_span(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, const TaskAssignMsg& assign) {
    TelemetrySpan span;
    span.name = name;
    span.ts_us = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, (start_ns - trace_epoch_ns_) / 1000));
    span.dur_us = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, (end_ns - start_ns) / 1000));
    span.args = {
        {"task", assign.task},
        {"attempt", assign.attempt},
        {"trace_id", static_cast<std::int64_t>(assign.trace_id)},
        {"parent_span", static_cast<std::int64_t>(assign.parent_span)},
    };
    std::lock_guard guard(mu_);
    pending_spans_.push_back(std::move(span));
  }

  /// The RX loop: answers pings inline (so liveness reflects the process,
  /// not the compute queue), reassembles data streams, queues task
  /// assignments. Returns kWorkerExitOk on Shutdown, kLinkLost when the
  /// transport died (EOF, send failure, or ping-deadline expiry).
  int rx_loop(Link* link) {
    auto last_rx = Clock::now();
    for (;;) {
      // Half-open detection: a link that has gone silent past the ping
      // deadline is dead even though the socket never errored — the classic
      // half-open TCP state after a partition or peer freeze.
      const auto deadline = ping_deadline();
      if (deadline.count() > 0 && Clock::now() - last_rx > deadline) {
        log("worker " + std::to_string(config_.worker_id) +
            ": ping deadline passed; link presumed half-open");
        return kLinkLost;
      }
      Frame frame;
      switch (link->conn.recv(&frame, std::chrono::milliseconds(200))) {
        case RecvStatus::kTimeout:
          continue;
        case RecvStatus::kCorrupt:
          // Corrupt = an injected garble consumed whole; the task layer
          // (coordinator-side timeout) owns recovery. Bytes arriving still
          // prove the link is alive.
          last_rx = Clock::now();
          continue;
        case RecvStatus::kClosed:
          return kLinkLost;
        case RecvStatus::kOk:
          last_rx = Clock::now();
          break;
      }
      switch (frame.type) {
        case MsgType::kPing: {
          if (const auto ping = PingMsg::decode(frame.body)) {
            prune_outbox(ping->ack_result_seq);
            prune_telemetry(ping->ack_telemetry_seq);
            PongMsg pong;
            pong.seq = ping->seq;
            pong.t_send_ns = ping->t_send_ns;
            pong.tasks_done = tasks_done_.load(std::memory_order_relaxed);
            pong.frames_sent = link->conn.stats().sent;
            pong.frames_dropped = link->conn.stats().dropped;
            // The clock sample must be taken as close to the send as
            // possible: it is one endpoint of the coordinator's midpoint
            // offset estimate.
            pong.worker_now_ns = steady_now_ns();
            if (!link->conn.send(MsgType::kPong, pong.encode(version_)))
              return kLinkLost;
            // Telemetry rides the Pong path: the coordinator's heartbeat
            // cadence is the export clock, throttled to telemetry_interval.
            if (!maybe_send_telemetry(link, /*force=*/false))
              return kLinkLost;
          }
          break;
        }
        case MsgType::kStreamBegin: {
          if (const auto msg = StreamBeginMsg::decode(frame.body)) {
            if (!on_stream_begin(link, *msg)) return kLinkLost;
          }
          break;
        }
        case MsgType::kStreamChunk: {
          if (auto msg = StreamChunkMsg::decode(frame.body)) {
            if (!on_stream_chunk(link, *msg)) return kLinkLost;
          }
          break;
        }
        case MsgType::kSubsetData: {
          // Legacy single-frame fill; the coordinator streams these now but
          // the handler stays for protocol-level tests and compatibility.
          if (auto msg = SubsetDataMsg::decode(frame.body)) {
            std::lock_guard guard(mu_);
            subsets_[msg->subset] = std::move(msg->moduli);
            trees_.erase(msg->subset);
          }
          break;
        }
        case MsgType::kProductData: {
          if (auto msg = ProductDataMsg::decode(frame.body)) {
            std::lock_guard guard(mu_);
            products_[msg->subset] = std::move(msg->product);
          }
          break;
        }
        case MsgType::kTaskAssign: {
          if (const auto msg = TaskAssignMsg::decode(frame.body)) {
            {
              std::lock_guard guard(mu_);
              queue_.push_back(PendingTask{*msg, steady_now_ns()});
            }
            cv_.notify_one();
          }
          break;
        }
        case MsgType::kShutdown:
          return kWorkerExitOk;  // run() flushes the final telemetry
        default:
          break;  // unknown/unexpected types are ignored, not fatal
      }
    }
  }

  [[nodiscard]] std::chrono::milliseconds ping_deadline() const {
    if (config_.ping_deadline.count() > 0) return config_.ping_deadline;
    if (!config_.session_reconnect || hb_interval_ms_ == 0)
      return std::chrono::milliseconds(0);  // disarmed (PR 6 behavior)
    return std::chrono::milliseconds(10ull * hb_interval_ms_);
  }

  // -- stream reassembly (RX thread only) ---------------------------------

  struct RxStream {
    std::uint8_t kind = 0;
    std::uint32_t subset = 0;
    std::uint64_t total = 0;
    std::uint32_t crc = 0;
    std::vector<std::uint8_t> buf;
    std::uint64_t prefix = 0;  ///< contiguous bytes held
  };

  bool send_stream_ack(Link* link, std::uint32_t stream_id,
                       std::uint64_t received) {
    StreamAckMsg ack;
    ack.stream_id = stream_id;
    ack.received = received;
    return link->conn.send(MsgType::kStreamAck, ack.encode());
  }

  bool on_stream_begin(Link* link, const StreamBeginMsg& msg) {
    if (msg.total_bytes == 0 || msg.total_bytes > kMaxFrameBytes) return true;
    auto it = rx_streams_.find(msg.stream_id);
    if (it == rx_streams_.end() || it->second.total != msg.total_bytes ||
        it->second.crc != msg.payload_crc) {
      // Fresh transfer (or the sender restarted it with different content).
      RxStream stream;
      stream.kind = msg.kind;
      stream.subset = msg.subset;
      stream.total = msg.total_bytes;
      stream.crc = msg.payload_crc;
      stream.buf.resize(msg.total_bytes);
      rx_streams_[msg.stream_id] = std::move(stream);
      it = rx_streams_.find(msg.stream_id);
    }
    // A duplicate Begin after reconnect keeps the existing prefix — acking
    // it tells the sender where to resume mid-stream.
    return send_stream_ack(link, msg.stream_id, it->second.prefix);
  }

  bool on_stream_chunk(Link* link, const StreamChunkMsg& msg) {
    const auto it = rx_streams_.find(msg.stream_id);
    if (it == rx_streams_.end()) return true;  // stale/unknown transfer
    RxStream& stream = it->second;
    // Go-back-N: only the chunk extending the contiguous prefix advances
    // it; duplicates and holes are discarded and the ack re-states the
    // prefix so the sender rewinds.
    if (msg.offset == stream.prefix && !msg.data.empty() &&
        msg.offset + msg.data.size() <= stream.total) {
      std::memcpy(stream.buf.data() + msg.offset, msg.data.data(),
                  msg.data.size());
      stream.prefix += msg.data.size();
    }
    const std::uint32_t id = msg.stream_id;
    const std::uint64_t prefix = stream.prefix;
    if (prefix == stream.total) {
      if (core::crc32(stream.buf) == stream.crc) deliver_stream(stream);
      rx_streams_.erase(it);
    }
    return send_stream_ack(link, id, prefix);
  }

  void deliver_stream(const RxStream& stream) {
    if (stream.kind == static_cast<std::uint8_t>(StreamKind::kSubset)) {
      if (auto msg = SubsetDataMsg::decode(stream.buf)) {
        std::lock_guard guard(mu_);
        subsets_[msg->subset] = std::move(msg->moduli);
        trees_.erase(msg->subset);
      }
    } else if (stream.kind ==
               static_cast<std::uint8_t>(StreamKind::kProduct)) {
      if (auto msg = ProductDataMsg::decode(stream.buf)) {
        std::lock_guard guard(mu_);
        products_[msg->subset] = std::move(msg->product);
      }
    }
  }

  // -- compute ------------------------------------------------------------

  /// A queued assignment plus its RX-thread arrival time: the gap between
  /// the two ends of the pair is the task.recv (queue-wait) span.
  struct PendingTask {
    TaskAssignMsg assign;
    std::int64_t recv_ns = 0;
  };

  void compute_loop() {
    for (;;) {
      PendingTask task;
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        task = queue_.front();
        queue_.pop_front();
      }
      execute(task.assign, task.recv_ns);
    }
  }

  void execute(const TaskAssignMsg& assign, std::int64_t recv_ns) {
    // Root frame for the compute thread: everything below (tree build,
    // remainder walk, bn kernels) nests under it in this worker's profile.
    obs::prof::Frame prof_frame("cluster.task");
    // Clock reads only when telemetry is on; spans additionally only when
    // the coordinator asked for them (trace_id 0 = fleet trace off).
    const bool traced = telemetry_enabled_ && assign.trace_id != 0;
    const std::int64_t t_dequeue = telemetry_enabled_ ? steady_now_ns() : 0;
    if (traced) record_span("task.recv", recv_ns, t_dequeue, assign);
    std::vector<BigInt> moduli;
    BigInt product;
    std::shared_ptr<batchgcd::ProductTree> tree;
    {
      std::lock_guard guard(mu_);
      const auto subset_it = subsets_.find(assign.leaf_subset);
      const auto product_it = products_.find(assign.product_subset);
      if (subset_it == subsets_.end() || product_it == products_.end()) {
        // A dropped/garbled cache fill upstream of this assignment; nothing
        // to compute. The coordinator's task timeout requeues it (and the
        // refreshed cache fill comes with the next assignment).
        log("worker " + std::to_string(config_.worker_id) + ": task " +
            std::to_string(assign.task) + " references missing subset data");
        return;
      }
      moduli = subset_it->second;
      product = product_it->second;
      const auto tree_it = trees_.find(assign.leaf_subset);
      if (tree_it != trees_.end()) tree = tree_it->second;
    }
    if (!tree) {
      if (!config_.spill_dir.empty()) {
        // Out-of-core build: the spill policy bounds this worker's tree
        // memory; the per-worker file base keeps a shared spill dir safe.
        batchgcd::TreeStorage storage;
        storage.spill_dir = config_.spill_dir;
        storage.spill_threshold_bytes =
            static_cast<std::uint64_t>(config_.spill_threshold_mb) * 1024 *
            1024;
        storage.base = "worker" + std::to_string(config_.worker_id) + ".s" +
                       std::to_string(assign.leaf_subset);
        storage.fault_stream = assign.leaf_subset;
        tree = std::make_shared<batchgcd::ProductTree>(moduli, storage);
      } else {
        tree = std::make_shared<batchgcd::ProductTree>(moduli);
      }
      std::lock_guard guard(mu_);
      trees_[assign.leaf_subset] = tree;
    }

    const util::FaultDecision decision =
        config_.faults.any_faults()
            ? injector_.decide(assign.task, assign.attempt)
            : util::FaultDecision{};
    if (decision.kind == util::FaultKind::kCrash) {
      // A real mid-task crash: the coordinator sees socket EOF, requeues
      // the task, and respawns this slot.
      ::_exit(42);
    }
    if (decision.kind == util::FaultKind::kStraggle) {
      // Sleep past the coordinator's task deadline, then send the (by now
      // reassigned) result anyway — late results must be safe to receive.
      std::this_thread::sleep_for(config_.straggle_sleep);
    }

    // task.compute spans the remainder walk, task.verify the leaf gcds.
    std::int64_t t_computed = 0;
    TaskResultMsg result;
    result.task = assign.task;
    result.worker_id = config_.worker_id;
    result.claims = batchgcd::task_claims(
        *tree, moduli, product, assign.product_subset == assign.leaf_subset,
        [&] {
          if (telemetry_enabled_) t_computed = steady_now_ns();
          if (traced) record_span("task.compute", t_dequeue, t_computed, assign);
        });
    const std::int64_t t_verified = telemetry_enabled_ ? steady_now_ns() : 0;
    if (traced) record_span("task.verify", t_computed, t_verified, assign);
    if (telemetry_enabled_ && t_verified >= t_dequeue) {
      compute_us_.fetch_add(
          static_cast<std::uint64_t>((t_verified - t_dequeue) / 1000),
          std::memory_order_relaxed);
    }
    claims_found_.fetch_add(result.claims.size(), std::memory_order_relaxed);
    if (decision.kind == util::FaultKind::kCorruptResult && !moduli.empty()) {
      // Same guaranteed-rejectable corruption as the in-process simulation:
      // n-1 never divides n for n > 2, so verification must catch it.
      const std::size_t slot = decision.corrupt_slot % moduli.size();
      const BigInt& n = moduli[slot];
      if (n > BigInt(2)) {
        const BigInt bogus = n - BigInt(1);
        const auto it = std::find_if(
            result.claims.begin(), result.claims.end(),
            [slot](const batchgcd::TaskClaim& c) { return c.leaf == slot; });
        if (it != result.claims.end()) {
          it->divisor = bogus;
        } else {
          result.claims.push_back({static_cast<std::uint32_t>(slot), bogus});
        }
      }
    }
    tasks_done_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t t_send = traced ? steady_now_ns() : 0;
    post_result(std::move(result));
    if (traced) record_span("task.send", t_send, steady_now_ns(), assign);
  }

  /// Sequences a finished result into the outbox, then attempts delivery on
  /// whatever link is current. A failed or muted send is not an error: the
  /// result stays outboxed until a Ping ack prunes it, and every reconnect
  /// replays the unacked tail. Injectable: a dropped or garbled result is
  /// exactly the loss the coordinator's timeout/retry machinery absorbs.
  void post_result(TaskResultMsg result) {
    std::shared_ptr<Link> link;
    {
      static const int outbox_label =
          obs::mem::register_label("cluster.outbox");
      obs::MemScope mem_scope(outbox_label);
      std::lock_guard guard(mu_);
      result.result_seq = ++next_result_seq_;
      outbox_.push_back(result);
      link = link_;
    }
    if (link) {
      link->conn.send(MsgType::kTaskResult, result.encode(),
                      /*injectable=*/true);
    }
  }

  WorkerConfig config_;
  util::FaultInjector injector_;
  const std::uint32_t version_;       ///< negotiated dialect (Hello)
  const bool telemetry_enabled_;      ///< v3 and interval > 0
  const std::int64_t trace_epoch_ns_; ///< span-timestamp epoch, this clock

  std::mutex mu_;  ///< guards queue_, caches, stop_, link_, outboxes, spans
  std::condition_variable cv_;
  std::deque<PendingTask> queue_;
  bool stop_ = false;
  std::shared_ptr<Link> link_;
  std::map<std::uint32_t, std::vector<BigInt>> subsets_;
  std::map<std::uint32_t, BigInt> products_;
  std::map<std::uint32_t, std::shared_ptr<batchgcd::ProductTree>> trees_;
  std::atomic<std::uint32_t> tasks_done_{0};
  std::atomic<std::uint64_t> claims_found_{0};
  std::atomic<std::uint64_t> compute_us_{0};
  std::atomic<std::uint64_t> budget_alarms_{0};

  // Session state (main/RX thread unless noted).
  std::uint64_t session_id_ = 0;
  std::uint32_t hb_interval_ms_ = 0;
  std::uint64_t tx_seq_base_ = 0;    ///< injector counters carried across
  std::uint64_t conn_seq_base_ = 0;  ///< reconnects (see FrameConn ctor)
  std::deque<TaskResultMsg> outbox_;     ///< unacked results (mu_)
  std::uint64_t next_result_seq_ = 0;    ///< last assigned seq (mu_)
  std::uint64_t acked_result_seq_ = 0;   ///< coordinator high-water (mu_)
  std::map<std::uint32_t, RxStream> rx_streams_;  ///< RX thread only

  // Telemetry export state. Spans accumulate under mu_ (compute thread
  // writes, RX thread drains); the outbox/seq bookkeeping is RX-thread
  // owned but kept under mu_ for uniformity.
  std::vector<TelemetrySpan> pending_spans_;        ///< not yet snapshotted
  std::uint64_t span_base_ = 0;  ///< global index of pending_spans_[0]
  std::deque<TelemetrySnapshotMsg> telemetry_outbox_;  ///< unacked exports
  std::uint64_t next_telemetry_seq_ = 0;
  std::uint64_t acked_telemetry_seq_ = 0;
  std::int64_t last_telemetry_ns_ = 0;  ///< RX thread only (throttle)
};

}  // namespace

int run_worker(const WorkerConfig& config) {
  // Resource-attribution plane for this worker process: memory accounting
  // feeds the mem gauges in every TelemetrySnapshot (and arms the soft
  // budget), the profiler writes this worker's collapsed stacks at exit.
  // Both default off and cost one relaxed load per alloc/span when off.
  if (config.profile_hz > 0 || config.mem_budget_mb > 0) {
    obs::mem::enable();
    if (config.mem_budget_mb > 0) {
      obs::mem::set_budget_bytes(
          static_cast<std::uint64_t>(config.mem_budget_mb) * 1024 * 1024);
    }
  }
  std::unique_ptr<obs::Profiler> profiler;
  if (config.profile_hz > 0) {
    obs::ProfilerConfig pc;
    pc.hz = config.profile_hz;
    pc.out_path = config.profile_out;
    pc.writer = [](const std::string& path, const std::string& content) {
      try {
        util::atomic_write_file(path, content);
        return true;
      } catch (const std::exception&) {
        return false;
      }
    };
    profiler = std::make_unique<obs::Profiler>(std::move(pc));
    profiler->start();
  }
  const int code = Worker(config).run();
  if (profiler) profiler->stop();
  return code;
}

#else  // !WEAKKEYS_HAVE_NET

int run_worker(const WorkerConfig&) { return kWorkerExitConnect; }

#endif

}  // namespace weakkeys::cluster
