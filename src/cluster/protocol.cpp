#include "cluster/protocol.hpp"

#include <cstring>
#include <thread>

#include "core/binary_io.hpp"
#include "util/net.hpp"

namespace weakkeys::cluster {

namespace {

/// Wraps decode bodies: any short read inside `fn` (BufferReader throws)
/// yields nullopt instead of an exception escaping the RX loop.
template <typename T, typename Fn>
std::optional<T> decode_guard(const std::vector<std::uint8_t>& body, Fn fn) {
  try {
    core::BufferReader r(body);
    T msg = fn(r);
    if (!r.exhausted()) return std::nullopt;  // trailing garbage
    return msg;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

// -- message codecs ---------------------------------------------------------

std::vector<std::uint8_t> HelloMsg::encode() const {
  core::BufferWriter w;
  w.u32(worker_id);
  w.u64(pid);
  w.u32(version);
  return w.data();
}

std::optional<HelloMsg> HelloMsg::decode(
    const std::vector<std::uint8_t>& body) {
  return decode_guard<HelloMsg>(body, [](core::BufferReader& r) {
    HelloMsg m;
    m.worker_id = r.u32();
    m.pid = r.u64();
    m.version = r.u32();
    return m;
  });
}

std::vector<std::uint8_t> HelloAckMsg::encode() const {
  core::BufferWriter w;
  w.u64(fingerprint);
  w.u32(heartbeat_interval_ms);
  w.u64(session_id);
  return w.data();
}

std::optional<HelloAckMsg> HelloAckMsg::decode(
    const std::vector<std::uint8_t>& body) {
  return decode_guard<HelloAckMsg>(body, [](core::BufferReader& r) {
    HelloAckMsg m;
    m.fingerprint = r.u64();
    m.heartbeat_interval_ms = r.u32();
    m.session_id = r.u64();
    return m;
  });
}

std::vector<std::uint8_t> ReconnectHelloMsg::encode() const {
  core::BufferWriter w;
  w.u32(worker_id);
  w.u64(pid);
  w.u64(session_id);
  w.u64(last_committed_seq);
  w.u32(version);
  return w.data();
}

std::optional<ReconnectHelloMsg> ReconnectHelloMsg::decode(
    const std::vector<std::uint8_t>& body) {
  return decode_guard<ReconnectHelloMsg>(body, [](core::BufferReader& r) {
    ReconnectHelloMsg m;
    m.worker_id = r.u32();
    m.pid = r.u64();
    m.session_id = r.u64();
    m.last_committed_seq = r.u64();
    m.version = r.u32();
    return m;
  });
}

std::vector<std::uint8_t> ReconnectAckMsg::encode() const {
  core::BufferWriter w;
  w.u32(accepted);
  w.u64(ack_result_seq);
  w.u32(heartbeat_interval_ms);
  return w.data();
}

std::optional<ReconnectAckMsg> ReconnectAckMsg::decode(
    const std::vector<std::uint8_t>& body) {
  return decode_guard<ReconnectAckMsg>(body, [](core::BufferReader& r) {
    ReconnectAckMsg m;
    m.accepted = static_cast<std::uint8_t>(r.u32());
    m.ack_result_seq = r.u64();
    m.heartbeat_interval_ms = r.u32();
    return m;
  });
}

std::vector<std::uint8_t> SubsetDataMsg::encode() const {
  core::BufferWriter w;
  w.u32(subset);
  w.u32(static_cast<std::uint32_t>(moduli.size()));
  for (const auto& n : moduli) w.bytes(n.to_bytes());
  return w.data();
}

std::optional<SubsetDataMsg> SubsetDataMsg::decode(
    const std::vector<std::uint8_t>& body) {
  return decode_guard<SubsetDataMsg>(body, [](core::BufferReader& r) {
    SubsetDataMsg m;
    m.subset = r.u32();
    const std::uint32_t count = r.u32();
    m.moduli.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      m.moduli.push_back(bn::BigInt::from_bytes(r.bytes()));
    }
    return m;
  });
}

std::vector<std::uint8_t> ProductDataMsg::encode() const {
  core::BufferWriter w;
  w.u32(subset);
  w.bytes(product.to_bytes());
  return w.data();
}

std::optional<ProductDataMsg> ProductDataMsg::decode(
    const std::vector<std::uint8_t>& body) {
  return decode_guard<ProductDataMsg>(body, [](core::BufferReader& r) {
    ProductDataMsg m;
    m.subset = r.u32();
    m.product = bn::BigInt::from_bytes(r.bytes());
    return m;
  });
}

std::vector<std::uint8_t> TaskAssignMsg::encode(std::uint32_t version) const {
  core::BufferWriter w;
  w.u32(task);
  w.u32(product_subset);
  w.u32(leaf_subset);
  w.u32(attempt);
  if (version >= 3) {
    w.u64(trace_id);
    w.u64(parent_span);
    w.i64(assign_ts_ns);
  }
  return w.data();
}

std::optional<TaskAssignMsg> TaskAssignMsg::decode(
    const std::vector<std::uint8_t>& body) {
  return decode_guard<TaskAssignMsg>(body, [](core::BufferReader& r) {
    TaskAssignMsg m;
    m.task = r.u32();
    m.product_subset = r.u32();
    m.leaf_subset = r.u32();
    m.attempt = r.u32();
    if (!r.exhausted()) {  // v3 trace-context tail
      m.trace_id = r.u64();
      m.parent_span = r.u64();
      m.assign_ts_ns = r.i64();
    }
    return m;
  });
}

std::vector<std::uint8_t> TaskResultMsg::encode() const {
  core::BufferWriter w;
  w.u32(task);
  w.u32(worker_id);
  w.u64(result_seq);
  w.u32(static_cast<std::uint32_t>(claims.size()));
  for (const auto& claim : claims) {
    w.u32(claim.leaf);
    w.bytes(claim.divisor.to_bytes());
  }
  return w.data();
}

std::optional<TaskResultMsg> TaskResultMsg::decode(
    const std::vector<std::uint8_t>& body) {
  return decode_guard<TaskResultMsg>(body, [](core::BufferReader& r) {
    TaskResultMsg m;
    m.task = r.u32();
    m.worker_id = r.u32();
    m.result_seq = r.u64();
    const std::uint32_t count = r.u32();
    m.claims.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      batchgcd::TaskClaim claim;
      claim.leaf = r.u32();
      claim.divisor = bn::BigInt::from_bytes(r.bytes());
      m.claims.push_back(std::move(claim));
    }
    return m;
  });
}

std::vector<std::uint8_t> PingMsg::encode(std::uint32_t version) const {
  core::BufferWriter w;
  w.u64(seq);
  w.i64(t_send_ns);
  w.u64(ack_result_seq);
  if (version >= 3) w.u64(ack_telemetry_seq);
  return w.data();
}

std::optional<PingMsg> PingMsg::decode(const std::vector<std::uint8_t>& body) {
  return decode_guard<PingMsg>(body, [](core::BufferReader& r) {
    PingMsg m;
    m.seq = r.u64();
    m.t_send_ns = r.i64();
    m.ack_result_seq = r.u64();
    if (!r.exhausted()) m.ack_telemetry_seq = r.u64();  // v3 tail
    return m;
  });
}

std::vector<std::uint8_t> PongMsg::encode(std::uint32_t version) const {
  core::BufferWriter w;
  w.u64(seq);
  w.i64(t_send_ns);
  w.u32(tasks_done);
  w.u64(frames_sent);
  w.u64(frames_dropped);
  if (version >= 3) w.i64(worker_now_ns);
  return w.data();
}

std::optional<PongMsg> PongMsg::decode(const std::vector<std::uint8_t>& body) {
  return decode_guard<PongMsg>(body, [](core::BufferReader& r) {
    PongMsg m;
    m.seq = r.u64();
    m.t_send_ns = r.i64();
    m.tasks_done = r.u32();
    m.frames_sent = r.u64();
    m.frames_dropped = r.u64();
    if (!r.exhausted()) m.worker_now_ns = r.i64();  // v3 tail
    return m;
  });
}

std::vector<std::uint8_t> TelemetrySnapshotMsg::encode() const {
  core::BufferWriter w;
  w.u32(worker_id);
  w.u64(seq);
  w.u64(first_span_index);
  w.i64(trace_epoch_ns);
  w.i64(rss_kb);
  w.i64(peak_rss_kb);
  w.i64(cpu_user_us);
  w.i64(cpu_sys_us);
  w.u32(static_cast<std::uint32_t>(counters.size()));
  for (const auto& [name, value] : counters) {
    w.str(name);
    w.u64(value);
  }
  w.u32(static_cast<std::uint32_t>(gauges.size()));
  for (const auto& [name, value] : gauges) {
    w.str(name);
    w.i64(value);
  }
  w.u32(static_cast<std::uint32_t>(spans.size()));
  for (const auto& span : spans) {
    w.str(span.name);
    w.u64(span.ts_us);
    w.u64(span.dur_us);
    w.u32(span.depth);
    w.u32(static_cast<std::uint32_t>(span.args.size()));
    for (const auto& [key, value] : span.args) {
      w.str(key);
      w.i64(value);
    }
  }
  return w.data();
}

std::optional<TelemetrySnapshotMsg> TelemetrySnapshotMsg::decode(
    const std::vector<std::uint8_t>& body) {
  return decode_guard<TelemetrySnapshotMsg>(body, [](core::BufferReader& r) {
    TelemetrySnapshotMsg m;
    m.worker_id = r.u32();
    m.seq = r.u64();
    m.first_span_index = r.u64();
    m.trace_epoch_ns = r.i64();
    m.rss_kb = r.i64();
    m.peak_rss_kb = r.i64();
    m.cpu_user_us = r.i64();
    m.cpu_sys_us = r.i64();
    const std::uint32_t n_counters = r.u32();
    m.counters.reserve(n_counters);
    for (std::uint32_t i = 0; i < n_counters; ++i) {
      std::string name = r.str();
      const std::uint64_t value = r.u64();
      m.counters.emplace_back(std::move(name), value);
    }
    const std::uint32_t n_gauges = r.u32();
    m.gauges.reserve(n_gauges);
    for (std::uint32_t i = 0; i < n_gauges; ++i) {
      std::string name = r.str();
      const std::int64_t value = r.i64();
      m.gauges.emplace_back(std::move(name), value);
    }
    const std::uint32_t n_spans = r.u32();
    m.spans.reserve(n_spans);
    for (std::uint32_t i = 0; i < n_spans; ++i) {
      TelemetrySpan span;
      span.name = r.str();
      span.ts_us = r.u64();
      span.dur_us = r.u64();
      span.depth = r.u32();
      const std::uint32_t n_args = r.u32();
      span.args.reserve(n_args);
      for (std::uint32_t j = 0; j < n_args; ++j) {
        std::string key = r.str();
        const std::int64_t value = r.i64();
        span.args.emplace_back(std::move(key), value);
      }
      m.spans.push_back(std::move(span));
    }
    return m;
  });
}

std::vector<std::uint8_t> StreamBeginMsg::encode() const {
  core::BufferWriter w;
  w.u32(stream_id);
  w.u32(kind);
  w.u32(subset);
  w.u64(total_bytes);
  w.u32(payload_crc);
  return w.data();
}

std::optional<StreamBeginMsg> StreamBeginMsg::decode(
    const std::vector<std::uint8_t>& body) {
  return decode_guard<StreamBeginMsg>(body, [](core::BufferReader& r) {
    StreamBeginMsg m;
    m.stream_id = r.u32();
    m.kind = static_cast<std::uint8_t>(r.u32());
    m.subset = r.u32();
    m.total_bytes = r.u64();
    m.payload_crc = r.u32();
    return m;
  });
}

std::vector<std::uint8_t> StreamChunkMsg::encode() const {
  core::BufferWriter w;
  w.u32(stream_id);
  w.u64(offset);
  w.bytes(data);
  return w.data();
}

std::optional<StreamChunkMsg> StreamChunkMsg::decode(
    const std::vector<std::uint8_t>& body) {
  return decode_guard<StreamChunkMsg>(body, [](core::BufferReader& r) {
    StreamChunkMsg m;
    m.stream_id = r.u32();
    m.offset = r.u64();
    m.data = r.bytes();
    return m;
  });
}

std::vector<std::uint8_t> StreamAckMsg::encode() const {
  core::BufferWriter w;
  w.u32(stream_id);
  w.u64(received);
  return w.data();
}

std::optional<StreamAckMsg> StreamAckMsg::decode(
    const std::vector<std::uint8_t>& body) {
  return decode_guard<StreamAckMsg>(body, [](core::BufferReader& r) {
    StreamAckMsg m;
    m.stream_id = r.u32();
    m.received = r.u64();
    return m;
  });
}

// -- framed connection ------------------------------------------------------

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

FrameConn::FrameConn(int fd, std::uint64_t stream,
                     const util::FaultInjector* injector,
                     std::uint64_t tx_seq_start, std::uint64_t conn_seq_start)
    : fd_(fd),
      stream_(stream),
      tx_seq_(tx_seq_start),
      conn_seq_(conn_seq_start),
      injector_(injector) {}

bool FrameConn::send(MsgType type, const std::vector<std::uint8_t>& body,
                     bool injectable) {
  std::vector<std::uint8_t> payload;
  payload.reserve(1 + body.size());
  payload.push_back(static_cast<std::uint8_t>(type));
  payload.insert(payload.end(), body.begin(), body.end());
  const std::uint32_t crc = core::crc32(payload);

  std::lock_guard guard(tx_mu_);
  // Connection tier first: a data frame may change the *link's* state.
  // Like the frame tier, the decision sequence advances only on injectable
  // frames so heartbeat traffic never shifts the schedule — but the state a
  // decision opens (mute/drip windows, severance) applies to every frame,
  // control included, until it closes. That is what makes it a connection
  // event rather than frame loss.
  if (injectable && injector_ && injector_->config().any_conn_faults()) {
    const util::ConnFault conn = injector_->decide_conn(
        stream_, conn_seq_.fetch_add(1, std::memory_order_relaxed));
    const std::int64_t until =
        steady_now_ns() + static_cast<std::int64_t>(conn.duration_ms) * 1000000;
    switch (conn.kind) {
      case util::ConnFaultKind::kNone:
        break;
      case util::ConnFaultKind::kDisconnect:
        ++stats_.conn_disconnects;
        severed_.store(true, std::memory_order_relaxed);
        // Both directions die: the peer sees EOF, our own reader sees EOF.
        ::shutdown(fd_, SHUT_RDWR);
        return false;
      case util::ConnFaultKind::kPartition:
        ++stats_.conn_partitions;
        tx_mute_until_ns_.store(until, std::memory_order_relaxed);
        rx_mute_until_ns_.store(until, std::memory_order_relaxed);
        break;
      case util::ConnFaultKind::kHalfOpen:
        ++stats_.conn_half_opens;
        tx_mute_until_ns_.store(until, std::memory_order_relaxed);
        break;
      case util::ConnFaultKind::kSlowDrip:
        ++stats_.conn_drips;
        drip_until_ns_.store(until, std::memory_order_relaxed);
        drip_delay_ms_.store(conn.drip_delay_ms, std::memory_order_relaxed);
        break;
    }
  }
  if (severed_.load(std::memory_order_relaxed)) return false;
  if (steady_now_ns() < tx_mute_until_ns_.load(std::memory_order_relaxed)) {
    ++stats_.tx_suppressed;
    return true;  // swallowed by the partition; the sender cannot tell
  }
  if (steady_now_ns() < drip_until_ns_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        drip_delay_ms_.load(std::memory_order_relaxed)));
    ++stats_.dripped;
  }

  // The injector sequence advances only on injectable frames, so the fault
  // schedule for the n-th data frame does not shift with heartbeat traffic.
  const util::FrameFault fault =
      (injectable && injector_)
          ? injector_->decide_frame(
                stream_, tx_seq_.fetch_add(1, std::memory_order_relaxed))
          : util::FrameFault{};
  if (fault.drop) {
    ++stats_.dropped;
    return true;  // a dropped frame is invisible to the sender too
  }
  if (fault.garble) {
    // Flip one payload byte after the CRC: the receiver must reject it.
    payload[payload.size() / 2] ^= 0xa5;
    ++stats_.garbled;
  }
  if (fault.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
    ++stats_.delayed;
  }

  // One write per frame: a header segment trailed by a payload segment
  // would meet the peer's delayed ACK and stall each round trip.
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> frame(8);
  frame.reserve(8 + payload.size());
  std::memcpy(frame.data(), &length, 4);
  std::memcpy(frame.data() + 4, &crc, 4);
  frame.insert(frame.end(), payload.begin(), payload.end());
  if (!util::net::write_full(fd_, frame.data(), frame.size())) return false;
  ++stats_.sent;
  return true;
}

RecvStatus FrameConn::recv(Frame* out, std::chrono::milliseconds timeout) {
  const bool bounded = timeout.count() >= 0;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    auto wait = timeout;
    if (bounded) {
      wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (wait.count() < 0) wait = std::chrono::milliseconds(0);
    }
    if (!util::net::wait_readable(fd_, wait)) return RecvStatus::kTimeout;

    std::uint8_t header[8];
    if (!util::net::read_full(fd_, header, sizeof header))
      return RecvStatus::kClosed;
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
    std::memcpy(&length, header, 4);
    std::memcpy(&crc, header + 4, 4);
    if (length == 0 || length > kMaxFrameBytes) return RecvStatus::kClosed;

    std::vector<std::uint8_t> payload(length);
    if (!util::net::read_full(fd_, payload.data(), payload.size()))
      return RecvStatus::kClosed;
    if (core::crc32(payload) != crc) {
      ++stats_.corrupt;
      return RecvStatus::kCorrupt;
    }
    if (steady_now_ns() < rx_mute_until_ns_.load(std::memory_order_relaxed)) {
      // Inside an injected partition: the frame arrived at the socket but
      // "the network" ate it. Consume, discard, keep waiting.
      ++stats_.rx_discarded;
      continue;
    }
    out->type = static_cast<MsgType>(payload[0]);
    out->body.assign(payload.begin() + 1, payload.end());
    return RecvStatus::kOk;
  }
}

}  // namespace weakkeys::cluster
