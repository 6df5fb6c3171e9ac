// Multi-process cluster: protocol codecs and framing, fault-free output
// equivalence across worker counts, chaos (SIGKILL/SIGSTOP + lossy frames +
// real crashes/corruption/stragglers) with byte-identical output, resume
// across engines via the shared journal, graceful degradation, and the
// cluster.* metrics surface.
//
// Every test that spawns workers uses the real gcd_worker binary, resolved
// at compile time from the build tree (WEAKKEYS_GCD_WORKER_BIN).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "batchgcd/batch_gcd.hpp"
#include "batchgcd/coordinator.hpp"
#include "batchgcd/distributed.hpp"
#include "cluster/process_coordinator.hpp"
#include "cluster/protocol.hpp"
#include "obs/telemetry.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "util/fault_injector.hpp"
#include "util/net.hpp"

namespace weakkeys::cluster {
namespace {

using bn::BigInt;

std::string worker_binary() { return WEAKKEYS_GCD_WORKER_BIN; }

/// Small corpus with planted shared-prime structure (and a duplicate), so
/// subsets carry real divisors for verification/quarantine to bite on.
std::vector<BigInt> make_moduli(std::uint64_t seed, std::size_t healthy) {
  std::vector<BigInt> moduli;
  rng::PrngRandomSource rng(seed);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 128;
  opts.style = rsa::PrimeStyle::kPlain;
  opts.miller_rabin_rounds = 6;
  for (std::size_t i = 0; i < healthy; ++i) {
    moduli.push_back(rsa::generate_key(rng, opts).pub.n);
  }
  std::vector<BigInt> primes;
  for (int i = 0; i < 8; ++i) {
    primes.push_back(rsa::generate_prime(rng, 64, opts));
  }
  moduli.push_back(primes[0] * primes[1]);
  moduli.push_back(primes[0] * primes[2]);  // pair sharing primes[0]
  moduli.push_back(primes[3] * primes[4]);  // star of three sharing primes[3]
  moduli.push_back(primes[3] * primes[5]);
  moduli.push_back(primes[3] * primes[6]);
  moduli.push_back(primes[1] * primes[7]);
  moduli.push_back(primes[1] * primes[7]);  // duplicate
  return moduli;
}

/// Cluster config tuned for test latency: tight heartbeats and deadlines,
/// fast retry schedule.
ClusterConfig fast_config(std::size_t k, std::size_t workers) {
  ClusterConfig config;
  config.subsets = k;
  config.workers = workers;
  config.worker_binary = worker_binary();
  config.retry.base = std::chrono::milliseconds(1);
  config.retry.cap = std::chrono::milliseconds(8);
  config.task_timeout = std::chrono::milliseconds(2000);
  config.heartbeat_interval = std::chrono::milliseconds(25);
  config.heartbeat_misses = 8;
  config.spawn_timeout = std::chrono::milliseconds(10000);
  config.restart_budget = 16;
  return config;
}

std::string temp_checkpoint(const std::string& tag) {
  return ::testing::TempDir() + "cluster_" + tag + ".gcdckpt";
}

// ------------------------------------------------------- protocol codecs ----

TEST(ClusterProtocol, MessageRoundTrips) {
  HelloMsg hello{7, 1234, kProtocolVersion};
  const auto hello2 = HelloMsg::decode(hello.encode());
  ASSERT_TRUE(hello2);
  EXPECT_EQ(hello2->worker_id, 7u);
  EXPECT_EQ(hello2->pid, 1234u);
  EXPECT_EQ(hello2->version, kProtocolVersion);

  SubsetDataMsg subset;
  subset.subset = 3;
  subset.moduli = {BigInt(77), BigInt(221), BigInt(1)};
  const auto subset2 = SubsetDataMsg::decode(subset.encode());
  ASSERT_TRUE(subset2);
  EXPECT_EQ(subset2->subset, 3u);
  EXPECT_EQ(subset2->moduli, subset.moduli);

  ProductDataMsg product;
  product.subset = 2;
  product.product = BigInt(123456789);
  const auto product2 = ProductDataMsg::decode(product.encode());
  ASSERT_TRUE(product2);
  EXPECT_EQ(product2->product, product.product);

  TaskAssignMsg assign{11, 2, 3, 1};
  const auto assign2 = TaskAssignMsg::decode(assign.encode());
  ASSERT_TRUE(assign2);
  EXPECT_EQ(assign2->task, 11u);
  EXPECT_EQ(assign2->product_subset, 2u);
  EXPECT_EQ(assign2->leaf_subset, 3u);
  EXPECT_EQ(assign2->attempt, 1u);

  TaskResultMsg result;
  result.task = 5;
  result.worker_id = 1;
  result.result_seq = 0x1122334455667788ull;
  result.claims.push_back({4, BigInt(17)});
  result.claims.push_back({9, BigInt(1) << 80});
  const auto result2 = TaskResultMsg::decode(result.encode());
  ASSERT_TRUE(result2);
  EXPECT_EQ(result2->result_seq, 0x1122334455667788ull);
  ASSERT_EQ(result2->claims.size(), 2u);
  EXPECT_EQ(result2->claims[0].leaf, 4u);
  EXPECT_EQ(result2->claims[0].divisor, BigInt(17));
  EXPECT_EQ(result2->claims[1].divisor, BigInt(1) << 80);

  PingMsg ping{42, 99999, 7};
  const auto ping2 = PingMsg::decode(ping.encode());
  ASSERT_TRUE(ping2);
  EXPECT_EQ(ping2->seq, 42u);
  EXPECT_EQ(ping2->t_send_ns, 99999);
  EXPECT_EQ(ping2->ack_result_seq, 7u);

  PongMsg pong{42, 99999, 3, 17, 2};
  const auto pong2 = PongMsg::decode(pong.encode());
  ASSERT_TRUE(pong2);
  EXPECT_EQ(pong2->frames_sent, 17u);
  EXPECT_EQ(pong2->frames_dropped, 2u);
}

TEST(ClusterProtocol, SessionAndStreamMessageRoundTrips) {
  HelloAckMsg ack{0xdeadbeef, 25, 31};
  const auto ack2 = HelloAckMsg::decode(ack.encode());
  ASSERT_TRUE(ack2);
  EXPECT_EQ(ack2->fingerprint, 0xdeadbeefu);
  EXPECT_EQ(ack2->heartbeat_interval_ms, 25u);
  EXPECT_EQ(ack2->session_id, 31u);

  ReconnectHelloMsg rh{3, 4242, 31, 16, kProtocolVersion};
  const auto rh2 = ReconnectHelloMsg::decode(rh.encode());
  ASSERT_TRUE(rh2);
  EXPECT_EQ(rh2->worker_id, 3u);
  EXPECT_EQ(rh2->pid, 4242u);
  EXPECT_EQ(rh2->session_id, 31u);
  EXPECT_EQ(rh2->last_committed_seq, 16u);
  EXPECT_EQ(rh2->version, kProtocolVersion);

  ReconnectAckMsg ra{1, 16, 25};
  const auto ra2 = ReconnectAckMsg::decode(ra.encode());
  ASSERT_TRUE(ra2);
  EXPECT_EQ(ra2->accepted, 1u);
  EXPECT_EQ(ra2->ack_result_seq, 16u);
  EXPECT_EQ(ra2->heartbeat_interval_ms, 25u);

  StreamBeginMsg begin{9, static_cast<std::uint8_t>(StreamKind::kProduct), 2,
                       1u << 20, 0xabadcafe};
  const auto begin2 = StreamBeginMsg::decode(begin.encode());
  ASSERT_TRUE(begin2);
  EXPECT_EQ(begin2->stream_id, 9u);
  EXPECT_EQ(begin2->kind, static_cast<std::uint8_t>(StreamKind::kProduct));
  EXPECT_EQ(begin2->subset, 2u);
  EXPECT_EQ(begin2->total_bytes, 1u << 20);
  EXPECT_EQ(begin2->payload_crc, 0xabadcafeu);

  StreamChunkMsg chunk;
  chunk.stream_id = 9;
  chunk.offset = 65536;
  chunk.data = {0x00, 0x7f, 0xff, 0x10};
  const auto chunk2 = StreamChunkMsg::decode(chunk.encode());
  ASSERT_TRUE(chunk2);
  EXPECT_EQ(chunk2->stream_id, 9u);
  EXPECT_EQ(chunk2->offset, 65536u);
  EXPECT_EQ(chunk2->data, chunk.data);

  StreamAckMsg sack{9, 65540};
  const auto sack2 = StreamAckMsg::decode(sack.encode());
  ASSERT_TRUE(sack2);
  EXPECT_EQ(sack2->stream_id, 9u);
  EXPECT_EQ(sack2->received, 65540u);

  // The session/stream codecs reject truncation cleanly, like the rest.
  const auto truncated = [](std::vector<std::uint8_t> body) {
    body.pop_back();
    return body;
  };
  EXPECT_FALSE(ReconnectHelloMsg::decode(truncated(rh.encode())));
  EXPECT_FALSE(ReconnectAckMsg::decode(truncated(ra.encode())));
  EXPECT_FALSE(StreamBeginMsg::decode(truncated(begin.encode())));
  EXPECT_FALSE(StreamChunkMsg::decode(truncated(chunk.encode())));
  EXPECT_FALSE(StreamAckMsg::decode(truncated(sack.encode())));
}

TEST(ClusterProtocol, TraceContextTailsRoundTripAndDegradeToV2) {
  // v3 appends trace/telemetry tails to TaskAssign/Ping/Pong. The default
  // encode() carries them; encode(2) emits the legacy body, which must
  // still decode — with the tails at their zero defaults — so a v3
  // coordinator can speak each link's negotiated dialect.
  TaskAssignMsg assign{11, 2, 3, 1};
  assign.trace_id = 0xfeedfacecafef00dull;
  assign.parent_span = 77;
  assign.assign_ts_ns = 123456789012345;
  const auto assign3 = TaskAssignMsg::decode(assign.encode());
  ASSERT_TRUE(assign3);
  EXPECT_EQ(assign3->task, 11u);
  EXPECT_EQ(assign3->trace_id, 0xfeedfacecafef00dull);
  EXPECT_EQ(assign3->parent_span, 77u);
  EXPECT_EQ(assign3->assign_ts_ns, 123456789012345);
  const auto assign_v2_body = assign.encode(2);
  EXPECT_LT(assign_v2_body.size(), assign.encode().size());
  const auto assign2 = TaskAssignMsg::decode(assign_v2_body);
  ASSERT_TRUE(assign2);
  EXPECT_EQ(assign2->task, 11u);
  EXPECT_EQ(assign2->attempt, 1u);
  EXPECT_EQ(assign2->trace_id, 0u);
  EXPECT_EQ(assign2->parent_span, 0u);
  EXPECT_EQ(assign2->assign_ts_ns, 0);

  PingMsg ping{42, 99999, 7};
  ping.ack_telemetry_seq = 5;
  const auto ping3 = PingMsg::decode(ping.encode());
  ASSERT_TRUE(ping3);
  EXPECT_EQ(ping3->ack_telemetry_seq, 5u);
  const auto ping2 = PingMsg::decode(ping.encode(2));
  ASSERT_TRUE(ping2);
  EXPECT_EQ(ping2->seq, 42u);
  EXPECT_EQ(ping2->ack_telemetry_seq, 0u);

  PongMsg pong{42, 99999, 3, 17, 2};
  pong.worker_now_ns = 31337;
  const auto pong3 = PongMsg::decode(pong.encode());
  ASSERT_TRUE(pong3);
  EXPECT_EQ(pong3->worker_now_ns, 31337);
  const auto pong2 = PongMsg::decode(pong.encode(2));
  ASSERT_TRUE(pong2);
  EXPECT_EQ(pong2->frames_sent, 17u);
  EXPECT_EQ(pong2->worker_now_ns, 0);
}

TEST(ClusterProtocol, TelemetrySnapshotRoundTripsAndRejectsMalformed) {
  TelemetrySnapshotMsg msg;
  msg.worker_id = 3;
  msg.seq = 9;
  msg.first_span_index = 40;
  msg.trace_epoch_ns = 1726000000;
  msg.rss_kb = 2048;
  msg.peak_rss_kb = 4096;
  msg.cpu_user_us = 1234;
  msg.cpu_sys_us = 56;
  msg.counters = {{"tasks_executed", 7}, {"compute_us", 88000}};
  msg.gauges = {{"queue_depth", 2}};
  TelemetrySpan span;
  span.name = "task.compute";
  span.ts_us = 10;
  span.dur_us = 20;
  span.depth = 0;
  span.args = {{"task", 11}, {"attempt", 1}};
  msg.spans = {span};

  auto body = msg.encode();
  const auto decoded = TelemetrySnapshotMsg::decode(body);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->worker_id, 3u);
  EXPECT_EQ(decoded->seq, 9u);
  EXPECT_EQ(decoded->first_span_index, 40u);
  EXPECT_EQ(decoded->trace_epoch_ns, 1726000000);
  EXPECT_EQ(decoded->rss_kb, 2048);
  EXPECT_EQ(decoded->peak_rss_kb, 4096);
  EXPECT_EQ(decoded->cpu_user_us, 1234);
  EXPECT_EQ(decoded->cpu_sys_us, 56);
  EXPECT_EQ(decoded->counters, msg.counters);
  EXPECT_EQ(decoded->gauges, msg.gauges);
  ASSERT_EQ(decoded->spans.size(), 1u);
  EXPECT_EQ(decoded->spans[0].name, "task.compute");
  EXPECT_EQ(decoded->spans[0].ts_us, 10u);
  EXPECT_EQ(decoded->spans[0].dur_us, 20u);
  EXPECT_EQ(decoded->spans[0].args, span.args);

  // Truncate at every prefix: decode must fail cleanly, never throw.
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(body.begin(), body.begin() + cut);
    EXPECT_FALSE(TelemetrySnapshotMsg::decode(prefix)) << "cut=" << cut;
  }
  body.push_back(0xff);  // trailing garbage is rejected too
  EXPECT_FALSE(TelemetrySnapshotMsg::decode(body));
}

TEST(ClusterProtocol, MalformedBodiesDecodeToNullopt) {
  TaskResultMsg result;
  result.task = 5;
  result.claims.push_back({4, BigInt(17)});
  auto body = result.encode();
  // Truncate at every prefix: decode must fail cleanly, never throw.
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(body.begin(),
                                           body.begin() + cut);
    EXPECT_FALSE(TaskResultMsg::decode(prefix)) << "cut=" << cut;
  }
  // Trailing garbage is rejected too.
  body.push_back(0xff);
  EXPECT_FALSE(TaskResultMsg::decode(body));
  EXPECT_FALSE(HelloMsg::decode({}));
}

// ------------------------------------------------------- frame transport ----

class FramePair : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a_.reset(fds[0]);
    b_.reset(fds[1]);
  }
  util::net::UniqueFd a_, b_;
};

TEST_F(FramePair, SendRecvRoundTrip) {
  FrameConn tx(a_.get(), 0);
  FrameConn rx(b_.get(), 1);
  const PingMsg ping{9, 1234};
  ASSERT_TRUE(tx.send(MsgType::kPing, ping.encode()));
  Frame frame;
  ASSERT_EQ(rx.recv(&frame, std::chrono::milliseconds(1000)),
            RecvStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kPing);
  const auto decoded = PingMsg::decode(frame.body);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->seq, 9u);
  EXPECT_EQ(tx.stats().sent, 1u);
}

TEST_F(FramePair, RecvTimesOutThenClosedOnEof) {
  FrameConn rx(b_.get(), 1);
  Frame frame;
  EXPECT_EQ(rx.recv(&frame, std::chrono::milliseconds(10)),
            RecvStatus::kTimeout);
  a_.reset();  // peer closes
  EXPECT_EQ(rx.recv(&frame, std::chrono::milliseconds(1000)),
            RecvStatus::kClosed);
}

TEST_F(FramePair, GarbledFrameIsRejectedByCrcAndCounted) {
  util::FaultConfig faults;
  faults.seed = 5;
  faults.frame_garble_probability = 1.0;
  const util::FaultInjector injector(faults);
  FrameConn tx(a_.get(), 0, &injector);
  FrameConn rx(b_.get(), 1);

  // Injectable frame: garbled on the wire, rejected by the receiver.
  ASSERT_TRUE(tx.send(MsgType::kTaskAssign, TaskAssignMsg{1, 0, 1, 0}.encode(),
                      /*injectable=*/true));
  Frame frame;
  EXPECT_EQ(rx.recv(&frame, std::chrono::milliseconds(1000)),
            RecvStatus::kCorrupt);
  EXPECT_EQ(tx.stats().garbled, 1u);
  EXPECT_EQ(rx.stats().corrupt, 1u);

  // Control frames bypass injection even at probability 1.
  ASSERT_TRUE(tx.send(MsgType::kPing, PingMsg{1, 2}.encode()));
  EXPECT_EQ(rx.recv(&frame, std::chrono::milliseconds(1000)),
            RecvStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kPing);
}

TEST_F(FramePair, DroppedFrameNeverArrives) {
  util::FaultConfig faults;
  faults.seed = 6;
  faults.frame_drop_probability = 1.0;
  const util::FaultInjector injector(faults);
  FrameConn tx(a_.get(), 0, &injector);
  FrameConn rx(b_.get(), 1);

  ASSERT_TRUE(tx.send(MsgType::kTaskAssign, TaskAssignMsg{1, 0, 1, 0}.encode(),
                      /*injectable=*/true));
  EXPECT_EQ(tx.stats().dropped, 1u);
  EXPECT_EQ(tx.stats().sent, 0u);
  Frame frame;
  EXPECT_EQ(rx.recv(&frame, std::chrono::milliseconds(20)),
            RecvStatus::kTimeout);
}

TEST_F(FramePair, PeerDeathBetweenFramesFailsSendWithoutSigpipe) {
  // Regression for the SIGPIPE guard: a peer that dies between frames must
  // turn subsequent sends into a clean `false`, not a process-killing
  // signal. The child holds the far end, reads one frame, and exits
  // abruptly without shutdown.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    FrameConn rx(b_.get(), 1);
    Frame frame;
    rx.recv(&frame, std::chrono::milliseconds(5000));
    ::_exit(0);
  }
  b_.reset();  // the child now owns the only far-end descriptor

  FrameConn tx(a_.get(), 0);
  ASSERT_TRUE(tx.send(MsgType::kPing, PingMsg{1, 0, 0}.encode()));
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);

  // The peer is gone. The first send may still land in the socket buffer;
  // within a few frames the kernel reports the broken pipe and send()
  // returns false — and this process is still here to notice.
  bool failed = false;
  for (int i = 0; i < 64 && !failed; ++i) {
    failed = !tx.send(MsgType::kPing, PingMsg{2, 0, 0}.encode());
  }
  EXPECT_TRUE(failed);
}

TEST(ClusterProtocol, LoopbackFrameConnsSetNodelayOnBothEnds) {
  // A frame is one write followed by a wait for the reply; with Nagle on,
  // each exchange would stall on the peer's delayed ACK.
  util::net::UniqueFd listener(util::net::listen_tcp("127.0.0.1", 0, 4));
  ASSERT_TRUE(listener.valid());
  util::net::UniqueFd client(util::net::connect_tcp(
      "127.0.0.1",
      static_cast<std::uint16_t>(util::net::local_port(listener.get())),
      std::chrono::milliseconds(2000)));
  ASSERT_TRUE(client.valid());
  util::net::UniqueFd server(util::net::accept_cloexec(listener.get()));
  ASSERT_TRUE(server.valid());

  FrameConn tx(client.get(), 0);
  FrameConn rx(server.get(), 1);
  for (const FrameConn* conn : {&tx, &rx}) {
    int nodelay = 0;
    socklen_t len = sizeof(nodelay);
    ASSERT_EQ(::getsockopt(conn->fd(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                           &len),
              0);
    EXPECT_NE(nodelay, 0) << "fd " << conn->fd();
  }
  ASSERT_TRUE(tx.send(MsgType::kPing, PingMsg{3, 0, 0}.encode()));
  Frame frame;
  ASSERT_EQ(rx.recv(&frame, std::chrono::milliseconds(2000)), RecvStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kPing);
}

// --------------------------------------------------------- fault-free e2e ----

TEST(Cluster, FaultFreeMatchesBatchGcdAcrossWorkerCounts) {
  const auto moduli = make_moduli(201, 20);
  const auto reference = batchgcd::batch_gcd(moduli);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ClusterStats stats;
    const auto result =
        batch_gcd_cluster(moduli, fast_config(3, workers), &stats);
    EXPECT_EQ(result.divisors, reference.divisors) << "workers=" << workers;
    EXPECT_EQ(stats.tasks, 9u);
    EXPECT_EQ(stats.tasks_executed, 9u);
    EXPECT_EQ(stats.tasks_resumed, 0u);
    EXPECT_EQ(stats.results_quarantined, 0u);
    EXPECT_GE(stats.workers_spawned, workers);
    EXPECT_GT(stats.frames_sent, 0u);
  }
}

/// Every k-subset engine against the pairwise oracle on a corpus whose
/// duplicated modulus sits at both ends, so the copies land in different
/// subsets: only an off-diagonal task sees the pair, and it must report the
/// full modulus. A shared prime also spans the subsets.
class EngineEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineEquivalence, DuplicateAcrossSubsetsMatchesNaive) {
  std::vector<BigInt> moduli = make_moduli(202, 24);
  rng::PrngRandomSource rng(203);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 128;
  opts.style = rsa::PrimeStyle::kPlain;
  opts.miller_rabin_rounds = 6;
  const BigInt dup = rsa::generate_key(rng, opts).pub.n;
  const BigInt p = rsa::generate_prime(rng, 64, opts);
  moduli.insert(moduli.begin(), {dup, p * rsa::generate_prime(rng, 64, opts)});
  moduli.push_back(p * rsa::generate_prime(rng, 64, opts));
  moduli.push_back(dup);
  const std::size_t k = GetParam();
  const auto naive = batchgcd::naive_pairwise_gcd(moduli);
  ASSERT_EQ(naive.divisors.front(), dup);
  ASSERT_EQ(naive.divisors.back(), dup);
  ASSERT_EQ(naive.divisors[1], p);

  EXPECT_EQ(batchgcd::batch_gcd_distributed(moduli, k).divisors,
            naive.divisors);
  batchgcd::CoordinatorConfig coordinated;
  coordinated.subsets = k;
  coordinated.workers = 2;
  EXPECT_EQ(batchgcd::batch_gcd_coordinated(moduli, coordinated).divisors,
            naive.divisors);
  EXPECT_EQ(batch_gcd_cluster(moduli, fast_config(k, 2)).divisors,
            naive.divisors);
}

INSTANTIATE_TEST_SUITE_P(SubsetCounts, EngineEquivalence,
                         ::testing::Values(2, 3, 5));

TEST(Cluster, EmptyInputAndMissingBinary) {
  ClusterStats stats;
  const auto empty = batch_gcd_cluster({}, fast_config(3, 2), &stats);
  EXPECT_TRUE(empty.divisors.empty());

  auto config = fast_config(2, 1);
  config.worker_binary = "/nonexistent/gcd_worker";
  const std::vector<BigInt> moduli = {BigInt(77), BigInt(221)};
  EXPECT_THROW(batch_gcd_cluster(moduli, config), ClusterError);
}

// ------------------------------------------------------------- chaos e2e ----

TEST(Cluster, ChaosSigkillSigstopAndLossyFramesMatchBatchGcd) {
  // The acceptance gate: 4 workers under real SIGKILL/SIGSTOP plus frame
  // corruption/drops plus real mid-task crashes, corrupt results, and
  // stragglers — and the vulnerable set must be byte-identical to the
  // fault-free single-process reference.
  const auto moduli = make_moduli(202, 20);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 77;
  faults.sigkill_probability = 0.08;
  faults.sigstop_probability = 0.05;
  faults.frame_drop_probability = 0.05;
  faults.frame_garble_probability = 0.05;
  faults.frame_delay_probability = 0.10;
  faults.frame_delay_ms = 2;
  faults.crash_probability = 0.05;
  faults.corrupt_probability = 0.08;
  const util::FaultInjector injector(faults);

  auto config = fast_config(4, 4);
  config.task_timeout = std::chrono::milliseconds(600);
  config.injector = &injector;
  config.restart_budget = 64;
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_EQ(stats.tasks_executed + stats.tasks_resumed, 16u);
  // The schedule is deterministic, so the chaos actually happened:
  EXPECT_GT(stats.sigkills_injected + stats.sigstops_injected, 0u);
  EXPECT_GT(stats.workers_lost, 0u);
  EXPECT_GT(stats.respawns, 0u);
  EXPECT_LE(stats.respawns, config.restart_budget);
}

TEST(Cluster, CorruptResultsAreQuarantinedAndWorkerDemoted) {
  const auto moduli = make_moduli(203, 16);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 31;
  faults.corrupt_probability = 0.6;  // most first attempts ship garbage
  const util::FaultInjector injector(faults);

  auto config = fast_config(3, 2);
  config.injector = &injector;
  config.quarantine_strikes = 2;
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GT(stats.results_quarantined, 0u);
  EXPECT_GT(stats.workers_demoted, 0u);
  EXPECT_GT(stats.retries, 0u);
}

TEST(Cluster, SigstopIsCaughtByHeartbeatNotTimeoutAlone) {
  const auto moduli = make_moduli(204, 14);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 13;
  faults.sigstop_probability = 0.3;
  const util::FaultInjector injector(faults);

  auto config = fast_config(3, 2);
  config.injector = &injector;
  config.task_timeout = std::chrono::milliseconds(5000);  // heartbeat first
  config.heartbeat_interval = std::chrono::milliseconds(20);
  config.heartbeat_misses = 5;
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GT(stats.sigstops_injected, 0u);
  EXPECT_GT(stats.heartbeat_deaths, 0u);
  EXPECT_GT(stats.max_heartbeat_rtt_us, 0u);
}

// -------------------------------------------------- degradation & failure ----

TEST(Cluster, DegradesToFewerWorkersWhenBudgetExhausted) {
  const auto moduli = make_moduli(205, 14);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 17;
  faults.sigkill_probability = 0.25;
  const util::FaultInjector injector(faults);

  auto config = fast_config(3, 4);
  config.injector = &injector;
  config.restart_budget = 0;  // the first death retires its slot
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GT(stats.workers_lost, 0u);
  EXPECT_EQ(stats.respawns, 0u);
  EXPECT_GT(stats.workers_retired, 0u);  // degraded, still finished
}

TEST(Cluster, FailsCleanlyWhenAllWorkersExhausted) {
  const auto moduli = make_moduli(206, 10);

  util::FaultConfig faults;
  faults.seed = 19;
  faults.sigkill_probability = 1.0;  // every assignment kills its worker
  const util::FaultInjector injector(faults);

  auto config = fast_config(2, 2);
  config.injector = &injector;
  config.restart_budget = 2;
  EXPECT_THROW(batch_gcd_cluster(moduli, config), ClusterError);
}

// ------------------------------------------------------------ checkpoints ----

TEST(Cluster, HaltedRunResumesFromJournal) {
  const auto moduli = make_moduli(207, 18);
  const auto reference = batchgcd::batch_gcd(moduli);
  const std::string path = temp_checkpoint("resume");
  std::remove(path.c_str());

  auto config = fast_config(4, 2);
  config.checkpoint_path = path;
  config.halt_after_tasks = 5;
  EXPECT_THROW(batch_gcd_cluster(moduli, config),
               batchgcd::CoordinatorInterrupted);

  config.halt_after_tasks = 0;
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GE(stats.tasks_resumed, 5u);
  EXPECT_EQ(stats.tasks_resumed + stats.tasks_executed, 16u);
  // The journal is superseded by success and removed.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f) std::fclose(f);
}

TEST(Cluster, JournalIsInterchangeableWithInProcessCoordinator) {
  // A run halted under the cluster engine resumes under the in-process
  // coordinator, and vice versa: one journal format, two engines.
  const auto moduli = make_moduli(208, 18);
  const auto reference = batchgcd::batch_gcd(moduli);

  {  // cluster -> in-process
    const std::string path = temp_checkpoint("x_engine_a");
    std::remove(path.c_str());
    auto config = fast_config(4, 2);
    config.checkpoint_path = path;
    config.halt_after_tasks = 4;
    EXPECT_THROW(batch_gcd_cluster(moduli, config),
                 batchgcd::CoordinatorInterrupted);

    batchgcd::CoordinatorConfig inproc;
    inproc.subsets = 4;
    inproc.workers = 2;
    inproc.checkpoint_path = path;
    batchgcd::CoordinatorStats stats;
    const auto result = batchgcd::batch_gcd_coordinated(moduli, inproc, &stats);
    EXPECT_EQ(result.divisors, reference.divisors);
    EXPECT_GE(stats.tasks_resumed, 4u);
  }
  {  // in-process -> cluster
    const std::string path = temp_checkpoint("x_engine_b");
    std::remove(path.c_str());
    batchgcd::CoordinatorConfig inproc;
    inproc.subsets = 4;
    inproc.workers = 2;
    inproc.checkpoint_path = path;
    inproc.halt_after_tasks = 4;
    EXPECT_THROW(batchgcd::batch_gcd_coordinated(moduli, inproc),
                 batchgcd::CoordinatorInterrupted);

    auto config = fast_config(4, 2);
    config.checkpoint_path = path;
    ClusterStats stats;
    const auto result = batch_gcd_cluster(moduli, config, &stats);
    EXPECT_EQ(result.divisors, reference.divisors);
    EXPECT_GE(stats.tasks_resumed, 4u);
  }
}

TEST(Cluster, ChaosRunWithCheckpointLeavesNoTmpOrphans) {
  const auto moduli = make_moduli(209, 14);
  const std::string path = temp_checkpoint("no_orphans");
  std::remove(path.c_str());

  util::FaultConfig faults;
  faults.seed = 23;
  faults.sigkill_probability = 0.15;
  faults.frame_garble_probability = 0.05;
  const util::FaultInjector injector(faults);

  auto config = fast_config(3, 3);
  config.task_timeout = std::chrono::milliseconds(600);
  config.injector = &injector;
  config.checkpoint_path = path;
  config.remove_checkpoint_on_success = false;
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, batchgcd::batch_gcd(moduli).divisors);

  // The journal exists (retained on request); its tmp sibling must not.
  std::FILE* journal = std::fopen(path.c_str(), "rb");
  EXPECT_NE(journal, nullptr);
  if (journal) std::fclose(journal);
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp) std::fclose(tmp);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- metrics ----

TEST(Cluster, MetricsSurfaceClusterCounters) {
  const auto moduli = make_moduli(210, 14);
  obs::Telemetry telemetry;

  auto config = fast_config(3, 2);
  config.telemetry = &telemetry;
  ClusterStats stats;
  batch_gcd_cluster(moduli, config, &stats);

  const auto snapshot = telemetry.metrics().snapshot();
  EXPECT_EQ(snapshot.counter("cluster.tasks"), 9u);
  EXPECT_EQ(snapshot.counter("cluster.subsets"), 3u);
  EXPECT_EQ(snapshot.counter("cluster.workers"), 2u);
  EXPECT_EQ(snapshot.counter("cluster.tasks_executed"), 9u);
  EXPECT_EQ(snapshot.counter("cluster.attempts"), stats.attempts);
  EXPECT_GT(snapshot.counter("cluster.frames_sent"), 0u);
  const auto gauge = snapshot.gauges.find("cluster.workers_alive");
  ASSERT_NE(gauge, snapshot.gauges.end());
  EXPECT_EQ(gauge->second, 0);  // all workers shut down at the end
  const auto rtt = snapshot.histograms.find("cluster.heartbeat_rtt_us");
  ASSERT_NE(rtt, snapshot.histograms.end());
  EXPECT_GT(rtt->second.count, 0u);
}

// --------------------------------------------------------- fleet telemetry ----

/// Reads a whole file into a string; empty when the file cannot be opened.
std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ClusterTelemetry, FleetCountersSumToCoordinatorCommitsUnderLinkFaults) {
  // The fleet accounting invariant: the fleet.tasks_executed rollup (summed
  // worker-side counters, shipped over a faulted link with outbox replay
  // across reconnects) must equal the coordinator's committed-task count.
  // Disconnect faults heal by session reconnect, so no task is reassigned
  // or re-executed — which the test asserts as its own precondition; replay
  // after reconnect must then be idempotent, not double-counted.
  const auto moduli = make_moduli(230, 18);
  const auto reference = batchgcd::batch_gcd(moduli);
  obs::Telemetry telemetry;

  util::FaultConfig faults;
  faults.seed = 41;
  faults.conn_disconnect_probability = 0.04;
  const util::FaultInjector injector(faults);

  auto config = fast_config(3, 2);
  config.session_grace = std::chrono::milliseconds(5000);
  config.injector = &injector;
  config.task_timeout = std::chrono::milliseconds(5000);
  config.telemetry = &telemetry;
  config.telemetry_interval = std::chrono::milliseconds(10);
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  // Accounting precondition: every commit was executed exactly once.
  ASSERT_EQ(stats.tasks_reassigned, 0u);
  ASSERT_EQ(stats.task_timeouts, 0u);
  EXPECT_EQ(stats.tasks_executed, 9u);
  EXPECT_GT(stats.telemetry_snapshots, 0u);

  const auto snap = telemetry.metrics().snapshot();
  EXPECT_EQ(snap.counter("fleet.tasks_executed"), stats.tasks_executed);
  EXPECT_EQ(snap.counter("fleet.tasks_executed"),
            snap.counter("fleet.worker.0.tasks_executed") +
                snap.counter("fleet.worker.1.tasks_executed"));
  EXPECT_EQ(snap.counter("fleet.telemetry_snapshots"),
            stats.telemetry_snapshots);
  const auto reporting = snap.gauges.find("fleet.workers_reporting");
  ASSERT_NE(reporting, snap.gauges.end());
  EXPECT_EQ(reporting->second, 2);
}

TEST(ClusterTelemetry, LegacyV2WorkerCompletesAgainstV3Coordinator) {
  // Version-compat gate: a worker pinned to the v2 dialect (no telemetry,
  // legacy Hello/Pong bodies, v2 TaskAssign bodies from the coordinator)
  // still completes a run against the v3 coordinator with identical output.
  const auto moduli = make_moduli(231, 14);
  const auto reference = batchgcd::batch_gcd(moduli);

  auto config = fast_config(3, 2);
  config.worker_extra_args = {"--protocol-v2"};
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_EQ(stats.tasks_executed, 9u);
  // v2 workers export nothing; the fleet plane simply stays empty.
  EXPECT_EQ(stats.telemetry_snapshots, 0u);
  EXPECT_EQ(stats.telemetry_spans, 0u);
}

TEST(ClusterTelemetry, MergedFleetTraceCoversEveryCommittedTask) {
  // The tentpole artifact: a run with fleet_trace_path set produces one
  // merged Chrome trace where every committed task contributes a
  // coordinator assign span plus the worker-side recv/compute/verify/send
  // spans, and a fleet metrics JSON lands next to it.
  const auto moduli = make_moduli(232, 14);
  const std::string trace_path = ::testing::TempDir() + "fleet_trace.json";
  const std::string metrics_path = trace_path + ".metrics.json";
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());

  auto config = fast_config(3, 2);
  config.fleet_trace_path = trace_path;
  config.telemetry_interval = std::chrono::milliseconds(10);
  ClusterStats stats;
  batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(stats.tasks_executed, 9u);
  EXPECT_GT(stats.telemetry_spans, 0u);

  const std::string trace = slurp(trace_path);
  ASSERT_FALSE(trace.empty()) << trace_path;
  // Chrome trace_event envelope with a lane per process.
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"coordinator\""), std::string::npos);
  EXPECT_NE(trace.find("\"worker 0\""), std::string::npos);
  EXPECT_NE(trace.find("\"worker 1\""), std::string::npos);
  // One assign span per attempt, one worker span quartet per execution.
  EXPECT_EQ(count_occurrences(trace, "\"task.assign\""), stats.attempts);
  EXPECT_EQ(count_occurrences(trace, "\"task.recv\""), 9u);
  EXPECT_EQ(count_occurrences(trace, "\"task.compute\""), 9u);
  EXPECT_EQ(count_occurrences(trace, "\"task.verify\""), 9u);
  EXPECT_EQ(count_occurrences(trace, "\"task.send\""), 9u);
  // Worker spans carry the propagated trace context.
  EXPECT_NE(trace.find("\"trace_id\""), std::string::npos);
  EXPECT_NE(trace.find("\"parent_span\""), std::string::npos);

  const std::string metrics = slurp(metrics_path);
  ASSERT_FALSE(metrics.empty()) << metrics_path;
  EXPECT_NE(metrics.find("\"fleet\""), std::string::npos);
  EXPECT_NE(metrics.find("\"tasks_executed\""), std::string::npos);

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

// ----------------------------------------------------------- cancellation ----

TEST(Cluster, CancellationStopsTheRunAndKeepsTheJournal) {
  const auto moduli = make_moduli(211, 14);
  const std::string path = temp_checkpoint("cancel");
  std::remove(path.c_str());

  util::CancellationToken token;
  auto config = fast_config(3, 2);
  config.checkpoint_path = path;
  config.cancel = &token;
  token.cancel("test cancel");
  EXPECT_THROW(batch_gcd_cluster(moduli, config), util::Cancelled);

  // Journal (possibly empty of records) survives for resume.
  ClusterStats stats;
  auto resume = fast_config(3, 2);
  resume.checkpoint_path = path;
  const auto result = batch_gcd_cluster(moduli, resume, &stats);
  EXPECT_EQ(result.divisors, batchgcd::batch_gcd(moduli).divisors);
}

// ------------------------------------------------- sessions & streaming ----

/// fast_config plus a session grace window: link loss parks the session for
/// `grace_ms` instead of killing the worker.
ClusterConfig session_config(std::size_t k, std::size_t workers,
                             int grace_ms) {
  auto config = fast_config(k, workers);
  config.session_grace = std::chrono::milliseconds(grace_ms);
  return config;
}

TEST(ClusterSession, ReconnectHealsAbruptDisconnects) {
  // The tentpole invariant: deterministic abrupt disconnects on both sides
  // of every link, and the run heals by session reconnect — same vulnerable
  // set, no respawn storm.
  const auto moduli = make_moduli(220, 20);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 41;
  faults.conn_disconnect_probability = 0.04;
  const util::FaultInjector injector(faults);

  auto config = session_config(3, 2, /*grace_ms=*/5000);
  config.injector = &injector;
  config.task_timeout = std::chrono::milliseconds(1000);
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GT(stats.conn_faults_injected + stats.reconnects, 0u);
  EXPECT_GT(stats.reconnects, 0u);
  EXPECT_EQ(stats.tasks_executed + stats.tasks_resumed, 9u);
}

TEST(ClusterSession, PartitionAndHalfOpenLinksHealWithinGrace) {
  // Timed partitions mute a link without closing it: the heartbeat deadline
  // declares the link lost, the shutdown() wakes the muted peer, and the
  // worker dials back into its session.
  const auto moduli = make_moduli(221, 18);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 43;
  faults.conn_partition_probability = 0.03;
  faults.conn_half_open_probability = 0.03;
  faults.conn_partition_ms = 400;
  const util::FaultInjector injector(faults);

  auto config = session_config(3, 2, /*grace_ms=*/5000);
  config.injector = &injector;
  config.task_timeout = std::chrono::milliseconds(1500);
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GT(stats.conn_faults_injected, 0u);
  EXPECT_EQ(stats.tasks_executed + stats.tasks_resumed, 9u);
}

TEST(ClusterSession, GraceExpiryFallsBackToRespawn) {
  // A SIGKILLed worker cannot dial back: its session must expire after the
  // grace window and the slot respawn within the restart budget.
  const auto moduli = make_moduli(222, 16);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 47;
  faults.sigkill_probability = 0.2;
  const util::FaultInjector injector(faults);

  auto config = session_config(3, 2, /*grace_ms=*/100);
  config.injector = &injector;
  config.task_timeout = std::chrono::milliseconds(600);
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GT(stats.sigkills_injected, 0u);
  EXPECT_GT(stats.sessions_expired, 0u);
  EXPECT_GT(stats.respawns, 0u);
}

TEST(ClusterStream, SmallChunksStreamPayloadsWithBackpressure) {
  // Tiny chunks force every payload through the windowed go-back-N path;
  // the output must not care.
  const auto moduli = make_moduli(223, 40);
  const auto reference = batchgcd::batch_gcd(moduli);

  auto config = session_config(2, 2, /*grace_ms=*/5000);
  config.stream_chunk_bytes = 64;
  config.stream_window_chunks = 2;
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  // Far more chunk frames than payloads: the payloads were actually split.
  EXPECT_GT(stats.stream_chunks_sent, 2u * 2u * 2u);
  EXPECT_EQ(stats.reconnects, 0u);
}

TEST(ClusterStream, MidStreamDisconnectResumesTransfer) {
  // Disconnects landing inside a chunked transfer: after the reconnect the
  // sender rewinds to the acked prefix (counted as a stream resume) instead
  // of re-shipping or corrupting the payload.
  const auto moduli = make_moduli(224, 40);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 53;
  faults.conn_disconnect_probability = 0.05;
  const util::FaultInjector injector(faults);

  auto config = session_config(2, 2, /*grace_ms=*/5000);
  config.injector = &injector;
  config.stream_chunk_bytes = 64;
  config.stream_window_chunks = 2;
  config.task_timeout = std::chrono::milliseconds(1500);
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GT(stats.reconnects, 0u);
  EXPECT_GT(stats.stream_resumes, 0u);
}

// ---------------------------------------------------- remote dial-in e2e ----

TEST(ClusterRemote, DialInWorkersMatchBatchGcd) {
  // workers = 0, remote_workers = 2: the coordinator spawns nothing; this
  // test plays the operator, dialing two gcd_worker processes into the
  // advertised port. Shutdown must reach them (exit 0) and the output must
  // match the single-process reference.
  const auto moduli = make_moduli(225, 20);
  const auto reference = batchgcd::batch_gcd(moduli);

  auto config = session_config(3, 0, /*grace_ms=*/5000);
  config.workers = 0;
  config.remote_workers = 2;
  config.worker_binary.clear();  // nothing to spawn, nothing to validate

  std::vector<pid_t> pids;
  config.on_listen = [&pids](std::uint16_t port) {
    const std::string bin = worker_binary();
    const std::string hostport = "127.0.0.1:" + std::to_string(port);
    for (int i = 0; i < 2; ++i) {
      const std::string id = std::to_string(i);
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        ::execl(bin.c_str(), bin.c_str(), "--connect", hostport.c_str(),
                "--worker-id", id.c_str(), "--session-reconnect",
                "--reconnect-window-ms", "5000", "--keepalive",
                static_cast<char*>(nullptr));
        ::_exit(127);
      }
      pids.push_back(pid);
    }
  };

  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_EQ(stats.tasks_executed + stats.tasks_resumed, 9u);

  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status)) << "worker " << pid << " did not exit";
    EXPECT_EQ(WEXITSTATUS(status), 0) << "worker " << pid;
  }
}

}  // namespace
}  // namespace weakkeys::cluster
