#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>

#include <chrono>

#include "util/date.hpp"
#include "util/fault_injector.hpp"
#include "util/hex.hpp"
#include "util/net.hpp"
#include "util/prng.hpp"
#include "util/retry.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::util {
namespace {

// ---------------------------------------------------------------- Date ----

TEST(Date, DefaultIsEpoch) {
  const Date d;
  EXPECT_EQ(d.year(), 1970);
  EXPECT_EQ(d.month(), 1);
  EXPECT_EQ(d.day(), 1);
  EXPECT_EQ(d.days_since_epoch(), 0);
}

TEST(Date, RoundTripsToString) {
  const Date d(2014, 4, 8);
  EXPECT_EQ(d.to_string(), "2014-04-08");
  EXPECT_EQ(Date::parse("2014-04-08"), d);
}

TEST(Date, RejectsMalformedParse) {
  EXPECT_THROW(Date::parse("2014/04/08"), std::invalid_argument);
  EXPECT_THROW(Date::parse("2014-4-8"), std::invalid_argument);
  EXPECT_THROW(Date::parse("hello"), std::invalid_argument);
  EXPECT_THROW(Date::parse("2014-13-01"), std::invalid_argument);
  EXPECT_THROW(Date::parse("2015-02-29"), std::invalid_argument);
}

TEST(Date, RejectsInvalidCivilDates) {
  EXPECT_THROW(Date(2015, 2, 29), std::invalid_argument);
  EXPECT_THROW(Date(2015, 0, 1), std::invalid_argument);
  EXPECT_THROW(Date(2015, 1, 0), std::invalid_argument);
  EXPECT_THROW(Date(2015, 4, 31), std::invalid_argument);
  EXPECT_NO_THROW(Date(2016, 2, 29));  // leap year
}

TEST(Date, LeapYearRules) {
  EXPECT_TRUE(Date::is_leap_year(2016));
  EXPECT_TRUE(Date::is_leap_year(2000));
  EXPECT_FALSE(Date::is_leap_year(1900));
  EXPECT_FALSE(Date::is_leap_year(2015));
  EXPECT_EQ(Date::days_in_month(2016, 2), 29);
  EXPECT_EQ(Date::days_in_month(2015, 2), 28);
}

TEST(Date, DaysSinceEpochKnownValues) {
  EXPECT_EQ(Date(2000, 3, 1).days_since_epoch(), 11017);
  EXPECT_EQ(Date(1969, 12, 31).days_since_epoch(), -1);
}

TEST(Date, DayRoundTripAcrossRange) {
  for (std::int64_t days = -200000; days <= 200000; days += 379) {
    const Date d = Date::from_days_since_epoch(days);
    EXPECT_EQ(d.days_since_epoch(), days);
  }
}

TEST(Date, AddMonthsClampsDay) {
  EXPECT_EQ(Date(2014, 1, 31).add_months(1), Date(2014, 2, 28));
  EXPECT_EQ(Date(2016, 1, 31).add_months(1), Date(2016, 2, 29));
  EXPECT_EQ(Date(2014, 1, 15).add_months(-13), Date(2012, 12, 15));
}

TEST(Date, AddDays) {
  EXPECT_EQ(Date(2014, 12, 31).add_days(1), Date(2015, 1, 1));
  EXPECT_EQ(Date(2014, 1, 1).add_days(-1), Date(2013, 12, 31));
}

TEST(Date, MonthsBetween) {
  EXPECT_EQ(months_between(Date(2010, 7, 1), Date(2016, 5, 30)), 70);
  EXPECT_EQ(months_between(Date(2016, 5, 1), Date(2010, 7, 31)), -70);
  EXPECT_EQ(months_between(Date(2014, 4, 30), Date(2014, 4, 1)), 0);
}

TEST(Date, Ordering) {
  EXPECT_LT(Date(2014, 4, 7), Date(2014, 4, 8));
  EXPECT_LT(Date(2013, 12, 31), Date(2014, 1, 1));
  EXPECT_GT(Date(2014, 4, 8), Date(2013, 4, 8));
}

// ----------------------------------------------------------------- hex ----

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xab, 0xff, 0x10};
  EXPECT_EQ(to_hex(data), "0001abff10");
  EXPECT_EQ(from_hex("0001abff10"), data);
  EXPECT_EQ(from_hex("0001ABFF10"), data);
}

TEST(Hex, EmptyIsEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Hex, RejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);    // bad digit
}

// ---------------------------------------------------------------- PRNG ----

TEST(Prng, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, XoshiroDeterministicAndSeedSensitive) {
  Xoshiro256 a(1), b(1), c(2);
  bool differs = false;
  for (int i = 0; i < 64; ++i) {
    const auto av = a();
    EXPECT_EQ(av, b());
    if (av != c()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Prng, BelowIsInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Prng, BelowCoversSmallRange) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Prng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Prng, ChanceExtremes) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// ---------------------------------------------------------- ThreadPool ----

TEST(ThreadPool, RunsSubmittedWork) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, TaskExceptionsDoNotWedgeThePool) {
  // A throwing task must surface through its future and leave the worker
  // alive: later submissions still run on the same pool.
  ThreadPool pool(2);
  for (int round = 0; round < 8; ++round) {
    auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(bad.get(), std::runtime_error);
  }
  auto good = pool.submit([] { return 7; });
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPool, ParallelForDrainsAllTasksWhenOneThrows) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   executed++;
                                   if (i == 3) {
                                     throw std::invalid_argument("task 3");
                                   }
                                 }),
               std::invalid_argument);
  // parallel_for's contract: every task finished before the rethrow, so
  // nothing still references the closure after the call returns.
  EXPECT_EQ(executed.load(), 64);
}

TEST(ThreadPool, ManyTasksDrainBeforeDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 500; ++i) {
      futures.push_back(pool.submit([&count] { count++; }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, MetricsCompleteWhenParallelForReturns) {
  // The pool's instruments must already count every task the moment
  // parallel_for returns; repeated rounds give a late record room to show.
  for (const std::size_t n : {1u, 7u, 400u}) {
    obs::Telemetry telemetry(/*tracing_enabled=*/false);
    ThreadPool pool(4, &telemetry);
    for (std::size_t round = 1; round <= 20; ++round) {
      pool.parallel_for(n, [](std::size_t) {});
      const auto snap = telemetry.metrics().snapshot();
      ASSERT_EQ(snap.counter("threadpool.tasks_completed"), n * round)
          << "n=" << n << " round " << round;
      ASSERT_EQ(snap.histograms.at("threadpool.task_us").count, n * round)
          << "n=" << n << " round " << round;
    }
  }
}

// --------------------------------------------------------- RetryPolicy ----

TEST(RetryPolicy, DelayIsCappedExponential) {
  RetryPolicy policy;
  policy.base = std::chrono::milliseconds(3);
  policy.cap = std::chrono::milliseconds(20);
  EXPECT_EQ(policy.delay(0), std::chrono::milliseconds(3));
  EXPECT_EQ(policy.delay(1), std::chrono::milliseconds(6));
  EXPECT_EQ(policy.delay(2), std::chrono::milliseconds(12));
  EXPECT_EQ(policy.delay(3), std::chrono::milliseconds(20));  // capped
  EXPECT_EQ(policy.delay(63), std::chrono::milliseconds(20));
  // Shift counts far past 64 bits must not wrap back below the cap.
  EXPECT_EQ(policy.delay(1000), std::chrono::milliseconds(20));
}

TEST(RetryPolicy, ExhaustionIsZeroBased) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  EXPECT_FALSE(policy.exhausted(0));
  EXPECT_FALSE(policy.exhausted(2));
  EXPECT_TRUE(policy.exhausted(3));
  EXPECT_TRUE(policy.exhausted(4));
}

TEST(RetryPolicy, JitterIsDeterministicBoundedAndKeyed) {
  RetryPolicy policy;
  policy.base = std::chrono::milliseconds(8);
  policy.cap = std::chrono::milliseconds(64);
  policy.jitter = 0.5;
  policy.seed = 99;

  bool spread = false;
  for (std::uint64_t key = 0; key < 32; ++key) {
    for (std::size_t attempt = 0; attempt < 4; ++attempt) {
      const auto d = policy.jittered_delay(key, attempt);
      // Identical (seed, key, attempt) always replays identically.
      EXPECT_EQ(d, policy.jittered_delay(key, attempt));
      const auto base = policy.delay(attempt);
      EXPECT_GE(d, base / 2);
      EXPECT_LE(d, std::min(base + base / 2, policy.cap));
      if (d != policy.jittered_delay(key + 1, attempt)) spread = true;
    }
  }
  EXPECT_TRUE(spread);  // keys actually de-synchronize

  policy.jitter = 0.0;
  EXPECT_EQ(policy.jittered_delay(7, 2), policy.delay(2));
}

// ---------------------------------------------------------------- net ----

#if defined(WEAKKEYS_HAVE_NET)

TEST(Net, ListenConnectAcceptRoundTrip) {
  net::UniqueFd listener(net::listen_tcp("127.0.0.1", 0, 4));
  ASSERT_TRUE(listener.valid());
  const int port = net::local_port(listener.get());
  ASSERT_GT(port, 0);

  net::UniqueFd client(net::connect_tcp("127.0.0.1",
                                        static_cast<std::uint16_t>(port),
                                        std::chrono::milliseconds(2000)));
  ASSERT_TRUE(client.valid());
  net::UniqueFd server(net::accept_cloexec(listener.get()));
  ASSERT_TRUE(server.valid());

  const char out[] = "weak keys remain widespread";
  ASSERT_TRUE(net::write_full(client.get(), out, sizeof out));
  EXPECT_TRUE(net::wait_readable(server.get(), std::chrono::milliseconds(2000)));
  char in[sizeof out] = {};
  ASSERT_TRUE(net::read_full(server.get(), in, sizeof in));
  EXPECT_STREQ(in, out);
}

TEST(Net, ReadFullFailsOnEofAndWaitReadableTimesOut) {
  net::UniqueFd listener(net::listen_tcp("127.0.0.1", 0, 4));
  ASSERT_TRUE(listener.valid());
  net::UniqueFd client(net::connect_tcp(
      "127.0.0.1", static_cast<std::uint16_t>(net::local_port(listener.get())),
      std::chrono::milliseconds(2000)));
  ASSERT_TRUE(client.valid());
  net::UniqueFd server(net::accept_cloexec(listener.get()));
  ASSERT_TRUE(server.valid());

  // Nothing written yet: a short wait must time out, not block.
  EXPECT_FALSE(net::wait_readable(server.get(), std::chrono::milliseconds(10)));
  client.reset();
  char buf[8];
  EXPECT_FALSE(net::read_full(server.get(), buf, sizeof buf));
}

TEST(Net, ConnectToClosedPortFails) {
  // Bind-then-close yields a port with (almost certainly) no listener.
  int port = 0;
  {
    net::UniqueFd probe(net::listen_tcp("127.0.0.1", 0, 1));
    ASSERT_TRUE(probe.valid());
    port = net::local_port(probe.get());
  }
  net::UniqueFd fd(net::connect_tcp("127.0.0.1",
                                    static_cast<std::uint16_t>(port),
                                    std::chrono::milliseconds(250)));
  EXPECT_FALSE(fd.valid());
}

TEST(Net, ConnectTimesOutAgainstBlackholedAddress) {
  // A loopback blackhole that needs no external routing: a listener whose
  // accept queue is full silently drops further SYNs, so the client's
  // handshake never completes. connect_tcp must give up at its own
  // deadline (ETIMEDOUT), not the kernel's minutes-long retry schedule.
  net::UniqueFd listener(net::listen_tcp("127.0.0.1", 0, 1));
  ASSERT_TRUE(listener.valid());
  const auto port = static_cast<std::uint16_t>(net::local_port(listener.get()));

  // Fill the accept queue (never accepting). Linux grants backlog+1-ish
  // slots; keep the early fds open so the queue stays full.
  std::vector<net::UniqueFd> parked;
  bool timed_out = false;
  for (int i = 0; i < 16 && !timed_out; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    net::UniqueFd fd(
        net::connect_tcp("127.0.0.1", port, std::chrono::milliseconds(150)));
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    if (fd.valid()) {
      parked.push_back(std::move(fd));
      continue;
    }
    EXPECT_EQ(errno, ETIMEDOUT);
    EXPECT_GE(elapsed.count(), 140);   // honored the deadline...
    EXPECT_LT(elapsed.count(), 2000);  // ...instead of the kernel's retries
    timed_out = true;
  }
  EXPECT_TRUE(timed_out) << "accept queue never filled";
}

TEST(Net, EnableKeepaliveOnConnectedSocket) {
  net::UniqueFd listener(net::listen_tcp("127.0.0.1", 0, 4));
  ASSERT_TRUE(listener.valid());
  net::UniqueFd client(net::connect_tcp(
      "127.0.0.1", static_cast<std::uint16_t>(net::local_port(listener.get())),
      std::chrono::milliseconds(2000)));
  ASSERT_TRUE(client.valid());
  EXPECT_TRUE(net::enable_keepalive(client.get(), 5, 2, 3));
  EXPECT_FALSE(net::enable_keepalive(-1));
}

TEST(Net, UniqueFdMovesAndCloses) {
  net::UniqueFd a(net::listen_tcp("127.0.0.1", 0, 1));
  ASSERT_TRUE(a.valid());
  const int raw = a.get();
  net::UniqueFd b(std::move(a));
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(b.get(), raw);
  b.reset();
  EXPECT_FALSE(b.valid());
}

#endif  // WEAKKEYS_HAVE_NET

// ---------------------------------------------- fault injector, conn tier ----

TEST(FaultInjector, ConnDecisionsAreDeterministicAndSeedKeyed) {
  FaultConfig config;
  config.seed = 11;
  config.conn_disconnect_probability = 0.2;
  config.conn_partition_probability = 0.2;
  config.conn_half_open_probability = 0.2;
  config.conn_slow_drip_probability = 0.2;
  config.conn_partition_ms = 77;
  config.conn_drip_delay_ms = 3;
  const FaultInjector a(config);
  const FaultInjector b(config);
  config.seed = 12;
  const FaultInjector other(config);

  std::size_t faults = 0;
  bool seed_matters = false;
  std::set<ConnFaultKind> kinds;
  for (std::uint64_t stream = 0; stream < 4; ++stream) {
    for (std::uint64_t seq = 0; seq < 200; ++seq) {
      const ConnFault x = a.decide_conn(stream, seq);
      const ConnFault y = b.decide_conn(stream, seq);
      EXPECT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind));
      EXPECT_EQ(x.duration_ms, y.duration_ms);
      EXPECT_EQ(x.drip_delay_ms, y.drip_delay_ms);
      if (x.any()) {
        ++faults;
        kinds.insert(x.kind);
        if (x.kind == ConnFaultKind::kPartition ||
            x.kind == ConnFaultKind::kHalfOpen) {
          EXPECT_EQ(x.duration_ms, 77u);
        }
        if (x.kind == ConnFaultKind::kSlowDrip) {
          EXPECT_EQ(x.drip_delay_ms, 3u);
        }
      }
      if (static_cast<int>(x.kind) !=
          static_cast<int>(other.decide_conn(stream, seq).kind)) {
        seed_matters = true;
      }
    }
  }
  // With 80% total probability over 800 draws every kind shows up.
  EXPECT_GT(faults, 400u);
  EXPECT_EQ(kinds.size(), 4u);
  EXPECT_TRUE(seed_matters);
}

TEST(FaultInjector, ConnStreamIsDisjointFromFrameStream) {
  // Enabling frame faults must not reshuffle the connection schedule:
  // callers rely on carrying conn seq across reconnects for determinism.
  FaultConfig conn_only;
  conn_only.seed = 21;
  conn_only.conn_disconnect_probability = 0.15;
  FaultConfig both = conn_only;
  both.frame_drop_probability = 0.3;
  both.frame_garble_probability = 0.3;
  const FaultInjector a(conn_only);
  const FaultInjector b(both);
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    EXPECT_EQ(static_cast<int>(a.decide_conn(5, seq).kind),
              static_cast<int>(b.decide_conn(5, seq).kind))
        << "seq " << seq;
  }
}

TEST(FaultInjector, ConnTierOffByDefault) {
  FaultConfig config;
  config.seed = 3;
  EXPECT_FALSE(config.any_conn_faults());
  const FaultInjector injector(config);
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    EXPECT_FALSE(injector.decide_conn(0, seq).any());
  }
}

}  // namespace
}  // namespace weakkeys::util
