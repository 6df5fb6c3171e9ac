// Integration tests: the full pipeline on a small, freshly simulated corpus,
// plus the cache layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "analysis/transitions.hpp"
#include "core/scan_store.hpp"
#include "core/study.hpp"
#include "netsim/catalog.hpp"

namespace weakkeys::core {
namespace {

/// One shared small study for all pipeline assertions (building it is the
/// expensive part; the assertions are read-only).
class StudyIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StudyConfig config;
    config.sim.seed = 424242;
    config.sim.scale = 0.03;
    config.sim.miller_rabin_rounds = 4;
    config.batch_gcd_subsets = 3;
    config.threads = 2;
    config.cache_path = "";  // always fresh
    study_ = new Study(config);
    study_->run();
  }
  static void TearDownTestSuite() {
    delete study_;
    study_ = nullptr;
  }

  static Study* study_;
};

Study* StudyIntegration::study_ = nullptr;

TEST_F(StudyIntegration, CorpusHasExpectedShape) {
  const auto& stats = study_->factor_stats();
  EXPECT_GT(stats.distinct_moduli, 500u);
  EXPECT_GT(study_->dataset().total_host_records(), 10000u);
  // Some keys factored, but far from all.
  EXPECT_GT(study_->vulnerable().size(), 20u);
  EXPECT_LT(study_->vulnerable().size(), stats.distinct_moduli / 2);
}

TEST_F(StudyIntegration, FactoredKeysActuallyFactor) {
  for (const auto& f : study_->factored()) {
    EXPECT_EQ(f.p * f.q, f.n);
    EXPECT_GT(f.p, bn::BigInt(1));
    EXPECT_GT(f.q, bn::BigInt(1));
  }
}

TEST_F(StudyIntegration, GroundTruthAgreesWithFactoring) {
  // Every factored HTTPS modulus must belong to a device the simulation
  // marked flawed (or to the IBM pool family) — no false positives.
  const auto* net = study_->ground_truth();
  ASSERT_NE(net, nullptr);
  std::set<std::string> flawed_moduli;
  std::set<std::string> all_moduli;
  for (const auto& device : net->devices()) {
    if (device.https_cert) {
      const std::string hex = device.https_cert->key.n.to_hex();
      all_moduli.insert(hex);
      if (device.flawed || device.model->uses_ibm_nine_primes) {
        flawed_moduli.insert(hex);
      }
    }
    if (device.ssh_cert) {
      const std::string hex = device.ssh_cert->key.n.to_hex();
      all_moduli.insert(hex);
      if (device.flawed) flawed_moduli.insert(hex);
    }
  }
  for (const auto& f : study_->factored()) {
    const std::string hex = f.n.to_hex();
    // Factored moduli not present in the device ground truth would indicate
    // the pipeline factored something corrupted or synthetic.
    if (all_moduli.contains(hex)) {
      EXPECT_TRUE(flawed_moduli.contains(hex))
          << "healthy device key factored: " << hex;
    }
  }
}

TEST_F(StudyIntegration, IbmCliqueDetected) {
  ASSERT_FALSE(study_->cliques().empty());
  const auto& top = study_->cliques().front();
  EXPECT_EQ(top.primes.size(), 9u);
  EXPECT_GE(top.density, 0.5);
  EXPECT_LE(top.moduli.size(), 36u);
}

TEST_F(StudyIntegration, LabelerUsesCliqueBeforeSubject) {
  // Every record carrying a clique modulus is labeled IBM, including
  // Siemens-subject certificates (the paper's Section 3.3.2 behaviour).
  const auto labeler = study_->labeler();
  const auto& top = study_->cliques().front();
  std::set<std::string> clique_hex;
  for (const auto& n : top.moduli) clique_hex.insert(n.to_hex());

  std::size_t clique_records = 0;
  for (const auto& snap : study_->dataset().snapshots) {
    for (const auto& rec : snap.records) {
      if (!clique_hex.contains(rec.cert().key.n.to_hex())) continue;
      ++clique_records;
      const auto label = labeler(rec);
      ASSERT_TRUE(label.has_value());
      EXPECT_EQ(label->vendor, "IBM");
    }
  }
  EXPECT_GT(clique_records, 0u);
}

TEST_F(StudyIntegration, SeriesBuilderProducesJuniperSeries) {
  const auto builder = study_->series_builder();
  const auto series = builder.vendor_series("Juniper");
  ASSERT_FALSE(series.points.empty());
  EXPECT_GT(series.peak_total(), 0u);
}

TEST_F(StudyIntegration, VulnerableExcludesBitErrors) {
  // Bit-error divisors must not be counted as vulnerable keys.
  for (const auto& f : study_->factored()) {
    EXPECT_NE(f.divisor_class, fingerprint::DivisorClass::kSmoothBitError);
  }
}

TEST_F(StudyIntegration, FindFactorLookup) {
  ASSERT_FALSE(study_->factored().empty());
  const auto& first = study_->factored().front();
  const auto* found = study_->find_factor(first.n);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->p, first.p);
  EXPECT_EQ(study_->find_factor(bn::BigInt(35)), nullptr);
}

TEST_F(StudyIntegration, RunIsIdempotent) {
  const std::size_t before = study_->factored().size();
  study_->run();
  EXPECT_EQ(study_->factored().size(), before);
}

TEST(StudyThreads, ResultIsIndependentOfPoolSize) {
  // The pool runs corpus keygen and the batch GCD; neither may change the
  // vulnerable set or the divisor triage.
  auto run = [](std::size_t threads) {
    StudyConfig config;
    config.sim.seed = 31337;
    config.sim.scale = 0.01;
    config.sim.miller_rabin_rounds = 4;
    config.batch_gcd_subsets = 3;
    config.threads = threads;
    config.cache_path = "";
    Study study(config);
    study.run();
    std::vector<std::string> hex(study.vulnerable().hex().begin(),
                                 study.vulnerable().hex().end());
    std::sort(hex.begin(), hex.end());
    const FactorStats& f = study.factor_stats();
    hex.push_back(std::to_string(f.distinct_moduli) + "/" +
                  std::to_string(f.nontrivial_divisors) + "/" +
                  std::to_string(f.shared_prime) + "/" +
                  std::to_string(f.full_modulus) + "/" +
                  std::to_string(f.bit_errors) + "/" +
                  std::to_string(f.other) + "/" +
                  std::to_string(f.second_pass_factored));
    return hex;
  };
  const std::vector<std::string> one = run(1);
  ASSERT_GT(one.size(), 1u);  // some vulnerable moduli besides the stats
  EXPECT_EQ(run(4), one);
}

TEST(StudyCache, SecondRunLoadsIdenticalResults) {
  const std::string cache = "study_cache_test.tmp";
  std::remove(cache.c_str());
  std::remove((cache + ".factors").c_str());

  StudyConfig config;
  config.sim.seed = 777;
  config.sim.scale = 0.01;
  config.sim.miller_rabin_rounds = 4;
  config.batch_gcd_subsets = 2;
  config.cache_path = cache;

  Study first(config);
  first.run();
  const auto first_stats = first.factor_stats();
  const auto first_records = first.dataset().total_host_records();

  // Second study: must reload both caches and agree exactly.
  Study second(config);
  second.run();
  EXPECT_EQ(second.dataset().total_host_records(), first_records);
  EXPECT_EQ(second.factor_stats().distinct_moduli, first_stats.distinct_moduli);
  EXPECT_EQ(second.factored().size(), first.factored().size());
  EXPECT_EQ(second.vulnerable().size(), first.vulnerable().size());
  for (std::size_t i = 0; i < first.factored().size(); ++i) {
    EXPECT_EQ(second.factored()[i].n, first.factored()[i].n);
    EXPECT_EQ(second.factored()[i].p, first.factored()[i].p);
  }
  // Loaded-from-cache runs have no simulation ground truth.
  EXPECT_EQ(second.ground_truth(), nullptr);
  EXPECT_NE(first.ground_truth(), nullptr);

  std::remove(cache.c_str());
  std::remove((cache + ".factors").c_str());
}

TEST(StudyCache, RebuildReasonIsLoggedAndExposed) {
  const std::string cache = "study_rebuild_reason_test.tmp";
  std::remove(cache.c_str());
  std::remove((cache + ".factors").c_str());

  StudyConfig config;
  config.sim.seed = 778;
  config.sim.scale = 0.005;
  config.sim.miller_rabin_rounds = 4;
  config.batch_gcd_subsets = 2;
  config.cache_path = cache;

  {
    Study first(config);
    first.run();
    EXPECT_EQ(first.dataset_cache_status(), DatasetLoadStatus::kMissing);
  }

  // Corrupt the corpus cache: the CRC footer no longer verifies, and the
  // rebuild must say so instead of silently resimulating.
  {
    std::FILE* f = std::fopen(cache.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a scan store", f);
    std::fclose(f);
  }

  std::vector<std::string> lines;
  config.log = [&lines](const std::string& line) { lines.push_back(line); };
  Study second(config);
  second.run();
  EXPECT_EQ(second.dataset_cache_status(), DatasetLoadStatus::kBadChecksum);
  bool attributed = false;
  for (const auto& line : lines) {
    if (line.find("corpus cache unusable (checksum mismatch)") !=
        std::string::npos) {
      attributed = true;
    }
  }
  EXPECT_TRUE(attributed);

  std::remove(cache.c_str());
  std::remove((cache + ".factors").c_str());
}

// ---------------------------------------------------------- scan store ----

class ScanStoreTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Unique per test: parallel ctest runs sibling tests as separate
  // processes in the same directory, so a shared name would collide.
  const std::string path_ =
      std::string("test_scan_store_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".tmp";
};

TEST_F(ScanStoreTest, RoundTripsDataset) {
  netsim::SimConfig sim;
  sim.seed = 5;
  sim.miller_rabin_rounds = 4;
  netsim::Internet net(netsim::standard_models(0.005), sim);
  const netsim::ScanDataset original = net.run(netsim::standard_campaigns());

  const StoreKey key{5, 5000, 4, 1};
  save_dataset(original, key, path_);
  const auto loaded = load_dataset(key, path_);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->snapshots.size(), original.snapshots.size());
  EXPECT_EQ(loaded->total_host_records(), original.total_host_records());
  EXPECT_EQ(loaded->distinct_certificates(), original.distinct_certificates());
  for (std::size_t s = 0; s < original.snapshots.size(); ++s) {
    const auto& a = original.snapshots[s];
    const auto& b = loaded->snapshots[s];
    EXPECT_EQ(a.date, b.date);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.protocol, b.protocol);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      EXPECT_EQ(a.records[i].ip, b.records[i].ip);
      EXPECT_EQ(a.records[i].cert(), b.records[i].cert());
    }
  }
}

TEST_F(ScanStoreTest, KeyMismatchForcesRebuild) {
  netsim::SimConfig sim;
  sim.seed = 6;
  sim.miller_rabin_rounds = 4;
  netsim::Internet net(netsim::standard_models(0.003), sim);
  const netsim::ScanDataset original = net.run(netsim::standard_campaigns());
  save_dataset(original, StoreKey{6, 3000, 4, 1}, path_);

  EXPECT_FALSE(load_dataset(StoreKey{7, 3000, 4, 1}, path_).has_value());
  EXPECT_FALSE(load_dataset(StoreKey{6, 9999, 4, 1}, path_).has_value());
  EXPECT_FALSE(load_dataset(StoreKey{6, 3000, 4, 2}, path_).has_value());
  EXPECT_TRUE(load_dataset(StoreKey{6, 3000, 4, 1}, path_).has_value());
}

TEST_F(ScanStoreTest, MissingAndCorruptFilesReturnNullopt) {
  EXPECT_FALSE(load_dataset(StoreKey{}, "no_such_file.tmp").has_value());
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    std::fputs("garbage", f);
    std::fclose(f);
  }
  EXPECT_FALSE(load_dataset(StoreKey{}, path_).has_value());
}

// -------------------------------------------------------- sharded store ----

void remove_shards(const std::string& path, std::uint32_t shards) {
  for (std::uint32_t s = 0; s < shards; ++s) {
    std::remove(shard_path(path, s).c_str());
    std::remove((shard_path(path, s) + ".tmp").c_str());
  }
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<unsigned char> bytes;
  if (!f) return bytes;
  unsigned char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);
  return bytes;
}

void expect_datasets_equal(const netsim::ScanDataset& a,
                           const netsim::ScanDataset& b) {
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  for (std::size_t s = 0; s < a.snapshots.size(); ++s) {
    const auto& x = a.snapshots[s];
    const auto& y = b.snapshots[s];
    EXPECT_EQ(x.date, y.date);
    EXPECT_EQ(x.source, y.source);
    EXPECT_EQ(x.protocol, y.protocol);
    ASSERT_EQ(x.records.size(), y.records.size());
    for (std::size_t i = 0; i < x.records.size(); ++i) {
      EXPECT_EQ(x.records[i].ip, y.records[i].ip);
      EXPECT_EQ(x.records[i].cert(), y.records[i].cert());
    }
  }
}

TEST_F(ScanStoreTest, ShardedRoundTripMatchesSingleFile) {
  netsim::SimConfig sim;
  sim.seed = 8;
  sim.miller_rabin_rounds = 4;
  netsim::Internet net(netsim::standard_models(0.005), sim);
  const netsim::ScanDataset original = net.run(netsim::standard_campaigns());
  const StoreKey key{8, 5000, 4, 1};

  save_dataset(original, key, path_);
  save_dataset_sharded(original, key, path_ + ".sh", 3);

  DatasetLoadStatus status = DatasetLoadStatus::kMissing;
  const auto single = load_dataset(key, path_);
  const auto sharded = load_dataset_sharded(key, path_ + ".sh", &status);
  ASSERT_TRUE(single.has_value());
  ASSERT_TRUE(sharded.has_value());
  EXPECT_EQ(status, DatasetLoadStatus::kLoaded);
  // Interleaved ingest reconstructs the exact single-file record order.
  expect_datasets_equal(*single, *sharded);
  expect_datasets_equal(original, *sharded);
  EXPECT_EQ(sharded->distinct_certificates(), original.distinct_certificates());

  // The streaming ingest visits the same snapshots/records without
  // materializing: counts must agree with the materialized load.
  std::size_t snaps = 0;
  std::size_t records = 0;
  EXPECT_EQ(ingest_dataset_sharded(
                key, path_ + ".sh",
                [&](const netsim::ScanSnapshot&) { ++snaps; },
                [&](netsim::HostRecord&&) { ++records; }),
            DatasetLoadStatus::kLoaded);
  EXPECT_EQ(snaps, original.snapshots.size());
  EXPECT_EQ(records, sharded->total_host_records());

  remove_shards(path_ + ".sh", 3);
}

TEST_F(ScanStoreTest, ShardedWriterIsByteIdenticalToBatchSave) {
  netsim::SimConfig sim;
  sim.seed = 9;
  sim.miller_rabin_rounds = 4;
  netsim::Internet net(netsim::standard_models(0.004), sim);
  const netsim::ScanDataset dataset = net.run(netsim::standard_campaigns());
  const StoreKey key{9, 4000, 4, 1};

  save_dataset_sharded(dataset, key, path_ + ".a", 3);
  {
    ShardedDatasetWriter writer(key, path_ + ".b", 3);
    for (const auto& snap : dataset.snapshots) writer.add_snapshot(snap);
    writer.finish();
  }
  for (std::uint32_t s = 0; s < 3; ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(slurp(shard_path(path_ + ".a", s)),
              slurp(shard_path(path_ + ".b", s)));
  }
  remove_shards(path_ + ".a", 3);
  remove_shards(path_ + ".b", 3);
}

TEST_F(ScanStoreTest, ShardedFailsClosedOnMissingOrCorruptShard) {
  netsim::SimConfig sim;
  sim.seed = 10;
  sim.miller_rabin_rounds = 4;
  netsim::Internet net(netsim::standard_models(0.003), sim);
  const netsim::ScanDataset dataset = net.run(netsim::standard_campaigns());
  const StoreKey key{10, 3000, 4, 1};
  save_dataset_sharded(dataset, key, path_, 3);

  // Key mismatch on any shard: rebuild, not partial load.
  DatasetLoadStatus status = DatasetLoadStatus::kLoaded;
  EXPECT_FALSE(
      load_dataset_sharded(StoreKey{11, 3000, 4, 1}, path_, &status)
          .has_value());
  EXPECT_EQ(status, DatasetLoadStatus::kKeyMismatch);

  // Corrupt one shard's tail: the whole corpus is unusable (no partial
  // corpora), attributed to the checksum.
  {
    const auto bytes = slurp(shard_path(path_, 1));
    std::FILE* f = std::fopen(shard_path(path_, 1).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size() - 3, f),
              bytes.size() - 3);
    std::fclose(f);
  }
  EXPECT_FALSE(load_dataset_sharded(key, path_, &status).has_value());
  EXPECT_EQ(status, DatasetLoadStatus::kBadChecksum);

  // A missing shard likewise fails the whole load.
  std::remove(shard_path(path_, 1).c_str());
  EXPECT_FALSE(load_dataset_sharded(key, path_, &status).has_value());
  EXPECT_EQ(status, DatasetLoadStatus::kMissing);

  remove_shards(path_, 3);
}

TEST_F(ScanStoreTest, SnapshotSinkStreamsWithoutAccumulating) {
  // Two identical simulations: one accumulating (the dataset path), one
  // streaming through snapshot_sink into a ShardedDatasetWriter. The
  // sharded store must reload to the accumulated dataset exactly — the
  // 10^6-host emission path changes residency, not results.
  netsim::SimConfig sim;
  sim.seed = 11;
  sim.miller_rabin_rounds = 4;
  netsim::Internet accumulate(netsim::standard_models(0.004), sim);
  netsim::ScanDataset dataset = accumulate.run(netsim::standard_campaigns());

  const StoreKey key{11, 4000, 4, 1};
  std::size_t streamed = 0;
  {
    ShardedDatasetWriter writer(key, path_, 2);
    netsim::SimConfig streaming = sim;
    streaming.snapshot_sink = [&](netsim::ScanSnapshot&& snap) {
      ++streamed;
      writer.add_snapshot(snap);
    };
    netsim::Internet stream(netsim::standard_models(0.004), streaming);
    const netsim::ScanDataset empty =
        stream.run(netsim::standard_campaigns());
    EXPECT_TRUE(empty.snapshots.empty());  // nothing accumulated
    writer.finish();
  }
  EXPECT_EQ(streamed, dataset.snapshots.size());

  auto reloaded = load_dataset_sharded(key, path_);
  ASSERT_TRUE(reloaded.has_value());
  // The sink delivers generation order; the returned dataset is
  // date-sorted. Sort the reload the same way before comparing.
  std::sort(reloaded->snapshots.begin(), reloaded->snapshots.end(),
            [](const netsim::ScanSnapshot& a, const netsim::ScanSnapshot& b) {
              if (a.date != b.date) return a.date < b.date;
              return a.source < b.source;
            });
  expect_datasets_equal(dataset, *reloaded);
  remove_shards(path_, 2);
}

TEST(StudyCache, ShardedCacheReloadsIdenticalResults) {
  const std::string single = "study_cache_single_test.tmp";
  const std::string sharded = "study_cache_sharded_test.tmp";
  auto cleanup = [&] {
    std::remove(single.c_str());
    std::remove((single + ".factors").c_str());
    std::remove((sharded + ".factors").c_str());
    remove_shards(sharded, 3);
  };
  cleanup();

  StudyConfig config;
  config.sim.seed = 779;
  config.sim.scale = 0.005;
  config.sim.miller_rabin_rounds = 4;
  config.batch_gcd_subsets = 2;

  config.cache_path = single;
  Study seed_single(config);
  seed_single.run();

  config.cache_path = sharded;
  config.cache_shards = 3;
  Study seed_sharded(config);
  seed_sharded.run();

  // Both caches written; both reload paths must agree with each other.
  Study from_sharded(config);
  from_sharded.run();
  EXPECT_EQ(from_sharded.dataset_cache_status(), DatasetLoadStatus::kLoaded);

  StudyConfig single_config = config;
  single_config.cache_path = single;
  single_config.cache_shards = 0;
  Study reload_single(single_config);
  reload_single.run();
  EXPECT_EQ(reload_single.dataset_cache_status(), DatasetLoadStatus::kLoaded);

  ASSERT_EQ(from_sharded.factored().size(), reload_single.factored().size());
  for (std::size_t i = 0; i < from_sharded.factored().size(); ++i) {
    EXPECT_EQ(from_sharded.factored()[i].n, reload_single.factored()[i].n);
    EXPECT_EQ(from_sharded.factored()[i].p, reload_single.factored()[i].p);
  }
  EXPECT_EQ(from_sharded.vulnerable().size(), reload_single.vulnerable().size());
  EXPECT_EQ(from_sharded.dataset().total_host_records(),
            reload_single.dataset().total_host_records());
  cleanup();
}

#if defined(WEAKKEYS_GCD_WORKER_BIN)
TEST_F(StudyIntegration, ClusterPathMatchesInProcessPipeline) {
  // Same corpus, factoring routed through real worker processes over TCP:
  // the study must find exactly the same vulnerable keys.
  StudyConfig config;
  config.sim.seed = 424242;
  config.sim.scale = 0.03;
  config.sim.miller_rabin_rounds = 4;
  config.batch_gcd_subsets = 3;
  config.cache_path = "";
  config.worker_processes = 2;
  config.worker_binary = WEAKKEYS_GCD_WORKER_BIN;
  Study clustered(config);
  clustered.run();

  EXPECT_GT(clustered.cluster_stats().workers_spawned, 0u);
  EXPECT_GT(clustered.cluster_stats().tasks_executed, 0u);
  const std::set<std::string> expected(study_->vulnerable().hex().begin(),
                                       study_->vulnerable().hex().end());
  const std::set<std::string> actual(clustered.vulnerable().hex().begin(),
                                     clustered.vulnerable().hex().end());
  EXPECT_EQ(actual, expected);
}
#endif

}  // namespace
}  // namespace weakkeys::core
