#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "batchgcd/batch_gcd.hpp"
#include "batchgcd/distributed.hpp"
#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "scoped_tuning.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::batchgcd {
namespace {

using bn::BigInt;

/// Corpus with planted structure: healthy keys, shared-prime pairs, one
/// triple star, and one duplicated modulus.
struct Corpus {
  std::vector<BigInt> moduli;
  std::vector<BigInt> primes;  // planted primes
  std::size_t healthy = 0;
};

Corpus make_corpus(std::size_t healthy_keys, std::uint64_t seed) {
  Corpus corpus;
  corpus.healthy = healthy_keys;
  rng::PrngRandomSource rng(seed);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 128;
  opts.style = rsa::PrimeStyle::kPlain;
  opts.miller_rabin_rounds = 8;
  for (std::size_t i = 0; i < healthy_keys; ++i) {
    corpus.moduli.push_back(rsa::generate_key(rng, opts).pub.n);
  }
  for (int i = 0; i < 12; ++i) {
    corpus.primes.push_back(rsa::generate_prime(rng, 64, opts));
  }
  const auto& p = corpus.primes;
  corpus.moduli.push_back(p[0] * p[1]);  // pair sharing p[0]
  corpus.moduli.push_back(p[0] * p[2]);
  corpus.moduli.push_back(p[3] * p[4]);  // star of three sharing p[3]
  corpus.moduli.push_back(p[3] * p[5]);
  corpus.moduli.push_back(p[3] * p[6]);
  corpus.moduli.push_back(p[7] * p[8]);  // duplicate pair
  corpus.moduli.push_back(p[7] * p[8]);
  return corpus;
}

// --------------------------------------------------------- ProductTree ----

TEST(ProductTree, RootIsProduct) {
  const std::vector<BigInt> inputs = {BigInt(3), BigInt(5), BigInt(7), BigInt(11)};
  const ProductTree tree(inputs);
  EXPECT_EQ(tree.root(), BigInt(3 * 5 * 7 * 11));
  EXPECT_EQ(tree.leaf_count(), 4u);
  EXPECT_EQ(tree.levels().size(), 3u);
}

TEST(ProductTree, OddCountCarriesTrailingNode) {
  const std::vector<BigInt> inputs = {BigInt(2), BigInt(3), BigInt(5)};
  const ProductTree tree(inputs);
  EXPECT_EQ(tree.root(), BigInt(30));
}

TEST(ProductTree, EmptyAndSingle) {
  const ProductTree empty(std::span<const BigInt>{});
  EXPECT_EQ(empty.root(), BigInt(1));
  EXPECT_EQ(empty.leaf_count(), 0u);

  const std::vector<BigInt> one = {BigInt(42)};
  const ProductTree single(one);
  EXPECT_EQ(single.root(), BigInt(42));
}

TEST(ProductTree, StorageMetrics) {
  std::vector<BigInt> inputs(16, BigInt(1) << 63);
  const ProductTree tree(inputs);
  EXPECT_GT(tree.total_limbs(), 16u);
  // The largest node is the root: 16 * 64 bits = 16 limbs.
  EXPECT_EQ(tree.max_node_limbs(), 16u);
}

// ------------------------------------------------------ RemainderTree ----

TEST(RemainderTree, ComputesXModSquares) {
  const std::vector<BigInt> inputs = {BigInt(3), BigInt(5), BigInt(7), BigInt(11)};
  const ProductTree tree(inputs);
  const BigInt x = BigInt(123456789);
  const auto rem = remainder_tree_squares(tree, x);
  ASSERT_EQ(rem.size(), 4u);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(rem[i], x % inputs[i].squared());
  }
}

TEST(RemainderTree, PlainMatchesModulo) {
  // Every leaf count up to 70 (odd levels carry their trailing node), each
  // walked over an in-RAM tree and a tree spilled level by level, with X
  // zero, below the root, equal to it and above it.
  const std::string dir = ::testing::TempDir() + "remainder_plain_" +
                          std::to_string(::getpid()) + ".d";
  TreeStorage storage;
  storage.spill_dir = dir;
  storage.spill_threshold_bytes = 0;  // always spill
  util::Xoshiro256 rng(17);
  std::vector<BigInt> moduli;
  for (std::size_t n = 1; n <= 70; ++n) {
    moduli.push_back(BigInt::from_limbs({rng(), rng() | 1}));
    const ProductTree ram(moduli);
    const ProductTree spilled(moduli, storage);
    ASSERT_TRUE(spilled.spilled());
    const BigInt& root = ram.root();
    const BigInt xs[] = {BigInt(0), root >> 7, root,
                         root * BigInt(rng() | 2) + BigInt(rng())};
    for (const BigInt& x : xs) {
      for (const ProductTree* tree : {&ram, &spilled}) {
        const auto rem = remainder_tree(*tree, x);
        ASSERT_EQ(rem.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(rem[i], x % moduli[i])
              << "n=" << n << " leaf " << i << " spilled=" << tree->spilled();
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------------- BatchGcd ----

TEST(BatchGcd, FindsPlantedSharedPrimes) {
  Corpus corpus = make_corpus(50, 2);
  const auto result = batch_gcd(corpus.moduli);
  const auto& d = result.divisors;
  const std::size_t h = corpus.healthy;

  for (std::size_t i = 0; i < h; ++i) {
    EXPECT_EQ(d[i], BigInt(1)) << "healthy key " << i << " flagged";
  }
  EXPECT_EQ(d[h + 0], corpus.primes[0]);
  EXPECT_EQ(d[h + 1], corpus.primes[0]);
  EXPECT_EQ(d[h + 2], corpus.primes[3]);
  EXPECT_EQ(d[h + 3], corpus.primes[3]);
  EXPECT_EQ(d[h + 4], corpus.primes[3]);
  // Duplicates report the whole modulus.
  EXPECT_EQ(d[h + 5], corpus.moduli[h + 5]);
  EXPECT_EQ(d[h + 6], corpus.moduli[h + 6]);

  EXPECT_EQ(result.vulnerable_indices().size(), 7u);
}

TEST(BatchGcd, EmptyAndSingleInput) {
  EXPECT_TRUE(batch_gcd({}).divisors.empty());
  const std::vector<BigInt> one = {BigInt(77)};
  const auto result = batch_gcd(one);
  ASSERT_EQ(result.divisors.size(), 1u);
  EXPECT_EQ(result.divisors[0], BigInt(1));
}

TEST(BatchGcd, NaiveMatchesTree) {
  Corpus corpus = make_corpus(40, 3);
  const auto tree = batch_gcd(corpus.moduli);
  const auto naive = naive_pairwise_gcd(corpus.moduli);
  EXPECT_EQ(tree.divisors, naive.divisors);
}

TEST(BatchGcd, DivisionCrossoverMidTreeMatchesNaive) {
  // 127 two-limb moduli: node squares grow from 4 to 512 limbs, so a
  // 16-limb crossover puts the low levels of the remainder tree on Knuth
  // and the upper ones on Burnikel–Ziegler.
  Corpus corpus = make_corpus(120, 13);
  const auto naive = naive_pairwise_gcd(corpus.moduli);
  const bn::ScopedThreshold scoped(bn::Tuning::bz_div_threshold(), 16);
  const auto tree = batch_gcd(corpus.moduli);
  ASSERT_EQ(tree.divisors.size(), naive.divisors.size());
  for (std::size_t i = 0; i < naive.divisors.size(); ++i) {
    EXPECT_EQ(tree.divisors[i], naive.divisors[i]) << "modulus " << i;
  }
  EXPECT_EQ(tree.vulnerable_indices().size(), 7u);
}

class DistributedEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DistributedEquivalence, MatchesSingleTree) {
  Corpus corpus = make_corpus(60, 4);
  const auto reference = batch_gcd(corpus.moduli);
  util::ThreadPool pool(3);
  DistributedStats stats;
  const auto distributed =
      batch_gcd_distributed(corpus.moduli, GetParam(), &pool, &stats);
  EXPECT_EQ(distributed.divisors, reference.divisors);
  EXPECT_EQ(stats.subsets, std::min(GetParam(), corpus.moduli.size()));
  EXPECT_EQ(stats.tasks, stats.subsets * stats.subsets);
}

INSTANTIATE_TEST_SUITE_P(SubsetCounts, DistributedEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 1000));

TEST(Distributed, SerialAndPooledAgree) {
  Corpus corpus = make_corpus(30, 5);
  const auto serial = batch_gcd_distributed(corpus.moduli, 4, nullptr);
  util::ThreadPool pool(4);
  const auto pooled = batch_gcd_distributed(corpus.moduli, 4, &pool);
  EXPECT_EQ(serial.divisors, pooled.divisors);
}

TEST(Distributed, MaxNodeShrinksWithK) {
  Corpus corpus = make_corpus(64, 6);
  DistributedStats k1, k8;
  (void)batch_gcd_distributed(corpus.moduli, 1, nullptr, &k1);
  (void)batch_gcd_distributed(corpus.moduli, 8, nullptr, &k8);
  // The whole point of the paper's Figure 2: the biggest node shrinks ~k-fold.
  EXPECT_LT(k8.max_node_limbs * 4, k1.max_node_limbs);
}

TEST(Distributed, CrossSubsetSharingDetected) {
  // Two moduli sharing a prime, forced into different subsets (k = n).
  rng::PrngRandomSource rng(7);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 128;
  opts.style = rsa::PrimeStyle::kPlain;
  const BigInt p = rsa::generate_prime(rng, 64, opts);
  const BigInt q1 = rsa::generate_prime(rng, 64, opts);
  const BigInt q2 = rsa::generate_prime(rng, 64, opts);
  std::vector<BigInt> moduli = {p * q1, rsa::generate_key(rng, opts).pub.n,
                                p * q2};
  const auto result = batch_gcd_distributed(moduli, moduli.size(), nullptr);
  EXPECT_EQ(result.divisors[0], p);
  EXPECT_EQ(result.divisors[2], p);
  EXPECT_EQ(result.divisors[1], BigInt(1));
}

// ------------------------------------------------------ recover_factors ----

TEST(RecoverFactors, SplitsOnProperDivisor) {
  const BigInt n = BigInt(35), d = BigInt(5);
  const auto f = recover_factors(n, d);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->p, BigInt(5));
  EXPECT_EQ(f->q, BigInt(7));
}

TEST(RecoverFactors, RejectsTrivialAndTotal) {
  EXPECT_FALSE(recover_factors(BigInt(35), BigInt(1)).has_value());
  EXPECT_FALSE(recover_factors(BigInt(35), BigInt(35)).has_value());
  EXPECT_FALSE(recover_factors(BigInt(35), BigInt(4)).has_value());  // not a divisor
}

}  // namespace
}  // namespace weakkeys::batchgcd
