// The batch-GCD corpus generator, the traced run's serial split of the
// k-subset batch GCD into its public calls, and the bn kernel probes at the
// sizes that split actually uses (with GMP as the reference ceiling when
// the build found it).
#include <algorithm>
#include <numeric>

#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"
#include "bench.hpp"
#include "netsim/internet.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "util/prng.hpp"

#if defined(WKBENCH_HAVE_GMP)
#include <gmp.h>
#endif

namespace wkbench {

using weakkeys::bn::BigInt;
namespace batchgcd = weakkeys::batchgcd;
namespace rsa = weakkeys::rsa;

namespace {

constexpr std::size_t kModulusBits = 256;
// Repetitions per kernel probe; the probe reports the median.
constexpr int kKernelReps = 5;
// Leaf gcd operand pairs kept for the gcd probe.
constexpr std::size_t kLeafSample = 1024;
// Probe results land here so no kernel call can be optimised away.
volatile std::size_t g_sink = 0;

rsa::KeygenOptions device_keygen_options() {
  rsa::KeygenOptions opts;
  opts.modulus_bits = kModulusBits;
  opts.miller_rabin_rounds = weakkeys::netsim::SimConfig{}.miller_rabin_rounds;
  return opts;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return weakkeys::util::SplitMix64(seed ^ (stream * 0x9e3779b97f4a7c15ULL))
      .next();
}

template <typename Fn>
double median_ms(Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < kKernelReps; ++r) {
    const auto start = Clock::now();
    fn();
    ms.push_back(seconds_since(start) * 1e3);
  }
  return median(std::move(ms));
}

struct LeafPair {
  BigInt n;
  BigInt r;
};

#if defined(WKBENCH_HAVE_GMP)
class Mpz {
 public:
  Mpz() { mpz_init(v_); }
  explicit Mpz(const BigInt& x) : Mpz() {
    const auto limbs = x.limbs();
    mpz_import(v_, limbs.size(), -1, sizeof(limbs[0]), 0, 0, limbs.data());
  }
  ~Mpz() { mpz_clear(v_); }
  Mpz(const Mpz&) = delete;
  Mpz& operator=(const Mpz&) = delete;
  mpz_ptr get() { return v_; }

 private:
  mpz_t v_;
};
#endif

/// bn kernels at the subset-root size of `tree`: the root's final multiply
/// (its two children), the root squaring, and the remainder tree's 2:1
/// reduction at that size (x of twice the root's limbs mod a child's
/// square, which has the root's limbs). The gcd probe runs on leaf pairs
/// taken from the split. Each *_vs_gmp value is our time over GMP's on the
/// same operands.
void probe_kernels(const batchgcd::ProductTree& tree, const BigInt& x,
                   const std::vector<LeafPair>& leaves, Timeline& timeline,
                   LayerValues& out) {
  const auto& levels = tree.levels();
  if (levels.size() < 2 || levels[levels.size() - 2].size() < 2) return;
  const BigInt& left = levels[levels.size() - 2][0];
  const BigInt& right = levels[levels.size() - 2][1];
  const BigInt modulus = left.squared();
  std::size_t sink = 0;

  {
    obs::Span span = timeline.span("bn.mul.root");
    out["bn.mul.root_ms"] =
        median_ms([&] { sink += (left * right).limb_count(); });
  }
  {
    obs::Span span = timeline.span("bn.sqr.root");
    out["bn.sqr.root_ms"] =
        median_ms([&] { sink += tree.root().squared().limb_count(); });
  }
  {
    obs::Span span = timeline.span("bn.mod.root");
    out["bn.mod.root_ms"] =
        median_ms([&] { sink += (x % modulus).limb_count(); });
  }
  {
    obs::Span span = timeline.span("bn.gcd.leaf");
    out["bn.gcd.leaf_us"] = median_ms([&] {
                              for (const auto& p : leaves) {
                                sink += weakkeys::bn::gcd(p.n, p.r).limb_count();
                              }
                            }) *
                            1e3 / static_cast<double>(leaves.size());
  }

#if defined(WKBENCH_HAVE_GMP)
  Mpz gl(left), gr(right), gx(x), gm(modulus), result;
  const double gmp_mul = median_ms([&] {
    mpz_mul(result.get(), gl.get(), gr.get());
    sink += mpz_size(result.get());
  });
  const double gmp_mod = median_ms([&] {
    mpz_tdiv_r(result.get(), gx.get(), gm.get());
    sink += mpz_size(result.get());
  });
  std::vector<std::unique_ptr<Mpz>> leaf_n, leaf_r;
  for (const auto& p : leaves) {
    leaf_n.push_back(std::make_unique<Mpz>(p.n));
    leaf_r.push_back(std::make_unique<Mpz>(p.r));
  }
  const double gmp_gcd = median_ms([&] {
    for (std::size_t i = 0; i < leaf_n.size(); ++i) {
      mpz_gcd(result.get(), leaf_n[i]->get(), leaf_r[i]->get());
      sink += mpz_size(result.get());
    }
  });
  out["bn.mul.root_vs_gmp"] = out["bn.mul.root_ms"] / gmp_mul;
  out["bn.mod.root_vs_gmp"] = out["bn.mod.root_ms"] / gmp_mod;
  out["bn.gcd.leaf_vs_gmp"] =
      out["bn.gcd.leaf_us"] * static_cast<double>(leaves.size()) / 1e3 /
      gmp_gcd;
#endif
  g_sink = sink;
}

}  // namespace

Corpus make_corpus(std::uint64_t seed, std::size_t count,
                   weakkeys::util::ThreadPool& pool) {
  const rsa::KeygenOptions opts = device_keygen_options();
  // About 1% of the moduli are planted, in pairs that share one prime.
  const std::size_t pairs = std::max<std::size_t>(1, count / 200);
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), 0);
  weakkeys::util::Xoshiro256 pick(seed);
  for (std::size_t i = 0; i < 2 * pairs; ++i) {
    std::swap(order[i], order[i + pick.below(count - i)]);
  }
  constexpr std::size_t kNoPair = static_cast<std::size_t>(-1);
  std::vector<std::size_t> pair_of(count, kNoPair);
  Corpus corpus;
  for (std::size_t i = 0; i < 2 * pairs; ++i) {
    pair_of[order[i]] = i / 2;
    corpus.planted.push_back(order[i]);
  }
  std::sort(corpus.planted.begin(), corpus.planted.end());

  std::vector<BigInt> shared(pairs);
  pool.parallel_for(pairs, [&](std::size_t p) {
    weakkeys::rng::PrngRandomSource src(stream_seed(seed, count + p));
    shared[p] = rsa::generate_prime(src, kModulusBits / 2, opts);
  });
  corpus.expected.divisors.assign(count, BigInt(1));
  for (const std::size_t i : corpus.planted) {
    corpus.expected.divisors[i] = shared[pair_of[i]];
  }
  corpus.moduli.resize(count);
  pool.parallel_for(count, [&](std::size_t i) {
    weakkeys::rng::PrngRandomSource src(stream_seed(seed, i));
    corpus.moduli[i] =
        pair_of[i] == kNoPair
            ? rsa::generate_key(src, opts).pub.n
            : shared[pair_of[i]] *
                  rsa::generate_prime(src, kModulusBits / 2, opts);
  });
  return corpus;
}

double probe_keygen_keys_per_s(std::uint64_t seed) {
  constexpr std::size_t kKeys = 512;
  const rsa::KeygenOptions opts = device_keygen_options();
  weakkeys::rng::PrngRandomSource src(seed);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kKeys; ++i) (void)rsa::generate_key(src, opts);
  return static_cast<double>(kKeys) / seconds_since(start);
}

Decomposition decompose_batch_gcd(std::span<const BigInt> moduli,
                                  Timeline& timeline) {
  Decomposition d;
  d.result.divisors.assign(moduli.size(), BigInt(1));
  if (moduli.empty()) return d;
  const std::size_t k = std::clamp<std::size_t>(kSubsets, 1, moduli.size());

  // The same contiguous partition batch_gcd_distributed uses.
  std::vector<std::size_t> offset(k + 1, 0);
  for (std::size_t a = 0; a < k; ++a) {
    const std::size_t len =
        moduli.size() / k + (a < moduli.size() % k ? 1 : 0);
    offset[a + 1] = offset[a] + len;
  }
  auto subset = [&](std::size_t a) {
    return moduli.subspan(offset[a], offset[a + 1] - offset[a]);
  };

  double product_s = 0, remainder_s = 0, leaf_s = 0, combine_s = 0;
  std::vector<std::unique_ptr<batchgcd::ProductTree>> trees(k);
  for (std::size_t a = 0; a < k; ++a) {
    obs::Span span = timeline.span("batchgcd.product_tree");
    const auto start = Clock::now();
    trees[a] = std::make_unique<batchgcd::ProductTree>(subset(a));
    product_s += seconds_since(start);
  }

  // Every product P_b against every subset S_a, as in the library:
  //   b == a: gcd(N_i, (P_a mod N_i^2) / N_i),  b != a: gcd(N_i, P_b mod N_i)
  std::vector<std::vector<BigInt>> partial(k);
  for (std::size_t a = 0; a < k; ++a) {
    partial[a].assign(subset(a).size(), BigInt(1));
  }
  std::vector<std::vector<BigInt>> candidates(k * k);
  std::vector<LeafPair> leaves;
  for (std::size_t task = 0; task < k * k; ++task) {
    const std::size_t b = task / k;
    const std::size_t a = task % k;
    std::vector<BigInt> rem;
    {
      obs::Span span = timeline.span("batchgcd.remainder_tree");
      const auto start = Clock::now();
      rem = batchgcd::remainder_tree_squares(*trees[a], trees[b]->root());
      remainder_s += seconds_since(start);
    }
    const auto sub = subset(a);
    obs::Span span = timeline.span("batchgcd.leaf_gcd");
    const auto start = Clock::now();
    std::vector<BigInt>& local = candidates[task];
    local.resize(sub.size());
    for (std::size_t i = 0; i < sub.size(); ++i) {
      const BigInt& n = sub[i];
      local[i] = b == a ? weakkeys::bn::gcd(n, rem[i] / n)
                        : weakkeys::bn::gcd(n, rem[i] % n);
    }
    leaf_s += seconds_since(start);
    span.end();
    if (b != a && leaves.empty()) {
      for (std::size_t i = 0; i < std::min(kLeafSample, sub.size()); ++i) {
        leaves.push_back({sub[i], rem[i] % sub[i]});
      }
    }
  }

  {
    obs::Span span = timeline.span("batchgcd.combine");
    const auto start = Clock::now();
    const BigInt one(1);
    for (std::size_t task = 0; task < k * k; ++task) {
      const std::size_t a = task % k;
      for (std::size_t i = 0; i < candidates[task].size(); ++i) {
        if (candidates[task][i] > one) {
          partial[a][i] = partial[a][i] * candidates[task][i];
        }
      }
    }
    for (std::size_t a = 0; a < k; ++a) {
      const auto sub = subset(a);
      for (std::size_t i = 0; i < sub.size(); ++i) {
        d.result.divisors[offset[a] + i] =
            weakkeys::bn::gcd(sub[i], partial[a][i]);
      }
    }
    combine_s += seconds_since(start);
  }

  std::size_t tree_limbs = 0, max_node_limbs = 0;
  for (const auto& tree : trees) {
    tree_limbs += tree->total_limbs();
    max_node_limbs = std::max(max_node_limbs, tree->max_node_limbs());
  }
  d.values["batchgcd.product_tree_s"] = product_s;
  d.values["batchgcd.remainder_tree_s"] = remainder_s;
  d.values["batchgcd.leaf_gcd_s"] = leaf_s;
  d.values["batchgcd.combine_s"] = combine_s;
  // Per tree, as the single-tree benches compare them: k^2 remainder walks
  // against k product-tree builds.
  d.values["batchgcd.remainder_over_product"] =
      (remainder_s / static_cast<double>(k * k)) /
      (product_s / static_cast<double>(k));
  d.values["batchgcd.tree_limbs"] = static_cast<double>(tree_limbs);
  d.values["batchgcd.max_node_limbs"] = static_cast<double>(max_node_limbs);

  if (k >= 3 && !leaves.empty()) {
    probe_kernels(*trees[0], trees[1]->root() * trees[2]->root(), leaves,
                  timeline, d.values);
  }
  return d;
}

}  // namespace wkbench
