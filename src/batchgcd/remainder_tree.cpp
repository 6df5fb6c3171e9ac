#include "batchgcd/remainder_tree.hpp"

#include "obs/mem.hpp"
#include "obs/prof_stack.hpp"

namespace weakkeys::batchgcd {

using bn::BigInt;

namespace {

/// x mod node^2, skipping the squaring when x is provably below it
/// (x < 2^(2B-2) <= node^2 for a B-bit node). The root of a batch-GCD
/// remainder tree always hits the cheap path: P mod P^2 == P.
BigInt reduce_mod_square(const BigInt& x, const BigInt& node) {
  const std::size_t node_bits = node.bit_length();
  if (node_bits >= 1 && x.bit_length() <= 2 * node_bits - 2) return x;
  return x % node.squared();
}

/// x mod node, carrying x down untouched when it is already below node.
BigInt reduce_mod(const BigInt& x, const BigInt& node) {
  return x < node ? x : x % node;
}

/// Reduces x down the tree with `reduce` at every node and returns the
/// leaf row. rem[i] holds the current level's remainders. A level's odd
/// trailing node is carried up unchanged by the product tree, so rem[i/2]
/// is its own remainder already and its reduction is a cheap no-op.
///
/// Levels stream through the store one at a time (load, walk, release):
/// over the in-RAM backend the load is a free aliasing handle, over the
/// spill backend it is a verified read with at most the configured window
/// resident — only the current and next remainder rows plus one product
/// level are ever in memory.
template <typename Reduce>
std::vector<BigInt> walk(const ProductTree& tree, const BigInt& x,
                         Reduce reduce) {
  static const int mem_label =
      obs::mem::register_label("batchgcd.remainder_tree");
  obs::MemScope mem_scope(mem_label);
  obs::prof::Frame frame("batchgcd.remainder_tree");
  LevelStore& store = tree.store();
  const std::size_t level_count = store.level_stats().size();
  if (level_count == 0) return {};

  std::vector<BigInt> rem = {reduce(x, tree.root())};
  for (std::size_t li = level_count - 1; li-- > 0;) {
    const LevelHandle level = store.load_level(li);
    std::vector<BigInt> next(level->size());
    for (std::size_t i = 0; i < level->size(); ++i) {
      next[i] = reduce(rem[i / 2], (*level)[i]);
    }
    store.release_level(li);
    rem = std::move(next);
  }
  return rem;
}

}  // namespace

std::vector<BigInt> remainder_tree_squares(const ProductTree& tree,
                                           const BigInt& x) {
  return walk(tree, x, reduce_mod_square);
}

std::vector<BigInt> remainder_tree(const ProductTree& tree, const BigInt& x) {
  return walk(tree, x, reduce_mod);
}

std::vector<TaskClaim> task_claims(const ProductTree& tree_a,
                                   std::span<const BigInt> moduli_a,
                                   const BigInt& product_b, bool diagonal,
                                   const std::function<void()>& on_remainders) {
  const std::vector<BigInt> rem = diagonal
                                      ? remainder_tree_squares(tree_a, product_b)
                                      : remainder_tree(tree_a, product_b);
  if (on_remainders) on_remainders();
  std::vector<TaskClaim> claims;
  const BigInt one(1);
  for (std::size_t i = 0; i < moduli_a.size(); ++i) {
    const BigInt& n = moduli_a[i];
    // Diagonal: P_a mod N_i^2 = N_i * ((P_a/N_i) mod N_i), an exact
    // division. Off the diagonal the remainder is already below N_i.
    BigInt g = diagonal ? bn::gcd(n, rem[i] / n) : bn::gcd(n, rem[i]);
    if (g > one) claims.push_back({static_cast<std::uint32_t>(i), std::move(g)});
  }
  return claims;
}

}  // namespace weakkeys::batchgcd
