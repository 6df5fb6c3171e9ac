// Remainder trees over a product tree of {N_1..N_n}, and the k-subset task
// kernel built on them. Both walks stream the tree's levels through its
// LevelStore (load, walk, release), so spilled trees work unchanged.
//
// remainder_tree_squares() reduces X modulo the square of each node
// (Bernstein's formulation, which avoids a product tree over the N_i^2).
// batch_gcd() and the diagonal task need it: there X is divisible by N_i,
// and only (X mod N_i^2) / N_i recovers (X / N_i) mod N_i.
//
// remainder_tree() reduces X modulo each node itself. An off-diagonal task
// (product P_b against subset S_a, b != a) needs only gcd(N_i, P_b mod N_i),
// which equals gcd(N_i, (P_b mod N_i^2) mod N_i). Each step then divides a
// 2B-bit remainder by a B-bit node, not a 4B-bit one by a 2B-bit square,
// and squares nothing, so k-1 of every k tasks do about half the work.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "batchgcd/product_tree.hpp"
#include "batchgcd/task_journal.hpp"
#include "bn/bigint.hpp"

namespace weakkeys::batchgcd {

/// z_i = X mod N_i^2 for each leaf N_i of `tree`.
std::vector<bn::BigInt> remainder_tree_squares(const ProductTree& tree,
                                               const bn::BigInt& x);

/// z_i = X mod N_i for each leaf N_i of `tree`.
std::vector<bn::BigInt> remainder_tree(const ProductTree& tree,
                                       const bn::BigInt& x);

/// One k-subset task: product P_b against subset S_a, whose leaves are
/// `moduli_a` and whose product tree is `tree_a`. Returns the nontrivial
/// leaf candidates (> 1), in leaf order:
///   diagonal (b == a): gcd(N_i, (P_a mod N_i^2) / N_i)
///   otherwise:         gcd(N_i, P_b mod N_i)
/// Every engine (thread pool, in-process coordinator, cluster worker) runs
/// its tasks through this; fault injection, verification and journalling
/// stay with the caller. `on_remainders`, when set, runs once between the
/// remainder walk and the leaf gcds, so a caller can time the two phases.
std::vector<TaskClaim> task_claims(
    const ProductTree& tree_a, std::span<const bn::BigInt> moduli_a,
    const bn::BigInt& product_b, bool diagonal,
    const std::function<void()>& on_remainders = {});

}  // namespace weakkeys::batchgcd
