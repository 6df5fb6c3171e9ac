#include "batchgcd/distributed.hpp"

#include <algorithm>
#include <memory>
#include <mutex>

#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"

namespace weakkeys::batchgcd {

using bn::BigInt;

BatchGcdResult batch_gcd_distributed(std::span<const BigInt> moduli,
                                     std::size_t k, util::ThreadPool* pool,
                                     DistributedStats* stats,
                                     const util::CancellationToken* cancel,
                                     obs::MetricsRegistry* registry,
                                     const TreeStorage* storage) {
  BatchGcdResult result;
  result.divisors.assign(moduli.size(), BigInt(1));
  if (moduli.empty()) return result;
  k = std::clamp<std::size_t>(k, 1, moduli.size());

  // Partition into k contiguous subsets and build their product trees.
  struct Subset {
    std::size_t offset = 0;
    std::span<const BigInt> moduli;
    std::unique_ptr<ProductTree> tree;
  };
  std::vector<Subset> subsets(k);
  {
    const std::size_t base = moduli.size() / k;
    const std::size_t extra = moduli.size() % k;
    std::size_t offset = 0;
    for (std::size_t a = 0; a < k; ++a) {
      const std::size_t len = base + (a < extra ? 1 : 0);
      subsets[a].offset = offset;
      subsets[a].moduli = moduli.subspan(offset, len);
      offset += len;
    }
  }
  auto build_tree = [&subsets, cancel, storage](std::size_t a) {
    if (cancel) cancel->throw_if_cancelled();
    if (storage != nullptr && storage->enabled()) {
      // Per-subset spill identity: distinct file base and fault stream so
      // k trees in one dir never collide and chaos schedules stay pure.
      TreeStorage subset_storage = *storage;
      subset_storage.base = storage->base + ".s" + std::to_string(a);
      subset_storage.fault_stream = storage->fault_stream + a;
      subsets[a].tree =
          std::make_unique<ProductTree>(subsets[a].moduli, subset_storage);
    } else {
      subsets[a].tree = std::make_unique<ProductTree>(subsets[a].moduli);
    }
  };
  if (pool) {
    pool->parallel_for(k, build_tree, cancel);
  } else {
    for (std::size_t a = 0; a < k; ++a) build_tree(a);
  }
  if (registry) subsets[0].tree->publish_level_stats(*registry);

  // Every product P_b against every subset S_a: k^2 independent tasks, each
  // claiming shared-factor candidates for S_a's leaves (task_claims).
  // Candidates multiply together before a final gcd, which reproduces the
  // single-tree divisor exactly.
  std::vector<std::vector<BigInt>> partial(k);  // per subset, per leaf
  for (std::size_t a = 0; a < k; ++a) {
    partial[a].assign(subsets[a].moduli.size(), BigInt(1));
  }
  std::vector<std::mutex> locks(k);

  auto run_task = [&](std::size_t task) {
    if (cancel) cancel->throw_if_cancelled();
    const std::size_t b = task / k;  // product index
    const std::size_t a = task % k;  // subset index
    const std::vector<TaskClaim> claims =
        task_claims(*subsets[a].tree, subsets[a].moduli,
                    subsets[b].tree->root(), b == a);
    std::lock_guard guard(locks[a]);
    for (const TaskClaim& claim : claims) {
      partial[a][claim.leaf] = partial[a][claim.leaf] * claim.divisor;
    }
  };
  if (pool) {
    pool->parallel_for(k * k, run_task, cancel);
  } else {
    for (std::size_t t = 0; t < k * k; ++t) run_task(t);
  }

  // Final combination per modulus.
  for (std::size_t a = 0; a < k; ++a) {
    const Subset& subset = subsets[a];
    for (std::size_t i = 0; i < subset.moduli.size(); ++i) {
      result.divisors[subset.offset + i] =
          bn::gcd(subset.moduli[i], partial[a][i]);
    }
  }

  if (stats) {
    stats->subsets = k;
    stats->tasks = k * k;
    stats->max_node_limbs = 0;
    stats->total_tree_limbs = 0;
    for (const auto& s : subsets) {
      stats->max_node_limbs = std::max(stats->max_node_limbs,
                                       s.tree->max_node_limbs());
      stats->total_tree_limbs += s.tree->total_limbs();
    }
  }
  return result;
}

}  // namespace weakkeys::batchgcd
