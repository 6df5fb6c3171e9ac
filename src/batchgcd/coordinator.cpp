#include "batchgcd/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"
#include "batchgcd/task_journal.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::batchgcd {

namespace {

using bn::BigInt;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);

/// One nontrivial divisor candidate claimed by a task: `leaf` indexes into
/// the task's subset (the journal's record unit).
using Claim = TaskClaim;

class Coordinator {
 public:
  Coordinator(std::span<const BigInt> moduli, const CoordinatorConfig& config)
      : config_(config), moduli_(moduli) {
    if (config_.telemetry) {
      auto& m = config_.telemetry->metrics();
      m_attempts_ = &m.counter("coordinator.attempts");
      m_retries_ = &m.counter("coordinator.retries");
      m_crashes_ = &m.counter("coordinator.crashes");
      m_stragglers_ = &m.counter("coordinator.stragglers_killed");
      m_corruptions_ = &m.counter("coordinator.corruptions_caught");
      m_trees_rebuilt_ = &m.counter("coordinator.trees_rebuilt");
      m_tasks_resumed_ = &m.counter("coordinator.tasks_resumed");
      m_tasks_executed_ = &m.counter("coordinator.tasks_executed");
      m_watchdog_reassigned_ = &m.counter("watchdog.tasks_reassigned");
      m_task_us_ = &m.histogram("coordinator.task_us");
    }
    k_ = std::clamp<std::size_t>(config.subsets, 1,
                                 std::max<std::size_t>(moduli.size(), 1));
    total_ = k_ * k_;
    workers_n_ = config.workers != 0
                     ? config.workers
                     : std::max(1u, std::thread::hardware_concurrency());

    // Partition into k contiguous subsets (identical to
    // batch_gcd_distributed, so outputs line up element for element).
    subsets_.resize(k_);
    const std::size_t base = moduli.size() / k_;
    const std::size_t extra = moduli.size() % k_;
    std::size_t offset = 0;
    for (std::size_t a = 0; a < k_; ++a) {
      const std::size_t len = base + (a < extra ? 1 : 0);
      subsets_[a].offset = offset;
      subsets_[a].moduli = moduli.subspan(offset, len);
      offset += len;
    }
    trees_.resize(k_);
    partial_.resize(k_);
    for (std::size_t a = 0; a < k_; ++a) {
      partial_[a].assign(subsets_[a].moduli.size(), BigInt(1));
    }
  }

  BatchGcdResult run(CoordinatorStats* stats) {
    BatchGcdResult result;
    result.divisors.assign(moduli_.size(), BigInt(1));
    if (moduli_.empty()) {
      if (stats) *stats = stats_;
      return result;
    }
    stats_.subsets = k_;
    stats_.tasks = total_;
    if (config_.telemetry) {
      // Totals for progress derivation (monitor heartbeats, /status): a
      // live reader computes done/total from tasks_executed+tasks_resumed
      // against this counter without waiting for CoordinatorStats.
      auto& m = config_.telemetry->metrics();
      m.counter("coordinator.tasks").set(total_);
      m.counter("coordinator.subsets").set(k_);
    }

    std::vector<bool> done(total_, false);
    if (!config_.checkpoint_path.empty()) open_journal(done);

    for (std::size_t t = 0; t < total_; ++t) {
      if (!done[t]) {
        pending_.push_back({t, 0, Clock::now(), kNoWorker});
      }
    }
    if (committed_ > 0) {
      log("checkpoint: resumed " + std::to_string(committed_) + "/" +
          std::to_string(total_) + " tasks from " + config_.checkpoint_path);
    }

    if (config_.cancel && config_.cancel->cancelled()) cancelled_ = true;
    if (!pending_.empty() && !cancelled_) {
      try {
        build_trees_parallel();
      } catch (const util::Cancelled&) {
        cancelled_ = true;  // cancelled during tree builds: flush and report
      }
      if (!cancelled_) {
        std::vector<std::thread> workers;
        workers.reserve(workers_n_);
        for (std::size_t w = 0; w < workers_n_; ++w) {
          workers.emplace_back([this, w] { worker_loop(w); });
        }
        for (auto& t : workers) t.join();
      }
    }

    if (stats) *stats = stats_;
    if (fatal_) std::rethrow_exception(fatal_);
    if (cancelled_) {
      // Flush and close: a cancelled run resumes exactly like a killed one.
      journal_.close();
      throw util::Cancelled(config_.cancel ? config_.cancel->reason()
                                           : "coordinator");
    }
    if (halted_) {
      journal_.close();  // flush and close: the journal is the resume point
      throw CoordinatorInterrupted(
          "coordinator halted after " + std::to_string(stats_.tasks_executed) +
          " tasks (checkpoint retained)");
    }

    for (std::size_t a = 0; a < k_; ++a) {
      for (std::size_t i = 0; i < subsets_[a].moduli.size(); ++i) {
        result.divisors[subsets_[a].offset + i] =
            bn::gcd(subsets_[a].moduli[i], partial_[a][i]);
      }
    }
    journal_.close();
    if (!config_.checkpoint_path.empty() &&
        config_.remove_checkpoint_on_success) {
      std::remove(config_.checkpoint_path.c_str());
    }
    if (stats) *stats = stats_;
    return result;
  }

 private:
  struct Subset {
    std::size_t offset = 0;
    std::span<const BigInt> moduli;
  };

  struct Pending {
    std::size_t task = 0;
    std::size_t attempt = 0;  ///< 0-based attempt about to run
    Clock::time_point ready_at;
    std::size_t banned_worker = kNoWorker;  ///< who failed it last
  };

  enum class OutcomeKind { kOk, kCrash, kStraggle, kCorrupt };

  struct Outcome {
    OutcomeKind kind = OutcomeKind::kOk;
    std::vector<Claim> claims;
    bool lost_tree = false;
    std::uint64_t ns = 0;
  };

  void log(const std::string& message) const {
    if (config_.log) config_.log(message);
  }

  // -- checkpoint journal --------------------------------------------------

  /// Opens the shared TaskJournal: replays the valid committed prefix into
  /// partial_ and `done` (verifying every claim against its modulus), then
  /// leaves the journal open for appending new commits.
  void open_journal(std::vector<bool>& done) {
    journal_.open(
        config_.checkpoint_path, corpus_fingerprint(moduli_, k_),
        static_cast<std::uint32_t>(total_),
        [this, &done](std::uint32_t task, std::vector<Claim>&& claims) {
          if (task >= total_ || done[task]) return false;
          const std::size_t a = task % k_;
          if (!verify(a, claims)) return false;
          for (const auto& claim : claims) {
            partial_[a][claim.leaf] = partial_[a][claim.leaf] * claim.divisor;
          }
          done[task] = true;
          ++committed_;
          ++stats_.tasks_resumed;
          if (m_tasks_resumed_) m_tasks_resumed_->inc();
          return true;
        });
  }

  // -- product trees -------------------------------------------------------

  void build_trees_parallel() {
    obs::Span span;
    if (config_.telemetry) {
      span = config_.telemetry->tracer().span("gcd.build_trees");
    }
    const auto build = [this](std::size_t a) {
      auto tree = make_tree(a);
      std::lock_guard guard(tree_mu_);
      trees_[a] = std::move(tree);
    };
    const std::size_t nthreads = std::min(workers_n_, k_);
    if (nthreads <= 1) {
      for (std::size_t a = 0; a < k_; ++a) {
        if (config_.cancel) config_.cancel->throw_if_cancelled();
        build(a);
      }
      publish_tree_census();
      return;
    }
    // Through the shared pool (not raw threads) so the builds show up in
    // the `threadpool.*` instruments alongside the fast path's.
    util::ThreadPool pool(nthreads, config_.telemetry);
    pool.parallel_for(k_, build, config_.cancel);
    publish_tree_census();
  }

  /// Per-level byte/node gauges from the first subset's tree — one
  /// representative tree, so the level gauges always sum to `bytes_peak`.
  void publish_tree_census() {
    if (!config_.telemetry) return;
    std::lock_guard guard(tree_mu_);
    if (trees_.empty() || !trees_[0]) return;
    trees_[0]->publish_level_stats(config_.telemetry->metrics());
  }

  /// Builds subset a's tree under the configured spill policy. A rebuilt
  /// tree reuses the same file base / fault stream, so a lost tree heals
  /// from (or overwrites) its own level files, never a sibling's.
  std::shared_ptr<ProductTree> make_tree(std::size_t a) const {
    if (config_.storage != nullptr && config_.storage->enabled()) {
      TreeStorage subset_storage = *config_.storage;
      subset_storage.base = config_.storage->base + ".s" + std::to_string(a);
      subset_storage.fault_stream = config_.storage->fault_stream + a;
      return std::make_shared<ProductTree>(subsets_[a].moduli, subset_storage);
    }
    return std::make_shared<ProductTree>(subsets_[a].moduli);
  }

  std::shared_ptr<const ProductTree> acquire_tree(std::size_t a) {
    std::lock_guard guard(tree_mu_);
    if (!trees_[a]) {
      trees_[a] = make_tree(a);
    }
    return trees_[a];
  }

  void drop_tree(std::size_t a) {
    std::lock_guard guard(tree_mu_);
    trees_[a].reset();
  }

  // -- task execution ------------------------------------------------------

  /// One attempt on the simulated worker, faults included. Runs unlocked.
  Outcome execute(const Pending& p, std::size_t worker) {
    const auto t0 = Clock::now();
    Outcome out;
    const util::FaultDecision decision =
        config_.injector ? config_.injector->decide(p.task, p.attempt)
                         : util::FaultDecision{};
    const std::size_t b = p.task / k_;  // product index
    const std::size_t a = p.task % k_;  // subset index

    obs::Span span;
    if (config_.telemetry) {
      span = config_.telemetry->tracer().span("gcd.task");
      span.arg("task", static_cast<std::int64_t>(p.task));
      span.arg("product", static_cast<std::int64_t>(b));
      span.arg("subset", static_cast<std::int64_t>(a));
      span.arg("attempt", static_cast<std::int64_t>(p.attempt));
      span.arg("worker", static_cast<std::int64_t>(worker));
    }

    if (decision.lose_tree) {
      // The subset's product tree evaporates (node reboot, evicted cache).
      // Not a task failure: the next acquire_tree() rebuilds it.
      drop_tree(a);
      out.lost_tree = true;
    }
    if (decision.kind == util::FaultKind::kCrash) {
      out.kind = OutcomeKind::kCrash;
      out.ns = elapsed_ns(t0);
      return out;
    }
    if (decision.kind == util::FaultKind::kStraggle) {
      // The worker limps along past the deadline; the coordinator kills it
      // and discards whatever it would eventually have produced.
      std::this_thread::sleep_for(config_.straggler_deadline);
      out.kind = OutcomeKind::kStraggle;
      out.ns = elapsed_ns(t0);
      return out;
    }

    const Subset& subset = subsets_[a];
    const auto tree_a = acquire_tree(a);
    const BigInt product = acquire_tree(b)->root();
    out.claims = task_claims(*tree_a, subset.moduli, product, b == a);

    if (decision.kind == util::FaultKind::kCorruptResult &&
        !subset.moduli.empty()) {
      const std::size_t slot = decision.corrupt_slot % subset.moduli.size();
      const BigInt& n = subset.moduli[slot];
      if (n > BigInt(2)) {
        // n-1 never divides n for n > 2, so verification is guaranteed to
        // reject this claim — the corruption cannot leak into the output.
        const BigInt bogus = n - BigInt(1);
        const auto it = std::find_if(
            out.claims.begin(), out.claims.end(),
            [slot](const Claim& c) { return c.leaf == slot; });
        if (it != out.claims.end()) {
          it->divisor = bogus;
        } else {
          out.claims.push_back({static_cast<std::uint32_t>(slot), bogus});
        }
      }
    }

    if (!verify(a, out.claims)) out.kind = OutcomeKind::kCorrupt;
    out.ns = elapsed_ns(t0);
    return out;
  }

  /// A claimed divisor is accepted only if it is nontrivial, bounded by its
  /// modulus, and actually divides it.
  [[nodiscard]] bool verify(std::size_t a,
                            const std::vector<Claim>& claims) const {
    const BigInt one(1);
    for (const auto& claim : claims) {
      if (claim.leaf >= subsets_[a].moduli.size()) return false;
      const BigInt& n = subsets_[a].moduli[claim.leaf];
      if (!(claim.divisor > one) || claim.divisor > n) return false;
      if (!(n % claim.divisor == BigInt(0))) return false;
    }
    return true;
  }

  static std::uint64_t elapsed_ns(Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
  }

  // -- scheduling ----------------------------------------------------------

  void worker_loop(std::size_t w) {
    obs::Counter* w_attempts = nullptr;
    obs::Counter* w_retries = nullptr;
    obs::Counter* w_straggles = nullptr;
    obs::Counter* w_committed = nullptr;
    if (config_.telemetry) {
      auto& m = config_.telemetry->metrics();
      const std::string prefix = "coordinator.worker." + std::to_string(w);
      w_attempts = &m.counter(prefix + ".attempts");
      w_retries = &m.counter(prefix + ".retries");
      w_straggles = &m.counter(prefix + ".straggles");
      w_committed = &m.counter(prefix + ".tasks_committed");
    }
    std::unique_lock lock(mu_);
    for (;;) {
      if (fatal_ || halted_) return;
      // Poll the token between tasks: the first worker to observe the trip
      // stops the whole queue, so cancel latency is one task, not a drain
      // of everything pending.
      if (config_.cancel && config_.cancel->cancelled()) {
        cancelled_ = true;
        cv_.notify_all();
        return;
      }
      if (cancelled_) return;
      if (committed_ == total_) return;

      const auto now = Clock::now();
      std::size_t pick = pending_.size();
      auto earliest = Clock::time_point::max();
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        const Pending& p = pending_[i];
        if (p.banned_worker == w) continue;
        if (p.ready_at <= now) {
          pick = i;
          break;
        }
        earliest = std::min(earliest, p.ready_at);
      }
      if (pick == pending_.size()) {
        if (pending_.empty() && inflight_ == 0) return;  // fully drained
        if (earliest == Clock::time_point::max()) {
          if (config_.cancel) {
            // Bounded wait: a deadline-tripped token has no thread to
            // notify us, so re-poll on a short cadence instead.
            cv_.wait_for(lock, std::chrono::milliseconds(50));
          } else {
            cv_.wait(lock);
          }
        } else {
          cv_.wait_until(lock, earliest);
        }
        continue;
      }

      Pending p = pending_[pick];
      pending_.erase(pending_.begin() +
                     static_cast<std::ptrdiff_t>(pick));
      ++inflight_;
      ++stats_.attempts;
      if (m_attempts_) m_attempts_->inc();
      if (w_attempts) w_attempts->inc();
      if (p.attempt > 0) {
        ++stats_.retries;
        if (m_retries_) m_retries_->inc();
        if (w_retries) w_retries->inc();
      }
      lock.unlock();

      Outcome out;
      try {
        out = execute(p, w);
      } catch (...) {
        lock.lock();
        --inflight_;
        if (!fatal_) fatal_ = std::current_exception();
        cv_.notify_all();
        return;
      }

      lock.lock();
      --inflight_;
      stats_.total_task_ns += out.ns;
      stats_.max_task_ns = std::max(stats_.max_task_ns, out.ns);
      if (m_task_us_) m_task_us_->record(out.ns / 1000);
      if (out.lost_tree) {
        ++stats_.trees_rebuilt;
        if (m_trees_rebuilt_) m_trees_rebuilt_->inc();
      }

      if (out.kind == OutcomeKind::kOk) {
        commit(p.task, out.claims);
        // Summed over workers this equals coordinator.tasks_executed
        // (resumed tasks belong to no worker), pinned by the e2e test.
        if (w_committed) w_committed->inc();
      } else {
        switch (out.kind) {
          case OutcomeKind::kCrash:
            ++stats_.crashes;
            if (m_crashes_) m_crashes_->inc();
            break;
          case OutcomeKind::kStraggle:
            // The per-task watchdog: the deadline-exceeded attempt is
            // killed here and the requeue below reassigns it away from
            // this worker.
            ++stats_.stragglers_killed;
            if (m_stragglers_) m_stragglers_->inc();
            if (w_straggles) w_straggles->inc();
            if (m_watchdog_reassigned_) m_watchdog_reassigned_->inc();
            break;
          case OutcomeKind::kCorrupt:
            ++stats_.corruptions_caught;
            if (m_corruptions_) m_corruptions_->inc();
            break;
          case OutcomeKind::kOk:
            break;
        }
        const std::size_t next_attempt = p.attempt + 1;
        if (config_.retry.exhausted(next_attempt)) {
          if (!fatal_) {
            fatal_ = std::make_exception_ptr(CoordinatorError(
                "task " + std::to_string(p.task) + " failed after " +
                std::to_string(next_attempt) + " attempts"));
          }
          cv_.notify_all();
          return;
        }
        // Retry on the shared RetryPolicy schedule (capped exponential,
        // deterministic jitter keyed on the task), preferring a different
        // worker (with a single worker there is no one else to blame).
        pending_.push_back(
            {p.task, next_attempt,
             Clock::now() + config_.retry.jittered_delay(p.task, p.attempt),
             workers_n_ > 1 ? w : kNoWorker});
      }
      cv_.notify_all();
    }
  }

  /// Accepts a verified result: folds claims into the divisor accumulators,
  /// journals the task, and checks the simulated-kill hook. Caller holds mu_.
  void commit(std::size_t task, const std::vector<Claim>& claims) {
    const std::size_t a = task % k_;
    for (const auto& claim : claims) {
      partial_[a][claim.leaf] = partial_[a][claim.leaf] * claim.divisor;
    }
    journal_.append(static_cast<std::uint32_t>(task), claims);
    ++committed_;
    ++stats_.tasks_executed;
    if (m_tasks_executed_) m_tasks_executed_->inc();
    if (config_.halt_after_tasks != 0 &&
        stats_.tasks_executed >= config_.halt_after_tasks &&
        committed_ < total_) {
      halted_ = true;
    }
  }

  CoordinatorConfig config_;
  std::span<const BigInt> moduli_;
  std::size_t k_ = 1;
  std::size_t total_ = 0;
  std::size_t workers_n_ = 1;
  std::vector<Subset> subsets_;

  std::mutex tree_mu_;
  std::vector<std::shared_ptr<const ProductTree>> trees_;

  std::mutex mu_;  ///< guards everything below
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  std::size_t inflight_ = 0;
  std::size_t committed_ = 0;  ///< resumed + executed
  bool halted_ = false;
  bool cancelled_ = false;  ///< a worker observed config_.cancel tripped
  std::exception_ptr fatal_;
  std::vector<std::vector<BigInt>> partial_;  ///< per subset, per leaf
  TaskJournal journal_;
  CoordinatorStats stats_;

  // Telemetry instruments, resolved once at construction (null without a
  // telemetry bundle). Updated under mu_ alongside the stats_ fields they
  // mirror, except m_task_us_ (atomic, recorded where the timing is known).
  obs::Counter* m_attempts_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_crashes_ = nullptr;
  obs::Counter* m_stragglers_ = nullptr;
  obs::Counter* m_corruptions_ = nullptr;
  obs::Counter* m_trees_rebuilt_ = nullptr;
  obs::Counter* m_tasks_resumed_ = nullptr;
  obs::Counter* m_tasks_executed_ = nullptr;
  obs::Counter* m_watchdog_reassigned_ = nullptr;
  obs::Histogram* m_task_us_ = nullptr;
};

}  // namespace

BatchGcdResult batch_gcd_coordinated(std::span<const BigInt> moduli,
                                     const CoordinatorConfig& config,
                                     CoordinatorStats* stats) {
  Coordinator coordinator(moduli, config);
  return coordinator.run(stats);
}

}  // namespace weakkeys::batchgcd
