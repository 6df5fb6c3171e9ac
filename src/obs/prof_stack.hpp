// Per-thread current-stack snapshots for the sampling profiler.
//
// Every thread that executes instrumented code keeps a small fixed-depth
// stack of frame labels (stable `const char*`s: string literals or interned
// names). obs::Span pushes its name here while profiling is enabled, and
// hot kernels (bn multiply/divide) push leaf frames directly — so a
// background sampler can reconstruct "what is this thread doing right now"
// without stopping it.
//
// Concurrency model: the owning thread writes its stack with relaxed
// atomic stores; the sampler reads depth with acquire and the frame slots
// with relaxed loads. A sample taken mid-push/pop may attribute to the
// frame that was live a few nanoseconds earlier or later — harmless for a
// statistical profiler, and every pointer it can read is a label with
// process lifetime, so there is no use-after-free window.
//
// Cost when profiling is off: one relaxed atomic load and a branch per
// Frame construction — the zero-overhead contract the perf suites gate.
//
// This header deliberately depends on nothing but the standard library so
// the bn layer can include it without widening its dependency surface.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

namespace weakkeys::obs::prof {

/// Maximum frames captured per thread; deeper nesting keeps counting depth
/// but the frames beyond the cap are not recorded.
inline constexpr std::size_t kMaxDepth = 64;

/// Global profiling switch (off by default). Flipped by obs::Profiler.
bool enabled();
void set_enabled(bool on);

/// Interns `name`, returning a pointer with process lifetime. Idempotent
/// and thread-safe; intended for low-cardinality span names. String
/// literals do not need interning — pass them to Frame directly.
const char* intern(const std::string& name);

/// Pushes `label` (a stable pointer) on the calling thread's frame stack.
/// Callers must pop exactly what they pushed (LIFO); use Frame for RAII.
void push_frame(const char* label);
void pop_frame();

/// One sampled thread stack, outermost frame first.
using StackSample = std::vector<const char*>;

/// The calling thread's recorded frames, outermost first.
StackSample current_stack();

/// Snapshots every registered thread's current stack. Threads with empty
/// stacks are skipped. Safe to call concurrently with push/pop.
std::vector<StackSample> sample_all_stacks();

/// Number of threads that have ever pushed a frame and are still alive.
std::size_t registered_threads();

/// RAII frame. A null label, or profiling being disabled at construction,
/// makes it inert; a frame pushed while enabled is popped even if
/// profiling was disabled in between (push/pop stay balanced).
class Frame {
 public:
  explicit Frame(const char* label) {
    if (label != nullptr && enabled()) {
      push_frame(label);
      pushed_ = true;
    }
  }
  ~Frame() {
    if (pushed_) pop_frame();
  }
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

 private:
  bool pushed_ = false;
};

/// RAII replay of another thread's frames (a current_stack() snapshot) on
/// this thread: a pool task adopts its submitter's stack, so its samples
/// land below the stage that submitted it. Inert when profiling is off.
class AdoptedStack {
 public:
  explicit AdoptedStack(const StackSample& frames) {
    if (frames.empty() || !enabled()) return;
    for (const char* label : frames) push_frame(label);
    pushed_ = frames.size();
  }
  ~AdoptedStack() {
    for (std::size_t i = 0; i < pushed_; ++i) pop_frame();
  }
  AdoptedStack(const AdoptedStack&) = delete;
  AdoptedStack& operator=(const AdoptedStack&) = delete;

 private:
  std::size_t pushed_ = 0;
};

}  // namespace weakkeys::obs::prof
