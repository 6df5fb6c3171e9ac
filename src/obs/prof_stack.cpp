#include "obs/prof_stack.hpp"

#include <map>
#include <mutex>

namespace weakkeys::obs::prof {

namespace {

std::atomic<bool> g_enabled{false};

/// One thread's frame stack. Owned by a thread_local handle; registered in
/// the global list for the sampler. The depth counter can exceed kMaxDepth
/// (deep recursion keeps push/pop balanced); only the first kMaxDepth
/// frames are recorded.
struct ThreadStack {
  std::atomic<const char*> frames[kMaxDepth];
  std::atomic<std::uint32_t> depth{0};
};

/// Guards the registry of live thread stacks. The sampler holds it while
/// reading, and a dying thread holds it while unregistering, so the sampler
/// can never read a freed stack. Both are leaked so threads outliving
/// static destruction can still unregister safely.
std::mutex& registry_mu() {
  static auto* mu = new std::mutex();
  return *mu;
}

std::vector<ThreadStack*>& registry() {
  static auto* stacks = new std::vector<ThreadStack*>();
  return *stacks;
}

/// Registers on first use, unregisters when the thread dies.
struct ThreadHandle {
  ThreadStack stack;
  ThreadHandle() {
    std::lock_guard lock(registry_mu());
    registry().push_back(&stack);
  }
  ~ThreadHandle() {
    std::lock_guard lock(registry_mu());
    auto& stacks = registry();
    for (auto it = stacks.begin(); it != stacks.end(); ++it) {
      if (*it == &stack) {
        stacks.erase(it);
        break;
      }
    }
  }
};

ThreadStack& local_stack() {
  thread_local ThreadHandle handle;
  return handle.stack;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

const char* intern(const std::string& name) {
  static std::mutex mu;
  // Leaked on purpose: interned labels must outlive every thread that might
  // still be sampled holding one, including detached threads at exit.
  static auto* table = new std::map<std::string, const char*>();
  std::lock_guard lock(mu);
  const auto it = table->find(name);
  if (it != table->end()) return it->second;
  char* copy = new char[name.size() + 1];
  name.copy(copy, name.size());
  copy[name.size()] = '\0';
  (*table)[name] = copy;
  return copy;
}

void push_frame(const char* label) {
  ThreadStack& st = local_stack();
  const std::uint32_t d = st.depth.load(std::memory_order_relaxed);
  if (d < kMaxDepth) st.frames[d].store(label, std::memory_order_relaxed);
  // Release so a sampler that observes the new depth also observes the
  // frame stored above.
  st.depth.store(d + 1, std::memory_order_release);
}

void pop_frame() {
  ThreadStack& st = local_stack();
  const std::uint32_t d = st.depth.load(std::memory_order_relaxed);
  if (d > 0) st.depth.store(d - 1, std::memory_order_release);
}

StackSample current_stack() {
  const ThreadStack& st = local_stack();
  const std::uint32_t depth =
      std::min<std::uint32_t>(st.depth.load(std::memory_order_relaxed),
                              static_cast<std::uint32_t>(kMaxDepth));
  StackSample out(depth);
  for (std::uint32_t i = 0; i < depth; ++i) {
    out[i] = st.frames[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<StackSample> sample_all_stacks() {
  std::vector<StackSample> out;
  std::lock_guard lock(registry_mu());
  for (ThreadStack* st : registry()) {
    const std::uint32_t depth =
        std::min<std::uint32_t>(st->depth.load(std::memory_order_acquire),
                                static_cast<std::uint32_t>(kMaxDepth));
    if (depth == 0) continue;
    StackSample sample;
    sample.reserve(depth);
    for (std::uint32_t i = 0; i < depth; ++i) {
      const char* frame = st->frames[i].load(std::memory_order_relaxed);
      // A slot below the observed depth can transiently read null if the
      // owning thread is mid-push on a freshly registered stack; drop the
      // tail rather than fabricate a frame.
      if (frame == nullptr) break;
      sample.push_back(frame);
    }
    if (!sample.empty()) out.push_back(std::move(sample));
  }
  return out;
}

std::size_t registered_threads() {
  std::lock_guard lock(registry_mu());
  return registry().size();
}

}  // namespace weakkeys::obs::prof
