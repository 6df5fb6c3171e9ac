// Scoped override of one bn::Tuning threshold for tests: the saved value
// comes back when the scope ends, also when a failed ASSERT returns early,
// so a tiny crossover forced by one test never leaks into later ones.
#pragma once

#include <cstddef>

namespace weakkeys::bn {

class ScopedThreshold {
 public:
  ScopedThreshold(std::size_t& knob, std::size_t value)
      : knob_(knob), saved_(knob) {
    knob_ = value;
  }
  ~ScopedThreshold() { knob_ = saved_; }
  ScopedThreshold(const ScopedThreshold&) = delete;
  ScopedThreshold& operator=(const ScopedThreshold&) = delete;

 private:
  std::size_t& knob_;
  std::size_t saved_;
};

}  // namespace weakkeys::bn
