// Host-noise probes. They run before each workload so a slow run can be
// blamed on the host rather than on the program: an ALU loop that stays in
// registers (repeats within about 1.5% on a quiet host) and a strided read
// of a buffer far larger than the last-level cache, which shows how busy
// neighbours keep the memory system.
#include <cstdint>
#include <vector>

#include "bench.hpp"

namespace wkbench {

namespace {

constexpr std::uint64_t kAluIterations = 40'000'000;
constexpr std::size_t kMemBytes = std::size_t{128} << 20;
constexpr std::size_t kStrideWords = 8;  // one 64-byte cache line
constexpr int kProbeReps = 3;

volatile std::uint64_t g_sink = 0;

double alu_ms() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kAluIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = seconds_since(start) * 1e3;
  g_sink = x;
  return ms;
}

double mem_ms(const std::vector<std::uint64_t>& buffer) {
  std::uint64_t sum = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < buffer.size(); i += kStrideWords) sum += buffer[i];
  const double ms = seconds_since(start) * 1e3;
  g_sink = sum;
  return ms;
}

}  // namespace

HostProbes probe_host() {
  std::vector<double> alu, mem;
  std::vector<std::uint64_t> buffer(kMemBytes / sizeof(std::uint64_t), 1);
  for (int r = 0; r < kProbeReps; ++r) {
    alu.push_back(alu_ms());
    mem.push_back(mem_ms(buffer));
  }
  return {median(std::move(alu)), median(std::move(mem))};
}

}  // namespace wkbench
