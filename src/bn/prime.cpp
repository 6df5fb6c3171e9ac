// Primality testing and random generation.
//
// Miller-Rabin with random bases drawn from the caller's RandomSource keeps
// the whole key-generation path deterministic under a simulated device RNG —
// which is precisely how the flawed devices in the study end up sharing
// primes.
#include <stdexcept>
#include <string>

#include "bn/detail.hpp"

namespace weakkeys::bn {

std::span<const std::uint32_t> small_primes(std::size_t count) {
  // Every prime below 2^17 (12,251 of them: enough for the 2,048-prime
  // keygen sieve and trial division to 10^5), sieved once on first use;
  // afterwards callers share the immutable table without a lock.
  static const std::vector<std::uint32_t> table = [] {
    constexpr std::size_t kBound = std::size_t{1} << 17;
    std::vector<bool> composite(kBound, false);
    std::vector<std::uint32_t> primes;
    for (std::size_t i = 2; i < kBound; ++i) {
      if (composite[i]) continue;
      primes.push_back(static_cast<std::uint32_t>(i));
      for (std::size_t j = i * i; j < kBound; j += i) composite[j] = true;
    }
    return primes;
  }();
  if (count > table.size()) {
    throw std::out_of_range("small_primes: more than " +
                            std::to_string(table.size()) + " requested");
  }
  return std::span<const std::uint32_t>(table).first(count);
}

std::uint64_t mod_small(const BigInt& n, std::uint64_t p) {
  if (p == 0) throw std::domain_error("mod by zero");
  unsigned __int128 rem = 0;
  const auto limbs = n.limbs();
  for (std::size_t i = limbs.size(); i-- > 0;) {
    rem = ((rem << 64) | limbs[i]) % p;
  }
  return static_cast<std::uint64_t>(rem);
}

BigInt random_bits(RandomSource& src, std::size_t bits) {
  if (bits == 0) return BigInt{};
  const std::size_t bytes = (bits + 7) / 8;
  std::vector<std::uint8_t> buf(bytes);
  src.fill(buf);
  const unsigned excess = static_cast<unsigned>(bytes * 8 - bits);
  buf[0] &= static_cast<std::uint8_t>(0xffu >> excess);
  return BigInt::from_bytes(buf);
}

BigInt random_range(RandomSource& src, const BigInt& low, const BigInt& high) {
  if (low > high) throw std::invalid_argument("random_range: low > high");
  const BigInt span = high - low + BigInt(1);
  const std::size_t bits = span.bit_length();
  // Rejection sampling: expected < 2 draws.
  for (;;) {
    const BigInt candidate = random_bits(src, bits);
    if (candidate < span) return low + candidate;
  }
}

bool is_probable_prime(const BigInt& n, RandomSource& src, int rounds) {
  if (n.sign() <= 0) return false;
  // Deterministic handling of small values and small factors.
  const bool one_limb = n.limb_count() == 1;
  if (one_limb && n.limbs()[0] < 2) return false;
  for (const std::uint32_t p : small_primes(64)) {
    if (mod_small(n, p) == 0) return one_limb && n.limbs()[0] == p;
  }

  // n - 1 = d * 2^r with d odd.
  const BigInt n_minus_1 = n - BigInt(1);
  std::size_t r = 0;
  BigInt d = n_minus_1;
  while (d.is_even()) {
    d >>= 1;
    ++r;
  }

  const BigInt two(2);
  for (int round = 0; round < rounds; ++round) {
    const BigInt a = random_range(src, two, n - two);
    BigInt x = mod_pow(a, d, n);
    if (x.is_one() || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 1; i < r; ++i) {
      x = x.squared() % n;
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

}  // namespace weakkeys::bn
