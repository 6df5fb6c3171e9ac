#include "rsa/keygen.hpp"

#include <stdexcept>
#include <vector>

#include "obs/prof_stack.hpp"

namespace weakkeys::rsa {

namespace {

using bn::BigInt;

/// Number of odd candidates sieved per random base before redrawing.
constexpr std::size_t kWindow = 2048;

/// x / 2 mod odd q for x < q, without a division.
std::uint64_t half_mod(std::uint64_t x, std::uint64_t q) {
  return (x % 2 == 0 ? x : x + q) / 2;
}

/// Window sieve: marks composite offsets for candidates base + 2t,
/// t in [0, kWindow), and (in OpenSSL style) offsets where
/// (base + 2t) - 1 is divisible by a small prime.
std::vector<bool> sieve_window(const BigInt& base, PrimeStyle style,
                               std::size_t sieve_primes) {
  std::vector<bool> alive(kWindow, true);
  for (const std::uint32_t prime : bn::small_primes(sieve_primes)) {
    if (prime == 2) continue;  // candidates are odd by construction
    const std::uint64_t q = prime;
    const std::uint64_t r = bn::mod_small(base, q);
    // base + 2t ≡ 0 (mod q)  =>  t ≡ -r / 2 (mod q)
    const std::uint64_t t0 = half_mod(r == 0 ? 0 : q - r, q);
    for (std::uint64_t t = t0; t < kWindow; t += q) alive[t] = false;
    if (style == PrimeStyle::kOpenSsl) {
      // base + 2t ≡ 1 (mod q)  =>  t ≡ (1 - r) / 2 (mod q)
      const std::uint64_t t1 = half_mod(r <= 1 ? 1 - r : q + 1 - r, q);
      for (std::uint64_t t = t1; t < kWindow; t += q) alive[t] = false;
    }
  }
  return alive;
}

}  // namespace

BigInt generate_prime(bn::RandomSource& rng, std::size_t bits,
                      const KeygenOptions& opts) {
  obs::prof::Frame frame("rsa.generate_prime");
  if (bits < 32) throw std::invalid_argument("prime size below 32 bits");
  const std::uint64_t e = opts.public_exponent;

  for (;;) {
    // Random odd base with the top two bits set (guarantees full-size n).
    BigInt base = bn::random_bits(rng, bits);
    if (base.is_even()) base += BigInt(1);
    if (!base.bit(bits - 1)) base += BigInt(1) << (bits - 1);
    if (!base.bit(bits - 2)) base += BigInt(1) << (bits - 2);

    const std::vector<bool> alive =
        sieve_window(base, opts.style, opts.sieve_primes);
    for (std::size_t t = 0; t < kWindow; ++t) {
      if (!alive[t]) continue;
      const BigInt candidate = base + BigInt(std::uint64_t{2 * t});
      if (candidate.bit_length() != bits) break;  // window ran off the top
      // Require gcd(e, p-1) == 1; for prime e this is p % e != 1.
      if (e > 1 && bn::mod_small(candidate, e) == 1) continue;
      if (bn::is_probable_prime(candidate, rng, opts.miller_rabin_rounds)) {
        return candidate;
      }
    }
    // Window exhausted without a prime: redraw (mirrors OpenSSL's retry).
  }
}

RsaPrivateKey generate_key(bn::RandomSource& rng, const KeygenOptions& opts,
                           const KeygenEvents* events) {
  obs::prof::Frame frame("rsa.generate_key");
  if (opts.modulus_bits < 64)
    throw std::invalid_argument("modulus below 64 bits");
  if (opts.public_exponent % 2 == 0 || opts.public_exponent < 3)
    throw std::invalid_argument("public exponent must be odd and >= 3");

  const std::size_t prime_bits = opts.modulus_bits / 2;
  const BigInt e(opts.public_exponent);

  for (;;) {
    if (events && events->before_prime) events->before_prime(0);
    const BigInt p = generate_prime(rng, prime_bits, opts);
    if (events && events->before_prime) events->before_prime(1);
    BigInt q = generate_prime(rng, opts.modulus_bits - prime_bits, opts);
    if (p == q) continue;  // astronomically unlikely, but cheap to guard

    RsaPrivateKey key = assemble_private_key(p, q, e);
    if (key.pub.n.bit_length() != opts.modulus_bits) continue;
    return key;
  }
}

}  // namespace weakkeys::rsa
