// Modular exponentiation.
//
// Odd moduli (the common case: Miller-Rabin on prime candidates, RSA ops)
// use Montgomery multiplication (CIOS); even moduli fall back to
// multiply-then-divide. Exponentiation is left-to-right binary.
#include <algorithm>
#include <stdexcept>

#include "bn/detail.hpp"
#include "obs/prof_stack.hpp"

namespace weakkeys::bn {

namespace {

using detail::LimbVec;

/// -m0^{-1} mod 2^64 for odd m0 (Newton iteration doubles correct bits).
Limb mont_n0_prime(Limb m0) {
  Limb x = m0;  // correct to 3 bits
  for (int i = 0; i < 5; ++i) x *= 2 - m0 * x;
  return ~x + 1;  // == -x mod 2^64, with x = m0^{-1}
}

/// Montgomery arithmetic context for an odd modulus.
class MontgomeryCtx {
 public:
  explicit MontgomeryCtx(const BigInt& m)
      : m_(BigIntOps::limbs(m)), n_(m_.size()), n0_(mont_n0_prime(m_[0])) {
    // rr = beta^(2n) mod m, used to enter Montgomery form.
    LimbVec beta2n(2 * n_ + 1, 0);
    beta2n[2 * n_] = 1;
    LimbVec q;
    detail::divmod(beta2n, m_, q, rr_);
    rr_.resize(n_, 0);
  }

  /// CIOS Montgomery product: a*b*beta^{-n} mod m. Inputs/outputs are
  /// n-limb little-endian arrays (values < m); `out` may alias an input.
  /// The n+2-limb accumulator is the context's scratch, so once `out` holds
  /// n limbs a product allocates nothing.
  void mul(const LimbVec& a, const LimbVec& b, LimbVec& out) {
    out.resize(n_);
    // Fixed sizes let the compiler unroll the limb loops of the key and
    // prime sizes the simulation uses (128-256 bits).
    switch (n_) {
      case 2: return cios<2>(a.data(), b.data(), out.data());
      case 4: return cios<4>(a.data(), b.data(), out.data());
      default: return cios<0>(a.data(), b.data(), out.data());
    }
  }

  [[nodiscard]] LimbVec to_mont(const BigInt& x) {
    LimbVec xv(BigIntOps::limbs(x));
    xv.resize(n_, 0);
    LimbVec out;
    mul(xv, rr_, out);
    return out;
  }

  [[nodiscard]] BigInt from_mont(const LimbVec& x) {
    LimbVec one(n_, 0);
    one[0] = 1;
    LimbVec out;
    mul(x, one, out);
    detail::trim(out);
    return BigIntOps::make(std::move(out), 1);
  }

  [[nodiscard]] LimbVec one_mont() {
    // beta^n mod m == to_mont(1)
    return to_mont(BigInt(1));
  }

 private:
  /// The product with the limb count fixed at N (0: the runtime n_).
  template <std::size_t N>
  void cios(const Limb* a, const Limb* b, Limb* out) {
    const std::size_t n = N != 0 ? N : n_;
    const Limb* m = m_.data();
    Limb* t = t_.data();
    std::fill(t, t + n + 2, Limb{0});
    for (std::size_t i = 0; i < n; ++i) {
      // t += a[i] * b
      unsigned __int128 carry = 0;
      const Limb ai = a[i];
      for (std::size_t j = 0; j < n; ++j) {
        carry += static_cast<unsigned __int128>(ai) * b[j] + t[j];
        t[j] = static_cast<Limb>(carry);
        carry >>= 64;
      }
      carry += t[n];
      t[n] = static_cast<Limb>(carry);
      t[n + 1] = static_cast<Limb>(carry >> 64);

      // t += (t[0] * n0') * m, then t >>= 64
      const Limb mi = t[0] * n0_;
      carry = static_cast<unsigned __int128>(mi) * m[0] + t[0];
      carry >>= 64;
      for (std::size_t j = 1; j < n; ++j) {
        carry += static_cast<unsigned __int128>(mi) * m[j] + t[j];
        t[j - 1] = static_cast<Limb>(carry);
        carry >>= 64;
      }
      carry += t[n];
      t[n - 1] = static_cast<Limb>(carry);
      t[n] = t[n + 1] + static_cast<Limb>(carry >> 64);
      t[n + 1] = 0;
    }
    // Conditional final subtraction: t (n+1 limbs) may be in [0, 2m).
    if (t[n] != 0 || detail::cmp(t, n, m, n) >= 0) {
      detail::sub_into(t, n + 1, m, n);
    }
    std::copy(t, t + n, out);
  }

  LimbVec m_;
  std::size_t n_;
  Limb n0_;
  LimbVec rr_;
  LimbVec t_ = LimbVec(n_ + 2);  ///< mul()'s accumulator
};

BigInt mod_pow_generic(const BigInt& a, const BigInt& e, const BigInt& m) {
  BigInt base = a % m;
  if (base.is_negative()) base += m;
  BigInt result = 1 % m;
  const std::size_t bits = e.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    result = result.squared() % m;
    if (e.bit(i)) result = (result * base) % m;
  }
  return result;
}

}  // namespace

BigInt mod_pow(const BigInt& a, const BigInt& e, const BigInt& m) {
  obs::prof::Frame frame("bn.mod_pow");
  if (m.sign() <= 0) throw std::domain_error("modulus must be positive");
  if (e.is_negative()) throw std::domain_error("negative exponent");
  if (m.is_one()) return BigInt{};
  if (m.is_even()) return mod_pow_generic(a, e, m);

  BigInt base = a % m;
  if (base.is_negative()) base += m;

  MontgomeryCtx ctx(m);
  const LimbVec base_m = ctx.to_mont(base);
  LimbVec acc = ctx.one_mont();
  const std::size_t bits = e.bit_length();
  LimbVec tmp;
  for (std::size_t i = bits; i-- > 0;) {
    ctx.mul(acc, acc, tmp);
    acc.swap(tmp);
    if (e.bit(i)) {
      ctx.mul(acc, base_m, tmp);
      acc.swap(tmp);
    }
  }
  return ctx.from_mont(acc);
}

}  // namespace weakkeys::bn
