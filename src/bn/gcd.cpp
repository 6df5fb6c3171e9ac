// GCD and extended GCD.
//
// Pairwise gcd is the last step of the batch GCD pipeline (recovering
// p = gcd(N_i, z_i / N_i)); operand sizes there are modulus-sized, so the
// O(bits^2 / 64) binary GCD is the right tool. Extended GCD (classic
// Euclid on quotients) backs modular inversion for RSA private exponents.
#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "bn/detail.hpp"

namespace weakkeys::bn {

namespace {

using detail::LimbVec;

/// Shifts v right past its trailing zero bits, in place, and trims it.
/// Returns the number of bits removed. v must be nonzero.
std::size_t strip_trailing_zeros(Limb* v, std::size_t& n) {
  std::size_t skip = 0;
  while (v[skip] == 0) ++skip;
  const unsigned bits = static_cast<unsigned>(std::countr_zero(v[skip]));
  const std::size_t m = n - skip;
  if (bits == 0) {
    if (skip != 0) std::copy(v + skip, v + n, v);
  } else {
    for (std::size_t i = 0; i < m; ++i) {
      const Limb next = i + 1 < m ? v[skip + i + 1] << (64 - bits) : 0;
      v[i] = (v[skip + i] >> bits) | next;
    }
  }
  n = m;
  while (v[n - 1] == 0) --n;
  return skip * 64 + bits;
}

}  // namespace

BigInt gcd(const BigInt& a_in, const BigInt& b_in) {
  if (a_in.is_zero()) return b_in.abs();
  if (b_in.is_zero()) return a_in.abs();

  // Binary GCD on two limb buffers, in place: subtract the smaller odd value
  // from the larger, strip the (nonzero) even result's trailing zeros, and
  // swap roles by pointer. No allocation after the two copies.
  LimbVec a(a_in.limbs().begin(), a_in.limbs().end());
  LimbVec b(b_in.limbs().begin(), b_in.limbs().end());
  Limb* x = a.data();
  Limb* y = b.data();
  std::size_t xn = a.size();
  std::size_t yn = b.size();
  const std::size_t shared =
      std::min(strip_trailing_zeros(x, xn), strip_trailing_zeros(y, yn));
  while (xn > 1 || yn > 1) {
    const int c = detail::cmp(x, xn, y, yn);
    if (c == 0) break;
    if (c < 0) {
      std::swap(x, y);
      std::swap(xn, yn);
    }
    detail::sub_into(x, xn, y, yn);
    strip_trailing_zeros(x, xn);
  }
  if (xn == 1 && yn == 1) {
    Limb u = x[0];
    Limb v = y[0];
    while (u != v) {
      if (u < v) std::swap(u, v);
      u -= v;
      u >>= std::countr_zero(u);
    }
    x[0] = u;
  }
  return BigInt::from_limbs(LimbVec(x, x + xn)) << shared;
}

ExtendedGcd extended_gcd(const BigInt& a, const BigInt& b) {
  // Invariant: r0 = a*x0 + b*y0, r1 = a*x1 + b*y1.
  BigInt r0 = a, r1 = b;
  BigInt x0 = 1, x1 = 0;
  BigInt y0 = 0, y1 = 1;
  while (!r1.is_zero()) {
    const auto [q, r] = BigInt::divmod(r0, r1);
    r0 = std::move(r1);
    r1 = r;
    BigInt x2 = x0 - q * x1;
    x0 = std::move(x1);
    x1 = std::move(x2);
    BigInt y2 = y0 - q * y1;
    y0 = std::move(y1);
    y1 = std::move(y2);
  }
  if (r0.is_negative()) {
    r0 = -r0;
    x0 = -x0;
    y0 = -y0;
  }
  return {std::move(r0), std::move(x0), std::move(y0)};
}

BigInt mod_inverse(const BigInt& a, const BigInt& m) {
  if (m <= BigInt(1)) throw std::domain_error("modulus must exceed 1");
  const ExtendedGcd eg = extended_gcd(a % m, m);
  if (!eg.g.is_one()) throw std::domain_error("value is not invertible");
  BigInt x = eg.x % m;
  if (x.is_negative()) x += m;
  return x;
}

}  // namespace weakkeys::bn
