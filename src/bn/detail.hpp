// Internal magnitude-level primitives shared by the BigInt algorithm files.
// Magnitudes are little-endian limb vectors with no trailing zero limbs.
// Not part of the public API.
#pragma once

#include <cstdint>
#include <vector>

#include "bn/bigint.hpp"

namespace weakkeys::bn {

/// Grants the algorithm translation units access to BigInt internals without
/// exposing them publicly.
struct BigIntOps {
  static std::vector<Limb>& limbs(BigInt& x) { return x.limbs_; }
  static const std::vector<Limb>& limbs(const BigInt& x) { return x.limbs_; }
  static int sign(const BigInt& x) { return x.sign_; }
  static BigInt make(std::vector<Limb> limbs, int sign) {
    return BigInt::from_limbs(std::move(limbs), sign);
  }
};

namespace detail {

using LimbVec = std::vector<Limb>;

/// Removes trailing zero limbs.
void trim(LimbVec& v);

/// Three-way magnitude comparison: -1, 0, +1.
int cmp(const LimbVec& a, const LimbVec& b);
int cmp(const Limb* a, std::size_t an, const Limb* b, std::size_t bn);

/// In place on exact-length limb arrays (yn <= xn, no trimming):
/// x += y, returning the carry out, and x -= y, returning the borrow out.
Limb add_into(Limb* x, std::size_t xn, const Limb* y, std::size_t yn);
Limb sub_into(Limb* x, std::size_t xn, const Limb* y, std::size_t yn);

/// a + b.
LimbVec add(const LimbVec& a, const LimbVec& b);

/// a - b; requires a >= b.
LimbVec sub(const LimbVec& a, const LimbVec& b);

/// a << bits / a >> bits.
LimbVec shl(const LimbVec& a, std::size_t bits);
LimbVec shr(const LimbVec& a, std::size_t bits);

/// a * b; dispatches schoolbook vs Karatsuba on operand size.
LimbVec mul(const LimbVec& a, const LimbVec& b);

/// Schoolbook product, exposed for threshold benchmarking.
LimbVec mul_schoolbook(const LimbVec& a, const LimbVec& b);

/// Karatsuba product (recursive, in place on one scratch buffer; falls back
/// to schoolbook below threshold).
LimbVec mul_karatsuba(const LimbVec& a, const LimbVec& b);

/// Toom-3 product (five-point evaluation/interpolation; recursive through
/// the mul() dispatcher, falling back to Karatsuba below threshold).
LimbVec mul_toom3(const LimbVec& a, const LimbVec& b);

/// a * a: a Karatsuba square (three half-size squares, in place on one
/// scratch buffer) over a schoolbook square that forms each cross product
/// once; Toom-3 sizes go through the general mul_toom3.
LimbVec sqr(const LimbVec& a);

/// Floor division of magnitudes: a = q*b + r, 0 <= r < b. b must be nonzero.
/// Dispatches Knuth Algorithm D vs Burnikel–Ziegler division on size.
void divmod(const LimbVec& a, const LimbVec& b, LimbVec& q, LimbVec& r);

/// Knuth Algorithm D (quadratic), exposed for threshold benchmarking.
void divmod_knuth(const LimbVec& a, const LimbVec& b, LimbVec& q, LimbVec& r);

/// Burnikel–Ziegler recursive division (about 2 M(n) per 2n/n step) with a
/// Knuth base case below Tuning::bz_div_threshold(), exposed for
/// benchmarking.
void divmod_bz(const LimbVec& a, const LimbVec& b, LimbVec& q, LimbVec& r);

/// Significant bits of the magnitude (0 for empty).
std::size_t bit_length(const LimbVec& v);

}  // namespace detail
}  // namespace weakkeys::bn
