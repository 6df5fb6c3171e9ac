// Multiplication: schoolbook below the Karatsuba threshold, Karatsuba above,
// Toom-3 for the largest operands. Squaring has its own schoolbook and
// Karatsuba kernels on the same thresholds.
//
// The product tree over the full key corpus multiplies numbers of hundreds of
// thousands of limbs; a quadratic multiply would make the batch GCD
// computation infeasible (Section 3.2 of the paper), so the subquadratic path
// is load-bearing, not an optimization nicety. Schoolbook and Karatsuba work
// in place on limb pointers: a top-level call sizes one output and one
// scratch buffer up front, and the recursion allocates nothing.
#include <algorithm>
#include <utility>

#include "bn/detail.hpp"
#include "obs/mem.hpp"
#include "obs/prof_stack.hpp"

namespace weakkeys::bn {

std::size_t& Tuning::karatsuba_threshold() {
  static std::size_t threshold = 24;  // limbs; tuned by bench/perf_bn
  return threshold;
}

std::size_t& Tuning::toom3_threshold() {
  // Measured crossover vs Karatsuba on this implementation is ~16k limbs
  // (1.2x at 64k, 1.6x at 256k — the product-tree root scale). Below that
  // the extra evaluation/interpolation passes cost more than the saved
  // multiplication.
  static std::size_t threshold = 12000;  // limbs; tuned by bench/perf_bn
  return threshold;
}

namespace detail {

namespace {

/// out[0..an+bn) = a * b, schoolbook. out must not overlap the inputs.
void mul_basecase(Limb* out, const Limb* a, std::size_t an, const Limb* b,
                  std::size_t bn) {
  std::fill(out, out + an + bn, Limb{0});
  for (std::size_t i = 0; i < an; ++i) {
    unsigned __int128 carry = 0;
    const Limb ai = a[i];
    for (std::size_t j = 0; j < bn; ++j) {
      carry += static_cast<unsigned __int128>(ai) * b[j] + out[i + j];
      out[i + j] = static_cast<Limb>(carry);
      carry >>= 64;
    }
    out[i + bn] = static_cast<Limb>(carry);
  }
}

/// out[0..n) = x[0..xn) + y[0..yn) (yn <= xn, n = xn + 1); returns the
/// significant length (xn, or xn + 1 on a carry out).
std::size_t add_to(Limb* out, const Limb* x, std::size_t xn, const Limb* y,
                   std::size_t yn) {
  std::copy(x, x + xn, out);
  out[xn] = add_into(out, xn, y, yn);
  return out[xn] != 0 ? xn + 1 : xn;
}

/// Scratch limbs karatsuba() needs when the longer operand has n limbs.
std::size_t karatsuba_scratch(std::size_t n, std::size_t threshold) {
  if (n < threshold) return 0;
  const std::size_t m = (n + 1) / 2;
  return 4 * m + 4 + karatsuba_scratch(m + 1, threshold);
}

/// out[0..an+bn) = a * b with an >= bn; `scratch` holds
/// karatsuba_scratch(an) limbs. Splits at m = ceil(an/2):
/// a*b = z2*B^2m + (z1 - z2 - z0)*B^m + z0 with z1 = (a0+a1)(b0+b1).
/// `threshold` must be at least 4 so the m + 1 limb sums shrink.
void karatsuba(Limb* out, const Limb* a, std::size_t an, const Limb* b,
               std::size_t bn, Limb* scratch, std::size_t threshold) {
  if (bn < threshold) {
    mul_basecase(out, a, an, b, bn);
    return;
  }
  const std::size_t m = (an + 1) / 2;
  if (bn <= m) {
    // Lopsided: multiply b by bn-limb slices of a and accumulate.
    Limb* slice = scratch;  // 2 * bn limbs
    std::fill(out, out + an + bn, Limb{0});
    for (std::size_t pos = 0; pos < an; pos += bn) {
      const std::size_t len = std::min(bn, an - pos);
      if (len >= bn) {
        karatsuba(slice, a + pos, len, b, bn, scratch + 2 * bn, threshold);
      } else {
        karatsuba(slice, b, bn, a + pos, len, scratch + 2 * bn, threshold);
      }
      add_into(out + pos, an + bn - pos, slice, len + bn);
    }
    return;
  }
  const std::size_t a1n = an - m;
  const std::size_t b1n = bn - m;
  karatsuba(out, a, m, b, m, scratch, threshold);                     // z0
  karatsuba(out + 2 * m, a + m, a1n, b + m, b1n, scratch, threshold);  // z2

  Limb* sa = scratch;
  Limb* sb = sa + m + 1;
  Limb* z1 = sb + m + 1;
  const std::size_t san = add_to(sa, a, m, a + m, a1n);
  const std::size_t sbn = add_to(sb, b, m, b + m, b1n);
  if (san >= sbn) {
    karatsuba(z1, sa, san, sb, sbn, z1 + 2 * m + 2, threshold);
  } else {
    karatsuba(z1, sb, sbn, sa, san, z1 + 2 * m + 2, threshold);
  }
  const std::size_t z1n = san + sbn;
  sub_into(z1, z1n, out, 2 * m);                   // - z0
  sub_into(z1, z1n, out + 2 * m, an + bn - 2 * m);  // - z2
  // z1 - z0 - z2 = a0*b1 + a1*b0 fits below B^(an+bn-m); limbs past that
  // are zero.
  add_into(out + m, an + bn - m, z1, std::min(z1n, an + bn - m));
}

/// out[0..2n) = a^2, schoolbook: each cross product a_i*a_j (i < j) is
/// computed once, the sum doubled by a one-bit shift, and the diagonal
/// squares a_i^2 added last — about half the single-limb products of
/// mul_basecase(a, a). out must not overlap a.
void sqr_basecase(Limb* out, const Limb* a, std::size_t n) {
  std::fill(out, out + 2 * n, Limb{0});
  for (std::size_t i = 0; i + 1 < n; ++i) {
    unsigned __int128 carry = 0;
    const Limb ai = a[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      carry += static_cast<unsigned __int128>(ai) * a[j] + out[i + j];
      out[i + j] = static_cast<Limb>(carry);
      carry >>= 64;
    }
    out[i + n] = static_cast<Limb>(carry);
  }
  // One pass doubles the cross sum (below a^2 / 2, so the shift cannot
  // carry out) and adds the diagonal squares.
  Limb top = 0;
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    const unsigned __int128 sq =
        static_cast<unsigned __int128>(a[i / 2]) * a[i / 2];
    const Limb v = out[i];
    carry += static_cast<unsigned __int128>((v << 1) | top) +
             static_cast<Limb>(i % 2 == 0 ? sq : sq >> 64);
    top = v >> 63;
    out[i] = static_cast<Limb>(carry);
    carry >>= 64;
  }
}

/// Length of x[0..n) without its high zero limbs.
std::size_t significant(const Limb* x, std::size_t n) {
  while (n > 0 && x[n - 1] == 0) --n;
  return n;
}

/// Scratch limbs karatsuba_sqr() needs for an n-limb operand.
std::size_t karatsuba_sqr_scratch(std::size_t n, std::size_t threshold) {
  if (n < threshold) return 0;
  const std::size_t m = (n + 1) / 2;
  return 5 * m + 1 + karatsuba_sqr_scratch(m, threshold);
}

/// out[0..2n) = a^2; `scratch` holds karatsuba_sqr_scratch(n) limbs. Splits
/// at m = ceil(n/2) and takes the middle term from a difference square,
/// 2*a0*a1 = a0^2 + a1^2 - (a0 - a1)^2, so all three half-size products are
/// squares and |a0 - a1| needs no carry limb.
void karatsuba_sqr(Limb* out, const Limb* a, std::size_t n, Limb* scratch,
                   std::size_t threshold) {
  if (n < threshold) {
    sqr_basecase(out, a, n);
    return;
  }
  const std::size_t m = (n + 1) / 2;
  const std::size_t a1n = n - m;
  karatsuba_sqr(out, a, m, scratch, threshold);                // a0^2
  karatsuba_sqr(out + 2 * m, a + m, a1n, scratch, threshold);  // a1^2

  Limb* t = scratch;           // a0^2 + a1^2, 2m + 1 limbs
  Limb* d = t + 2 * m + 1;     // |a0 - a1|, m limbs
  Limb* dd = d + m;            // d^2, 2m limbs
  const std::size_t tn = add_to(t, out, 2 * m, out + 2 * m, 2 * a1n);
  const Limb* hi = a;
  const Limb* lo = a + m;
  std::size_t hin = significant(hi, m);
  std::size_t lon = significant(lo, a1n);
  if (cmp(hi, hin, lo, lon) < 0) {
    std::swap(hi, lo);
    std::swap(hin, lon);
  }
  std::copy(hi, hi + hin, d);
  sub_into(d, hin, lo, lon);
  const std::size_t dn = significant(d, hin);
  if (dn > 0) {
    karatsuba_sqr(dd, d, dn, dd + 2 * m, threshold);
    sub_into(t, tn, dd, 2 * dn);
  }
  // t = 2*a0*a1 < 2 B^n fits below B^(2n-m); limbs past that are zero.
  add_into(out + m, 2 * n - m, t, std::min(tn, 2 * n - m));
}

}  // namespace

LimbVec mul_schoolbook(const LimbVec& a, const LimbVec& b) {
  if (a.empty() || b.empty()) return {};
  LimbVec out(a.size() + b.size());
  mul_basecase(out.data(), a.data(), a.size(), b.data(), b.size());
  trim(out);
  return out;
}

LimbVec mul_karatsuba(const LimbVec& a, const LimbVec& b) {
  if (a.empty() || b.empty()) return {};
  const LimbVec& x = a.size() >= b.size() ? a : b;
  const LimbVec& y = a.size() >= b.size() ? b : a;
  const std::size_t threshold =
      std::max<std::size_t>(Tuning::karatsuba_threshold(), 4);
  LimbVec out(x.size() + y.size());
  LimbVec scratch(karatsuba_scratch(x.size(), threshold));
  karatsuba(out.data(), x.data(), x.size(), y.data(), y.size(),
            scratch.data(), threshold);
  trim(out);
  return out;
}

// Toom-3: split x = x2*B^2m + x1*B^m + x0 and evaluate the product
// polynomial c(t) = c0 + c1 t + ... + c4 t^4 at t in {0, 1, -1, 2, inf}.
// Implemented over signed BigInts (v(-1) can be negative); the exact
// divisions in the interpolation all act on provably nonnegative values.
LimbVec mul_toom3(const LimbVec& a, const LimbVec& b) {
  if (std::min(a.size(), b.size()) < Tuning::toom3_threshold())
    return mul_karatsuba(a, b);

  using Ops = BigIntOps;
  const std::size_t m = (std::max(a.size(), b.size()) + 2) / 3;
  auto piece = [m](const LimbVec& v, std::size_t index) {
    const std::size_t begin = std::min(index * m, v.size());
    const std::size_t end = std::min(begin + m, v.size());
    LimbVec out(v.begin() + static_cast<std::ptrdiff_t>(begin),
                v.begin() + static_cast<std::ptrdiff_t>(end));
    trim(out);
    return Ops::make(std::move(out), 1);
  };
  const BigInt a0 = piece(a, 0), a1 = piece(a, 1), a2 = piece(a, 2);
  const BigInt b0 = piece(b, 0), b1 = piece(b, 1), b2 = piece(b, 2);

  // Five point evaluations (each multiplication recurses through mul()).
  const BigInt v0 = a0 * b0;
  const BigInt a02 = a0 + a2, b02 = b0 + b2;
  const BigInt v1 = (a02 + a1) * (b02 + b1);
  const BigInt vm1 = (a02 - a1) * (b02 - b1);
  const BigInt v2 =
      (a0 + (a1 << 1) + (a2 << 2)) * (b0 + (b1 << 1) + (b2 << 2));
  const BigInt vinf = a2 * b2;

  // Interpolation. All shifts divide nonnegative even values exactly.
  const BigInt c0 = v0;
  const BigInt c4 = vinf;
  const BigInt c2 = ((v1 + vm1) >> 1) - c0 - c4;           // (v1+vm1)/2 - c0 - c4
  const BigInt s = (v1 - vm1) >> 1;                        // c1 + c3
  const BigInt t = (v2 - vm1) / BigInt(3);                 // c1 + c2 + 3c3 + 5c4
  const BigInt u = t - c2 - (c4 * BigInt(5));              // c1 + 3c3
  const BigInt c3 = (u - s) >> 1;
  const BigInt c1 = s - c3;

  const BigInt result = c0 + (c1 << (64 * m)) + (c2 << (128 * m)) +
                        (c3 << (192 * m)) + (c4 << (256 * m));
  return Ops::limbs(result);
}

LimbVec mul(const LimbVec& a, const LimbVec& b) {
  // Attribute limb storage to "bn.limbs" only when no higher-level scope
  // (a product-tree level, the remainder tree) already claims it, and tag
  // the chosen kernel so the sampling profiler can split Toom-3 vs
  // Karatsuba vs schoolbook time. Both cost one relaxed load when the
  // corresponding plane is off.
  static const int limbs_label = obs::mem::register_label("bn.limbs");
  obs::MemScope mem_scope(limbs_label, /*only_if_unattributed=*/true);
  const std::size_t smaller = std::min(a.size(), b.size());
  if (smaller >= Tuning::toom3_threshold()) {
    obs::prof::Frame frame("bn.mul.toom3");
    return mul_toom3(a, b);
  }
  if (smaller >= Tuning::karatsuba_threshold()) {
    obs::prof::Frame frame("bn.mul.karatsuba");
    return mul_karatsuba(a, b);
  }
  obs::prof::Frame frame("bn.mul.schoolbook");
  return mul_schoolbook(a, b);
}

LimbVec sqr(const LimbVec& a) {
  static const int limbs_label = obs::mem::register_label("bn.limbs");
  obs::MemScope mem_scope(limbs_label, /*only_if_unattributed=*/true);
  if (a.size() >= Tuning::toom3_threshold()) {
    obs::prof::Frame frame("bn.mul.toom3");
    return mul_toom3(a, a);
  }
  obs::prof::Frame frame(a.size() >= Tuning::karatsuba_threshold()
                             ? "bn.sqr.karatsuba"
                             : "bn.sqr.schoolbook");
  const std::size_t threshold =
      std::max<std::size_t>(Tuning::karatsuba_threshold(), 4);
  LimbVec out(2 * a.size());
  LimbVec scratch(karatsuba_sqr_scratch(a.size(), threshold));
  karatsuba_sqr(out.data(), a.data(), a.size(), scratch.data(), threshold);
  trim(out);
  return out;
}

}  // namespace detail
}  // namespace weakkeys::bn
