// Division.
//
// Two algorithms behind one dispatcher, divmod():
//  * Knuth Algorithm D (TAOCP vol. 2, 4.3.1; the divmnu64 formulation) —
//    quadratic, excellent for modulus-sized operands and the base case of
//    the recursive algorithm below.
//  * Burnikel–Ziegler recursive division ("Fast Recursive Division",
//    MPI-I-98-1-022, 1998), in the in-place formulation GMP uses for its
//    divide-and-conquer division. A 2n/n step is two (n + n/2)/n steps; each
//    of those divides the top n limbs of its dividend by the top n/2 divisor
//    limbs recursively and then subtracts the quotient times the low divisor
//    half with one mul(). That costs about 2 M(n) per 2n/n division, which
//    keeps the remainder tree of the batch GCD computation quasilinear —
//    what makes the paper's 81M-key computation (and our corpus-scale one)
//    feasible at all.
//
// Every quotient estimate ends in the same exact add-back correction Knuth
// uses, so correctness never depends on the error analysis; the analysis
// only guarantees the correction loops run at most twice.
#include <algorithm>
#include <bit>
#include <stdexcept>

#include "bn/detail.hpp"
#include "obs/mem.hpp"
#include "obs/prof_stack.hpp"

namespace weakkeys::bn {

std::size_t& Tuning::bz_div_threshold() {
  // For 2n/n divisions BZ ties Knuth-D at 32-64 limbs and pulls away above
  // (1.2x at 128, 1.4x at 256, 2.2x at 1024, 5x at 8192 limbs); any value
  // from 16 to 64 is within noise. It is also the size of the Knuth base
  // case inside the recursion.
  static std::size_t threshold = 40;  // limbs; tuned by bench/perf_bn
  return threshold;
}

namespace detail {

namespace {

constexpr unsigned __int128 kBase = static_cast<unsigned __int128>(1) << 64;

void divmod_single_limb(const LimbVec& a, Limb d, LimbVec& q, LimbVec& r) {
  q.assign(a.size(), 0);
  unsigned __int128 rem = 0;
  for (std::size_t i = a.size(); i-- > 0;) {
    const unsigned __int128 cur = (rem << 64) | a[i];
    q[i] = static_cast<Limb>(cur / d);
    rem = cur % d;
  }
  trim(q);
  r.clear();
  if (rem != 0) r.push_back(static_cast<Limb>(rem));
}

/// x[0..n) -= a[0..an) * b[0..bn) (an + bn <= n); returns the borrow out.
Limb sub_mul(Limb* x, std::size_t n, const Limb* a, std::size_t an,
             const Limb* b, std::size_t bn) {
  LimbVec av(a, a + an), bv(b, b + bn);
  trim(av);
  trim(bv);
  const LimbVec p = mul(av, bv);
  return sub_into(x, n, p.data(), p.size());
}

// Both kernels below share one contract: divide the (n + k)-limb u by the
// normalized n-limb v (n >= 2, top bit set, k <= n for the recursive one).
// q[0..k) receives the low k quotient limbs and the return value the top one
// (0 or 1: the top n limbs of u are below beta^n <= 2v); u[0..n) is left
// holding the remainder and u[n..n+k) is clobbered.

/// Knuth Algorithm D on one block.
Limb div_schoolbook(Limb* q, Limb* u, const Limb* v, std::size_t n,
                    std::size_t k) {
  Limb qtop = 0;
  if (cmp(u + k, n, v, n) >= 0) {
    sub_into(u + k, n, v, n);
    qtop = 1;
  }
  for (std::size_t j = k; j-- > 0;) {
    // Estimate q[j] from the top two dividend limbs and top divisor limb.
    const unsigned __int128 num =
        (static_cast<unsigned __int128>(u[j + n]) << 64) | u[j + n - 1];
    unsigned __int128 qhat = num / v[n - 1];
    unsigned __int128 rhat = num % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply-subtract qhat * v from u[j .. j+n].
    Limb qh = static_cast<Limb>(qhat);
    Limb borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned __int128 p =
          static_cast<unsigned __int128>(qh) * v[i] + borrow;
      const Limb lo = static_cast<Limb>(p);
      borrow = static_cast<Limb>(p >> 64) + (u[i + j] < lo ? 1 : 0);
      u[i + j] -= lo;
    }
    const bool negative = u[j + n] < borrow;
    u[j + n] -= borrow;
    if (negative) {  // estimate was one too large: add divisor back
      --qh;
      u[j + n] += add_into(u + j, n, v, n);
    }
    q[j] = qh;
  }
  return qtop;
}

/// Burnikel–Ziegler on one block (k <= n), Knuth below `threshold`.
Limb div_bz(Limb* q, Limb* u, const Limb* v, std::size_t n, std::size_t k,
            std::size_t threshold) {
  if (k < threshold) return div_schoolbook(q, u, v, n, k);
  if (k == n) {
    // 2n/n as two (n + n/2)/n steps, high quotient half first. The second
    // step's dividend tops out at the first one's remainder (< v), so its
    // quotient fits its limbs and its top bit is always 0.
    const std::size_t lo = n / 2;
    const std::size_t hi = n - lo;
    const Limb qtop = div_bz(q + lo, u + lo, v, n, hi, threshold);
    div_bz(q, u, v, n, lo, threshold);
    return qtop;
  }
  // (n + k)/n with k < n: divide the top 2k limbs by the top k divisor
  // limbs, subtract the estimate times the low n - k divisor limbs, and add
  // the divisor back while the remainder is negative.
  const std::size_t low = n - k;
  Limb qtop = div_bz(q, u + low, v + low, k, k, threshold);
  Limb borrow = sub_mul(u, n, q, k, v, low);
  if (qtop != 0) borrow += sub_into(u + k, low, v, low);
  while (borrow != 0) {
    const Limb one = 1;
    qtop -= sub_into(q, k, &one, 1);
    borrow -= add_into(u, n, v, n);
  }
  return qtop;
}

/// Floor division with `divide_block` producing the quotient one block of
/// at most n limbs at a time, short block on top, after normalizing so the
/// divisor's top bit is set. Zero, single-limb and larger divisors than
/// dividends are handled here.
template <class DivideBlock>
void divide(const LimbVec& a, const LimbVec& b, LimbVec& q, LimbVec& r,
            DivideBlock divide_block) {
  if (b.empty()) throw std::domain_error("division by zero");
  if (cmp(a, b) < 0) {
    q.clear();
    r = a;
    trim(r);
    return;
  }
  if (b.size() == 1) {
    divmod_single_limb(a, b[0], q, r);
    return;
  }
  const unsigned s = static_cast<unsigned>(std::countl_zero(b.back()));
  const LimbVec v = shl(b, s);
  LimbVec u = shl(a, s);
  const std::size_t n = v.size();
  const std::size_t k = u.size() - n;  // the quotient has k + 1 limbs

  q.assign(k + 1, 0);
  std::size_t top = k % n;
  if (top == 0) top = std::min(k, n);
  std::size_t pos = k - top;
  q[k] = divide_block(q.data() + pos, u.data() + pos, v.data(), n, top);
  while (pos > 0) {
    pos -= n;
    divide_block(q.data() + pos, u.data() + pos, v.data(), n, n);
  }
  trim(q);
  u.resize(n);
  r = shr(u, s);
}

}  // namespace

void divmod_knuth(const LimbVec& a, const LimbVec& b, LimbVec& q, LimbVec& r) {
  divide(a, b, q, r, div_schoolbook);
}

void divmod_bz(const LimbVec& a, const LimbVec& b, LimbVec& q, LimbVec& r) {
  const std::size_t threshold =
      std::max<std::size_t>(Tuning::bz_div_threshold(), 2);
  divide(a, b, q, r,
         [threshold](Limb* qp, Limb* up, const Limb* vp, std::size_t n,
                     std::size_t k) {
           return div_bz(qp, up, vp, n, k, threshold);
         });
}

void divmod(const LimbVec& a, const LimbVec& b, LimbVec& q, LimbVec& r) {
  static const int limbs_label = obs::mem::register_label("bn.limbs");
  obs::MemScope mem_scope(limbs_label, /*only_if_unattributed=*/true);
  const std::size_t threshold = Tuning::bz_div_threshold();
  if (b.size() >= threshold && a.size() >= b.size() + threshold) {
    obs::prof::Frame frame("bn.div.bz");
    divmod_bz(a, b, q, r);
  } else {
    obs::prof::Frame frame("bn.div.knuth");
    divmod_knuth(a, b, q, r);
  }
}

}  // namespace detail
}  // namespace weakkeys::bn
