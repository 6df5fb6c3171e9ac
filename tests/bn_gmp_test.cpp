// Differential tests: BigInt against GMP as an oracle. GMP is linked by the
// tests only — the library itself is self-contained.
#include <gmp.h>
#include <gtest/gtest.h>

#include <string>

#include "bn/detail.hpp"
#include "scoped_tuning.hpp"
#include "util/prng.hpp"

namespace weakkeys::bn {
namespace {

class Mpz {
 public:
  Mpz() { mpz_init(v); }
  explicit Mpz(const std::string& hex) { mpz_init_set_str(v, hex.c_str(), 16); }
  ~Mpz() { mpz_clear(v); }
  Mpz(const Mpz&) = delete;
  Mpz& operator=(const Mpz&) = delete;

  [[nodiscard]] std::string hex() const {
    char* s = mpz_get_str(nullptr, 16, v);
    std::string out = s;
    free(s);  // NOLINT: GMP allocates with malloc
    return out;
  }

  mpz_t v;
};

class GmpDifferential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  GmpDifferential() : rng_(GetParam()) { gmp_randinit_default(state_); }
  ~GmpDifferential() override { gmp_randclear(state_); }

  /// A random value of up to max_bits, materialized on both sides.
  std::pair<BigInt, std::string> draw(std::size_t max_bits) {
    Mpz m;
    mpz_urandomb(m.v, state_, 1 + rng_.below(max_bits));
    const std::string hex = m.hex();
    return {BigInt::from_hex(hex), hex};
  }

  util::Xoshiro256 rng_;
  gmp_randstate_t state_;
};

TEST_P(GmpDifferential, MulDivModAgree) {
  for (int iter = 0; iter < 40; ++iter) {
    const auto [a, ah] = draw(6000);
    auto [b, bh] = draw(3000);
    if (b.is_zero()) b = BigInt(1);
    Mpz A(ah), B(b.to_hex()), R;

    mpz_mul(R.v, A.v, B.v);
    EXPECT_EQ((a * b).to_hex(), R.hex());

    Mpz Q, Rem;
    mpz_tdiv_qr(Q.v, Rem.v, A.v, B.v);
    const auto dm = BigInt::divmod(a, b);
    EXPECT_EQ(dm.quotient.to_hex(), Q.hex());
    EXPECT_EQ(dm.remainder.to_hex(), Rem.hex());
  }
}

TEST_P(GmpDifferential, AddSubAgree) {
  for (int iter = 0; iter < 60; ++iter) {
    const auto [a, ah] = draw(4000);
    const auto [b, bh] = draw(4000);
    Mpz A(ah), B(bh), R;
    mpz_add(R.v, A.v, B.v);
    EXPECT_EQ((a + b).to_hex(), R.hex());
    mpz_sub(R.v, A.v, B.v);
    std::string expected = R.hex();
    EXPECT_EQ((a - b).to_hex(), expected);
  }
}

TEST_P(GmpDifferential, GcdAgrees) {
  for (int iter = 0; iter < 40; ++iter) {
    const auto [a, ah] = draw(2000);
    const auto [b, bh] = draw(2000);
    Mpz A(ah), B(bh), R;
    mpz_gcd(R.v, A.v, B.v);
    EXPECT_EQ(gcd(a, b).to_hex(), R.hex());
  }
}

TEST_P(GmpDifferential, ModPowAgrees) {
  for (int iter = 0; iter < 15; ++iter) {
    const auto [a, ah] = draw(400);
    const auto [e, eh] = draw(200);
    auto [m, mh] = draw(300);
    if (m.is_zero()) m = BigInt(7);
    Mpz A(ah), E(eh), M(m.to_hex()), R;
    mpz_powm(R.v, A.v, E.v, M.v);
    EXPECT_EQ(mod_pow(a, e, m).to_hex(), R.hex());
  }
}

TEST_P(GmpDifferential, HugeOperandsAgree) {
  // Forces the Karatsuba and Burnikel–Ziegler division paths.
  const auto [a, ah] = draw(400000);
  auto [b, bh] = draw(150000);
  if (b.is_zero()) b = BigInt(1);
  Mpz A(ah), B(b.to_hex()), R;
  mpz_mul(R.v, A.v, B.v);
  EXPECT_EQ((a * b).to_hex(), R.hex());
  Mpz Q, Rem;
  mpz_tdiv_qr(Q.v, Rem.v, A.v, B.v);
  const auto dm = BigInt::divmod(a, b);
  EXPECT_EQ(dm.quotient.to_hex(), Q.hex());
  EXPECT_EQ(dm.remainder.to_hex(), Rem.hex());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GmpDifferential,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------- division crossovers ----

/// A value of exactly `limbs` limbs; `top` (when nonzero) replaces the top
/// limb and `low_ones` sets every limb below it to all ones.
BigInt limbs_value(util::Xoshiro256& rng, std::size_t limbs, Limb top = 0,
                   bool low_ones = false) {
  std::vector<Limb> v(limbs);
  for (Limb& limb : v) limb = low_ones ? ~Limb{0} : rng();
  v.back() = top != 0 ? top : (rng() | 1);
  return BigInt::from_limbs(std::move(v));
}

/// Checks the dispatcher and the Burnikel–Ziegler kernel itself (which the
/// dispatcher skips for short quotients) against mpz_tdiv_qr.
void expect_division_matches_gmp(const BigInt& a, const BigInt& b,
                                 const std::string& what) {
  Mpz A(a.to_hex()), B(b.to_hex()), Q, R;
  mpz_tdiv_qr(Q.v, R.v, A.v, B.v);
  const auto dm = BigInt::divmod(a, b);
  EXPECT_EQ(dm.quotient.to_hex(), Q.hex()) << what;
  EXPECT_EQ(dm.remainder.to_hex(), R.hex()) << what;
  detail::LimbVec q, r;
  detail::divmod_bz(BigIntOps::limbs(a), BigIntOps::limbs(b), q, r);
  EXPECT_EQ(BigInt::from_limbs(q).to_hex(), Q.hex()) << what << " (bz)";
  EXPECT_EQ(BigInt::from_limbs(r).to_hex(), R.hex()) << what << " (bz)";
}

class DivisionCrossover : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DivisionCrossover, MatchesGmpAtTinyThresholds) {
  const ScopedThreshold scoped(Tuning::bz_div_threshold(), GetParam());
  util::Xoshiro256 rng(GetParam());
  for (std::size_t n : {2u, 3u, 4u, 5u, 7u, 8u, 16u, 17u, 31u, 32u, 33u, 64u,
                        65u, 100u}) {
    // Top divisor limb: random, 1 (the largest normalization shift), and
    // all ones (none); the last flavour also fills the low limbs with ones,
    // which makes quotient estimates from the top limbs overshoot.
    for (int flavour = 0; flavour < 4; ++flavour) {
      const Limb top = flavour == 1 ? 1 : (flavour >= 2 ? ~Limb{0} : 0);
      const BigInt b = limbs_value(rng, n, top, flavour == 3);
      for (std::size_t times = 1; times <= 5; ++times) {
        const std::string what = "n=" + std::to_string(n) +
                                 " flavour=" + std::to_string(flavour) +
                                 " times=" + std::to_string(times);
        // Random dividends of times * n limbs, give or take one.
        expect_division_matches_gmp(
            limbs_value(rng, times * n - 1 + rng.below(3)), b,
            what + " random");
        // Exact multiples, and the values either side of one: q*b - 1 makes
        // every top-limb quotient estimate one too large, so the add-back
        // corrections run; q*b + b - 1 is the largest remainder.
        const BigInt q = limbs_value(rng, (times - 1) * n + 1);
        const BigInt multiple = q * b;
        expect_division_matches_gmp(multiple, b, what + " exact");
        expect_division_matches_gmp(multiple - BigInt(1), b, what + " q*b-1");
        expect_division_matches_gmp(multiple + b - BigInt(1), b,
                                    what + " q*b+b-1");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, DivisionCrossover,
                         ::testing::Values(2, 3, 8, 17));

// ------------------------------------------------------ square crossovers ----

void expect_square_matches_gmp(const BigInt& x, const std::string& what) {
  Mpz X(x.to_hex()), R;
  mpz_mul(R.v, X.v, X.v);
  EXPECT_EQ(x.squared().to_hex(), R.hex()) << what;
}

/// squared() at tiny Karatsuba thresholds: the Karatsuba square recursion
/// bottoms out in the schoolbook square, so every size runs both kernels.
class SquareCrossover : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SquareCrossover, MatchesGmpAtTinyThresholds) {
  const ScopedThreshold scoped(Tuning::karatsuba_threshold(), GetParam());
  util::Xoshiro256 rng(GetParam());
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 17u, 31u, 32u,
                        33u, 64u, 65u, 100u, 129u}) {
    const std::string size = "n=" + std::to_string(n);
    expect_square_matches_gmp(limbs_value(rng, n), size + " random");
    // All ones: every column sum and the doubling shift carry, and the
    // square is B^2n - 2B^n + 1.
    expect_square_matches_gmp(limbs_value(rng, n, ~Limb{0}, true),
                              size + " all ones");
    // Top limb all ones over random low limbs: the cross sum and the
    // diagonal both carry into the top limb of the result.
    expect_square_matches_gmp(limbs_value(rng, n, ~Limb{0}), size + " top");
    // Equal halves (a0 == a1: the difference square vanishes) and a zero
    // low half (a1 > a0 = 0), at the top-level split m = ceil(n/2).
    std::vector<Limb> halves(n);
    const std::size_t m = (n + 1) / 2;
    for (std::size_t i = 0; i < n - m; ++i) {
      halves[i] = halves[m + i] = rng() | 1;
    }
    expect_square_matches_gmp(BigInt::from_limbs(halves), size + " a0==a1");
    std::vector<Limb> high_only(n);
    high_only.back() = rng() | 1;
    expect_square_matches_gmp(BigInt::from_limbs(high_only),
                              size + " zero low limbs");
  }
}

TEST_P(SquareCrossover, ToomSquaresMatchGmp) {
  // Squares at and past a tiny Toom-3 crossover go through mul_toom3, whose
  // five point products recurse through mul() down to the Karatsuba sizes.
  const ScopedThreshold kara(Tuning::karatsuba_threshold(), GetParam());
  const ScopedThreshold toom(Tuning::toom3_threshold(), 4 * GetParam() + 8);
  util::Xoshiro256 rng(GetParam() + 1000);
  for (std::size_t n : {40u, 77u, 200u}) {
    const std::string size = "n=" + std::to_string(n);
    expect_square_matches_gmp(limbs_value(rng, n), size + " random");
    expect_square_matches_gmp(limbs_value(rng, n, ~Limb{0}, true),
                              size + " all ones");
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SquareCrossover,
                         ::testing::Values(2, 3, 4, 8, 17));

}  // namespace
}  // namespace weakkeys::bn
