#include <gtest/gtest.h>

#include <set>

#include "bn/bigint.hpp"
#include "rng/prng_source.hpp"
#include "scoped_tuning.hpp"
#include "util/prng.hpp"

namespace weakkeys::bn {
namespace {

using rng::PrngRandomSource;

BigInt big(const std::string& dec) { return BigInt::from_decimal(dec); }

BigInt random_value(util::Xoshiro256& rng, std::size_t max_bits) {
  PrngRandomSource src(rng());
  return random_bits(src, 1 + rng.below(max_bits));
}

// ------------------------------------------------------------ basics ----

TEST(BigInt, DefaultIsZero) {
  const BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_decimal(), "0");
  EXPECT_EQ(z.to_hex(), "0");
}

TEST(BigInt, NativeConstruction) {
  EXPECT_EQ(BigInt(std::uint64_t{12345}).to_decimal(), "12345");
  EXPECT_EQ(BigInt(std::int64_t{-7}).to_decimal(), "-7");
  EXPECT_EQ(BigInt(std::int64_t{INT64_MIN}).to_decimal(),
            "-9223372036854775808");
  EXPECT_EQ(BigInt(~std::uint64_t{0}).to_decimal(), "18446744073709551615");
}

TEST(BigInt, ParityAndSign) {
  EXPECT_TRUE(BigInt(4).is_even());
  EXPECT_TRUE(BigInt(5).is_odd());
  EXPECT_TRUE(BigInt(0).is_even());
  EXPECT_TRUE(BigInt(-3).is_odd());
  EXPECT_TRUE(BigInt(-3).is_negative());
  EXPECT_EQ((-BigInt(3)).sign(), -1);
  EXPECT_EQ(BigInt(0), -BigInt(0));
}

TEST(BigInt, ToUint64Bounds) {
  EXPECT_EQ(BigInt(std::uint64_t{77}).to_uint64(), 77u);
  EXPECT_THROW((void)BigInt(-1).to_uint64(), std::overflow_error);
  EXPECT_THROW((void)(BigInt(1) << 64).to_uint64(), std::overflow_error);
}

TEST(BigInt, DecimalRoundTrip) {
  const std::string n =
      "123456789012345678901234567890123456789012345678901234567890";
  EXPECT_EQ(big(n).to_decimal(), n);
  EXPECT_EQ(big("-" + n).to_decimal(), "-" + n);
}

TEST(BigInt, HexRoundTrip) {
  const std::string h = "deadbeefcafef00d0123456789abcdef00000001";
  EXPECT_EQ(BigInt::from_hex(h).to_hex(), h);
  EXPECT_EQ(BigInt::from_hex("0000ff").to_hex(), "ff");
  EXPECT_EQ(BigInt::from_hex("-ff").to_decimal(), "-255");
}

TEST(BigInt, HexDecimalAgree) {
  EXPECT_EQ(BigInt::from_hex("ff"), big("255"));
  EXPECT_EQ(BigInt::from_hex("10000000000000000"), big("18446744073709551616"));
}

TEST(BigInt, ParseRejectsGarbage) {
  EXPECT_THROW(BigInt::from_decimal(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_decimal("12a"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex("xyz"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex("-"), std::invalid_argument);
}

TEST(BigInt, BytesRoundTrip) {
  const std::vector<std::uint8_t> bytes = {0x01, 0x02, 0xfe, 0x00, 0x7f};
  const BigInt v = BigInt::from_bytes(bytes);
  EXPECT_EQ(v.to_hex(), "102fe007f");
  EXPECT_EQ(v.to_bytes(), bytes);
  EXPECT_EQ(BigInt().to_bytes(), std::vector<std::uint8_t>{0});
}

TEST(BigInt, BitAccess) {
  const BigInt v = BigInt::from_hex("8000000000000001");  // bit 63 and bit 0
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(1));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(v.bit_length(), 64u);
}

// -------------------------------------------------------- arithmetic ----

TEST(BigInt, AdditionSigns) {
  EXPECT_EQ(BigInt(5) + BigInt(-3), BigInt(2));
  EXPECT_EQ(BigInt(-5) + BigInt(3), BigInt(-2));
  EXPECT_EQ(BigInt(-5) + BigInt(-3), BigInt(-8));
  EXPECT_EQ(BigInt(5) + BigInt(-5), BigInt(0));
}

TEST(BigInt, SubtractionSigns) {
  EXPECT_EQ(BigInt(3) - BigInt(5), BigInt(-2));
  EXPECT_EQ(BigInt(-3) - BigInt(-5), BigInt(2));
  EXPECT_EQ(BigInt(3) - BigInt(3), BigInt(0));
}

TEST(BigInt, CarryPropagation) {
  const BigInt max64(~std::uint64_t{0});
  EXPECT_EQ((max64 + BigInt(1)).to_hex(), "10000000000000000");
  EXPECT_EQ(((max64 + BigInt(1)) - BigInt(1)), max64);
}

TEST(BigInt, MultiplicationBasics) {
  EXPECT_EQ(BigInt(6) * BigInt(7), BigInt(42));
  EXPECT_EQ(BigInt(-6) * BigInt(7), BigInt(-42));
  EXPECT_EQ(BigInt(-6) * BigInt(-7), BigInt(42));
  EXPECT_EQ(BigInt(6) * BigInt(0), BigInt(0));
}

TEST(BigInt, KnownLargeProduct) {
  // (2^128 - 1)^2 = 2^256 - 2^129 + 1
  const BigInt x = (BigInt(1) << 128) - BigInt(1);
  EXPECT_EQ(x * x, (BigInt(1) << 256) - (BigInt(1) << 129) + BigInt(1));
  EXPECT_EQ(x.squared(), x * x);
}

TEST(BigInt, DivisionTruncatesTowardZero) {
  EXPECT_EQ(BigInt(7) / BigInt(2), BigInt(3));
  EXPECT_EQ(BigInt(-7) / BigInt(2), BigInt(-3));
  EXPECT_EQ(BigInt(7) / BigInt(-2), BigInt(-3));
  EXPECT_EQ(BigInt(-7) / BigInt(-2), BigInt(3));
  EXPECT_EQ(BigInt(7) % BigInt(2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(2), BigInt(-1));
  EXPECT_EQ(BigInt(7) % BigInt(-2), BigInt(1));
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(0), std::domain_error);
  EXPECT_THROW(BigInt(1) % BigInt(0), std::domain_error);
}

TEST(BigInt, ShiftRoundTrip) {
  const BigInt v = big("123456789123456789");
  for (std::size_t s : {1u, 7u, 63u, 64u, 65u, 200u}) {
    EXPECT_EQ((v << s) >> s, v) << s;
  }
  EXPECT_EQ(BigInt(1) << 0, BigInt(1));
  EXPECT_EQ(BigInt(255) >> 8, BigInt(0));
}

TEST(BigInt, Ordering) {
  EXPECT_LT(BigInt(-2), BigInt(1));
  EXPECT_LT(BigInt(-5), BigInt(-2));
  EXPECT_LT(BigInt(2), BigInt(5));
  EXPECT_LT(BigInt(5), BigInt(1) << 64);
  EXPECT_GT(BigInt(0), BigInt(-1));
}

// Property sweep: a = q*b + r with |r| < |b| and sign(r) == sign(a),
// across random operand shapes (exercises Knuth, Burnikel–Ziegler, and the
// single-limb paths).
class DivModProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DivModProperty, Invariant) {
  util::Xoshiro256 rng(GetParam());
  for (int iter = 0; iter < 60; ++iter) {
    BigInt a = random_value(rng, 4096);
    BigInt b = random_value(rng, 2048);
    if (b.is_zero()) b = BigInt(1);
    if (rng.chance(0.5)) a = -a;
    if (rng.chance(0.5)) b = -b;
    const auto [q, r] = BigInt::divmod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.abs(), b.abs());
    if (!r.is_zero()) {
      EXPECT_EQ(r.sign(), a.sign());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DivModProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Property sweep: ring axioms on random values.
class RingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingProperty, Axioms) {
  util::Xoshiro256 rng(GetParam());
  for (int iter = 0; iter < 40; ++iter) {
    const BigInt a = random_value(rng, 1500);
    const BigInt b = random_value(rng, 1500);
    const BigInt c = random_value(rng, 1500);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, BigInt(0));
    EXPECT_EQ((a - b) + b, a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingProperty, ::testing::Values(11, 22, 33, 44));

// ------------------------------------------------ gcd / modular / prime ----

TEST(Gcd, SmallKnownValues) {
  EXPECT_EQ(gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(gcd(BigInt(17), BigInt(5)), BigInt(1));
  EXPECT_EQ(gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(gcd(BigInt(5), BigInt(0)), BigInt(5));
  EXPECT_EQ(gcd(BigInt(0), BigInt(0)), BigInt(0));
  EXPECT_EQ(gcd(BigInt(-12), BigInt(18)), BigInt(6));
}

TEST(Gcd, RecoversPlantedCommonFactor) {
  const BigInt p = big("1000000000000000003");  // prime
  const BigInt a = p * big("999999999999999989");
  const BigInt b = p * big("999999999999999967");
  EXPECT_EQ(gcd(a, b), p);
}

TEST(Gcd, ExtendedGcdBezout) {
  util::Xoshiro256 rng(5);
  for (int iter = 0; iter < 50; ++iter) {
    const BigInt a = random_value(rng, 512);
    const BigInt b = random_value(rng, 512);
    const auto eg = extended_gcd(a, b);
    EXPECT_EQ(a * eg.x + b * eg.y, eg.g);
    EXPECT_EQ(eg.g, gcd(a, b));
  }
}

TEST(Modular, InverseProperty) {
  const BigInt m = big("1000000007");
  for (std::uint64_t a : {2ull, 3ull, 999999999ull, 123456789ull}) {
    const BigInt inv = mod_inverse(BigInt(a), m);
    EXPECT_EQ((BigInt(a) * inv) % m, BigInt(1));
  }
}

TEST(Modular, InverseFailsWhenNotCoprime) {
  EXPECT_THROW(mod_inverse(BigInt(6), BigInt(9)), std::domain_error);
  EXPECT_THROW(mod_inverse(BigInt(5), BigInt(1)), std::domain_error);
}

TEST(Modular, ModPowKnownValues) {
  EXPECT_EQ(mod_pow(BigInt(2), BigInt(10), BigInt(1000)), BigInt(24));
  EXPECT_EQ(mod_pow(BigInt(5), BigInt(0), BigInt(7)), BigInt(1));
  EXPECT_EQ(mod_pow(BigInt(0), BigInt(5), BigInt(7)), BigInt(0));
  // Fermat: a^(p-1) = 1 mod p.
  const BigInt p = big("1000000000000000003");
  EXPECT_EQ(mod_pow(BigInt(2), p - BigInt(1), p), BigInt(1));
}

TEST(Modular, ModPowEvenModulus) {
  // Exercises the non-Montgomery path.
  EXPECT_EQ(mod_pow(BigInt(3), BigInt(4), BigInt(100)), BigInt(81));
  EXPECT_EQ(mod_pow(BigInt(7), BigInt(13), BigInt(64)), BigInt(39));
}

TEST(Modular, ModPowMatchesNaive) {
  util::Xoshiro256 rng(9);
  for (int iter = 0; iter < 30; ++iter) {
    const BigInt a = random_value(rng, 96);
    const std::uint64_t e = rng.below(50);
    BigInt m = random_value(rng, 96) + BigInt(2);
    BigInt naive(1);
    for (std::uint64_t i = 0; i < e; ++i) naive = (naive * a) % m;
    EXPECT_EQ(mod_pow(a, BigInt(e), m), naive);
  }
}

TEST(Prime, SmallPrimesSieve) {
  const auto primes = small_primes(10);
  const std::vector<std::uint32_t> expected = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29};
  EXPECT_EQ(std::vector<std::uint32_t>(primes.begin(), primes.end()), expected);
  EXPECT_EQ(small_primes(2048).size(), 2048u);
  EXPECT_EQ(small_primes(2048).back(), 17863u);  // the 2048th prime
}

TEST(Prime, ModSmall) {
  const BigInt v = big("123456789123456789123456789");
  EXPECT_EQ(mod_small(v, 97), v % BigInt(97) == BigInt(0)
                                  ? 0u
                                  : (v % BigInt(97)).to_uint64());
  EXPECT_EQ(mod_small(BigInt(0), 7), 0u);
  EXPECT_THROW(mod_small(v, 0), std::domain_error);
}

TEST(Prime, MillerRabinKnownPrimes) {
  PrngRandomSource src(3);
  EXPECT_TRUE(is_probable_prime(BigInt(2), src));
  EXPECT_TRUE(is_probable_prime(BigInt(3), src));
  EXPECT_TRUE(is_probable_prime(BigInt(97), src));
  EXPECT_TRUE(is_probable_prime(big("170141183460469231731687303715884105727"),
                                src));  // 2^127 - 1
}

TEST(Prime, MillerRabinKnownComposites) {
  PrngRandomSource src(3);
  EXPECT_FALSE(is_probable_prime(BigInt(1), src));
  EXPECT_FALSE(is_probable_prime(BigInt(0), src));
  EXPECT_FALSE(is_probable_prime(BigInt(561), src));   // Carmichael
  EXPECT_FALSE(is_probable_prime(BigInt(8911), src));  // Carmichael
  EXPECT_FALSE(is_probable_prime(big("170141183460469231731687303715884105725"),
                                 src));
}

TEST(Prime, RandomBitsSizedCorrectly) {
  PrngRandomSource src(4);
  for (std::size_t bits : {1u, 7u, 8u, 9u, 64u, 65u, 256u}) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_LE(random_bits(src, bits).bit_length(), bits);
    }
  }
  EXPECT_TRUE(random_bits(src, 0).is_zero());
}

TEST(Prime, RandomRangeInclusive) {
  PrngRandomSource src(4);
  const BigInt low(10), high(20);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const BigInt v = random_range(src, low, high);
    ASSERT_GE(v, low);
    ASSERT_LE(v, high);
    seen.insert(v.to_uint64());
  }
  EXPECT_EQ(seen.size(), 11u);  // full coverage of [10, 20]
  EXPECT_THROW(random_range(src, high, low), std::invalid_argument);
}

// ---------------------------------------------------- tuning knobs ----

TEST(Tuning, KaratsubaMatchesSchoolbookAcrossThresholds) {
  util::Xoshiro256 rng(31);
  const BigInt a = random_value(rng, 8000);
  const BigInt b = random_value(rng, 8000);
  const BigInt reference = a * b;

  auto& threshold = Tuning::karatsuba_threshold();
  const std::size_t saved = threshold;
  for (std::size_t t : {8u, 16u, 40u, 1000000u}) {
    threshold = t;
    EXPECT_EQ(a * b, reference) << "threshold " << t;
  }
  threshold = saved;
}

TEST(Tuning, Toom3MatchesKaratsubaAcrossThresholds) {
  util::Xoshiro256 rng(33);
  const BigInt a = random_value(rng, 60000);
  const BigInt b = random_value(rng, 60000);

  auto& kara = Tuning::karatsuba_threshold();
  auto& toom = Tuning::toom3_threshold();
  const std::size_t saved_kara = kara, saved_toom = toom;

  toom = 1000000;  // Karatsuba-only reference
  const BigInt reference = a * b;
  for (std::size_t t : {16u, 48u, 200u}) {
    toom = t;
    EXPECT_EQ(a * b, reference) << "toom3 threshold " << t;
  }
  kara = saved_kara;
  toom = saved_toom;
}

TEST(Tuning, Toom3HandlesLopsidedOperands) {
  util::Xoshiro256 rng(34);
  const BigInt a = random_value(rng, 80000);
  const BigInt b = random_value(rng, 9000);
  auto& toom = Tuning::toom3_threshold();
  const std::size_t saved = toom;
  toom = 1000000;
  const BigInt reference = a * b;
  toom = 32;
  EXPECT_EQ(a * b, reference);
  EXPECT_EQ(b * a, reference);
  toom = saved;
}

TEST(Tuning, BurnikelZieglerMatchesKnuthAcrossThresholds) {
  util::Xoshiro256 rng(32);
  const BigInt a = random_value(rng, 16000);
  const BigInt b = random_value(rng, 7000) + BigInt(1);
  const auto reference = BigInt::divmod(a, b);

  for (std::size_t t : {2u, 8u, 32u, 1000000u}) {
    const ScopedThreshold scoped(Tuning::bz_div_threshold(), t);
    const auto got = BigInt::divmod(a, b);
    EXPECT_EQ(got.quotient, reference.quotient) << "threshold " << t;
    EXPECT_EQ(got.remainder, reference.remainder) << "threshold " << t;
  }
}

}  // namespace
}  // namespace weakkeys::bn
