// Microbenchmarks for the bignum substrate, including the two ablations
// DESIGN.md calls out:
//   * Karatsuba vs schoolbook multiplication (threshold sweep),
//   * Burnikel–Ziegler vs Knuth Algorithm D division,
// plus Montgomery modexp and RSA keygen throughput.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"
#include "bn/detail.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"

namespace {

using namespace weakkeys;
using bn::BigInt;

BigInt random_bits_of(std::uint64_t seed, std::size_t bits) {
  rng::PrngRandomSource src(seed);
  BigInt v = bn::random_bits(src, bits);
  if (v.is_zero()) v = BigInt(1);
  return v;
}

void BM_MulSchoolbook(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const BigInt a = random_bits_of(1, limbs * 64);
  const BigInt b = random_bits_of(2, limbs * 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn::detail::mul_schoolbook(
        bn::BigIntOps::limbs(a), bn::BigIntOps::limbs(b)));
  }
}
BENCHMARK(BM_MulSchoolbook)->Arg(16)->Arg(64)->Arg(256);

void BM_MulKaratsuba(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const BigInt a = random_bits_of(1, limbs * 64);
  const BigInt b = random_bits_of(2, limbs * 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn::detail::mul_karatsuba(
        bn::BigIntOps::limbs(a), bn::BigIntOps::limbs(b)));
  }
}
BENCHMARK(BM_MulKaratsuba)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MulToom3(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const BigInt a = random_bits_of(1, limbs * 64);
  const BigInt b = random_bits_of(2, limbs * 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn::detail::mul_toom3(
        bn::BigIntOps::limbs(a), bn::BigIntOps::limbs(b)));
  }
}
BENCHMARK(BM_MulToom3)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_DivKnuth(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const BigInt a = random_bits_of(3, limbs * 2 * 64);
  const BigInt b = random_bits_of(4, limbs * 64);
  bn::detail::LimbVec q, r;
  for (auto _ : state) {
    bn::detail::divmod_knuth(bn::BigIntOps::limbs(a), bn::BigIntOps::limbs(b),
                             q, r);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_DivKnuth)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_DivBZ(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const BigInt a = random_bits_of(3, limbs * 2 * 64);
  const BigInt b = random_bits_of(4, limbs * 64);
  bn::detail::LimbVec q, r;
  for (auto _ : state) {
    bn::detail::divmod_bz(bn::BigIntOps::limbs(a), bn::BigIntOps::limbs(b),
                          q, r);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_DivBZ)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_ModPow(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const BigInt base = random_bits_of(5, bits);
  const BigInt exponent = random_bits_of(6, bits);
  BigInt modulus = random_bits_of(7, bits);
  if (modulus.is_even()) modulus += BigInt(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn::mod_pow(base, exponent, modulus));
  }
}
BENCHMARK(BM_ModPow)->Arg(256)->Arg(512)->Arg(1024);

void BM_Gcd(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const BigInt a = random_bits_of(8, bits);
  const BigInt b = random_bits_of(9, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn::gcd(a, b));
  }
}
BENCHMARK(BM_Gcd)->Arg(256)->Arg(1024);

void BM_RsaKeygen(benchmark::State& state) {
  rng::PrngRandomSource src(10);
  rsa::KeygenOptions opts;
  opts.modulus_bits = static_cast<std::size_t>(state.range(0));
  opts.miller_rabin_rounds = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa::generate_key(src, opts));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return weakkeys::bench::run_benchmarks_with_json("perf_bn", argc, argv);
}
