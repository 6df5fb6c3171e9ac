#include "bn/bigint.hpp"

#include <bit>
#include <ostream>
#include <stdexcept>

#include "bn/detail.hpp"

namespace weakkeys::bn {

namespace detail {

void trim(LimbVec& v) {
  while (!v.empty() && v.back() == 0) v.pop_back();
}

int cmp(const Limb* a, std::size_t an, const Limb* b, std::size_t bn) {
  if (an != bn) return an < bn ? -1 : 1;
  for (std::size_t i = an; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

int cmp(const LimbVec& a, const LimbVec& b) {
  return cmp(a.data(), a.size(), b.data(), b.size());
}

Limb add_into(Limb* x, std::size_t xn, const Limb* y, std::size_t yn) {
  unsigned __int128 carry = 0;
  std::size_t i = 0;
  for (; i < yn; ++i) {
    carry += static_cast<unsigned __int128>(x[i]) + y[i];
    x[i] = static_cast<Limb>(carry);
    carry >>= 64;
  }
  for (; carry != 0 && i < xn; ++i) carry = ++x[i] == 0 ? 1 : 0;
  return static_cast<Limb>(carry);
}

Limb sub_into(Limb* x, std::size_t xn, const Limb* y, std::size_t yn) {
  Limb borrow = 0;
  std::size_t i = 0;
  for (; i < yn; ++i) {
    const Limb xi = x[i];
    const Limb d = xi - y[i];
    x[i] = d - borrow;
    borrow = static_cast<Limb>(xi < y[i]) | static_cast<Limb>(d < borrow);
  }
  for (; borrow != 0 && i < xn; ++i) borrow = x[i]-- == 0 ? 1 : 0;
  return borrow;
}

LimbVec add(const LimbVec& a, const LimbVec& b) {
  const LimbVec& hi = a.size() >= b.size() ? a : b;
  const LimbVec& lo = a.size() >= b.size() ? b : a;
  LimbVec out;
  out.reserve(hi.size() + 1);
  out.assign(hi.begin(), hi.end());
  const Limb carry = add_into(out.data(), out.size(), lo.data(), lo.size());
  if (carry) out.push_back(carry);
  return out;
}

LimbVec sub(const LimbVec& a, const LimbVec& b) {
  LimbVec out = a;
  sub_into(out.data(), out.size(), b.data(), b.size());
  trim(out);
  return out;
}

LimbVec shl(const LimbVec& a, std::size_t bits) {
  if (a.empty()) return {};
  const std::size_t limb_shift = bits / 64;
  const unsigned bit_shift = bits % 64;
  LimbVec out(limb_shift, 0);
  out.reserve(a.size() + limb_shift + 1);
  if (bit_shift == 0) {
    out.insert(out.end(), a.begin(), a.end());
  } else {
    Limb carry = 0;
    for (Limb limb : a) {
      out.push_back((limb << bit_shift) | carry);
      carry = limb >> (64 - bit_shift);
    }
    if (carry) out.push_back(carry);
  }
  trim(out);
  return out;
}

LimbVec shr(const LimbVec& a, std::size_t bits) {
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= a.size()) return {};
  const unsigned bit_shift = bits % 64;
  LimbVec out;
  out.reserve(a.size() - limb_shift);
  if (bit_shift == 0) {
    out.assign(a.begin() + static_cast<std::ptrdiff_t>(limb_shift), a.end());
  } else {
    for (std::size_t i = limb_shift; i < a.size(); ++i) {
      Limb limb = a[i] >> bit_shift;
      if (i + 1 < a.size()) limb |= a[i + 1] << (64 - bit_shift);
      out.push_back(limb);
    }
  }
  trim(out);
  return out;
}

std::size_t bit_length(const LimbVec& v) {
  if (v.empty()) return 0;
  return v.size() * 64 - static_cast<std::size_t>(std::countl_zero(v.back()));
}

}  // namespace detail

using detail::LimbVec;

void BigInt::normalize() {
  detail::trim(limbs_);
  if (limbs_.empty()) sign_ = 0;
}

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) {
    sign_ = 1;
    limbs_.push_back(v);
  }
}

BigInt::BigInt(std::int64_t v) {
  if (v != 0) {
    sign_ = v > 0 ? 1 : -1;
    // Careful with INT64_MIN: negate in unsigned space.
    limbs_.push_back(v > 0 ? static_cast<Limb>(v)
                           : ~static_cast<Limb>(v) + 1);
  }
}

BigInt BigInt::from_limbs(std::vector<Limb> limbs, int sign) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.sign_ = sign >= 0 ? 1 : -1;
  out.normalize();
  return out;
}

std::size_t BigInt::bit_length() const { return detail::bit_length(limbs_); }

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::uint64_t BigInt::to_uint64() const {
  if (sign_ < 0) throw std::overflow_error("negative value in to_uint64");
  if (limbs_.size() > 1) throw std::overflow_error("value exceeds uint64_t");
  return limbs_.empty() ? 0 : limbs_[0];
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  out.sign_ = -out.sign_;
  return out;
}

BigInt BigInt::abs() const {
  BigInt out = *this;
  if (out.sign_ < 0) out.sign_ = 1;
  return out;
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  if (a.sign_ == 0) return b;
  if (b.sign_ == 0) return a;
  if (a.sign_ == b.sign_)
    return BigInt::from_limbs(detail::add(a.limbs_, b.limbs_), a.sign_);
  const int c = detail::cmp(a.limbs_, b.limbs_);
  if (c == 0) return BigInt{};
  if (c > 0) return BigInt::from_limbs(detail::sub(a.limbs_, b.limbs_), a.sign_);
  return BigInt::from_limbs(detail::sub(b.limbs_, a.limbs_), b.sign_);
}

BigInt operator-(const BigInt& a, const BigInt& b) { return a + (-b); }

BigInt operator*(const BigInt& a, const BigInt& b) {
  if (a.sign_ == 0 || b.sign_ == 0) return BigInt{};
  return BigInt::from_limbs(detail::mul(a.limbs_, b.limbs_), a.sign_ * b.sign_);
}

BigInt BigInt::squared() const {
  if (sign_ == 0) return BigInt{};
  return from_limbs(detail::sqr(limbs_), 1);
}

DivMod BigInt::divmod(const BigInt& a, const BigInt& b) {
  if (b.sign_ == 0) throw std::domain_error("division by zero");
  if (a.sign_ == 0) return {};
  if (detail::cmp(a.limbs_, b.limbs_) < 0) return {BigInt{}, a};
  LimbVec q, r;
  detail::divmod(a.limbs_, b.limbs_, q, r);
  DivMod out;
  out.quotient = from_limbs(std::move(q), a.sign_ * b.sign_);
  out.remainder = from_limbs(std::move(r), a.sign_);
  return out;
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  return BigInt::divmod(a, b).quotient;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
  return BigInt::divmod(a, b).remainder;
}

BigInt operator<<(const BigInt& a, std::size_t bits) {
  if (a.sign_ == 0) return a;
  return BigInt::from_limbs(detail::shl(a.limbs_, bits), a.sign_);
}

BigInt operator>>(const BigInt& a, std::size_t bits) {
  if (a.sign_ == 0) return a;
  return BigInt::from_limbs(detail::shr(a.limbs_, bits), a.sign_);
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.sign_ != b.sign_) return a.sign_ <=> b.sign_;
  const int c = detail::cmp(a.limbs_, b.limbs_);
  const int signed_c = a.sign_ >= 0 ? c : -c;
  return signed_c <=> 0;
}

BigInt BigInt::low_limbs(std::size_t count) const {
  if (count >= limbs_.size()) return abs();
  return from_limbs(LimbVec(limbs_.begin(),
                            limbs_.begin() + static_cast<std::ptrdiff_t>(count)),
                    1);
}

BigInt BigInt::high_limbs_from(std::size_t count) const {
  if (count >= limbs_.size()) return BigInt{};
  return from_limbs(LimbVec(limbs_.begin() + static_cast<std::ptrdiff_t>(count),
                            limbs_.end()),
                    1);
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.to_decimal();
}

}  // namespace weakkeys::bn
