#include "crypto/bignum.h"

#include <algorithm>
#include <cassert>

#include "crypto/montgomery.h"

namespace sharoes::crypto {

namespace {
constexpr uint64_t kBase = 1ULL << 32;

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::FromLimbs(std::vector<uint32_t> limbs) {
  BigInt x;
  x.limbs_ = std::move(limbs);
  x.Normalize();
  return x;
}

BigInt::BigInt(uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<uint32_t>(v >> 32));
}

bool BigInt::FromHex(std::string_view hex, BigInt* out) {
  BigInt x;
  for (char c : hex) {
    int v = HexValue(c);
    if (v < 0) return false;
    // x = x * 16 + v.
    uint64_t carry = static_cast<uint64_t>(v);
    for (auto& limb : x.limbs_) {
      uint64_t cur = (static_cast<uint64_t>(limb) << 4) | carry;
      limb = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    if (carry != 0) x.limbs_.push_back(static_cast<uint32_t>(carry));
  }
  x.Normalize();
  *out = std::move(x);
  return true;
}

BigInt BigInt::FromHexUnchecked(std::string_view hex) {
  BigInt x;
  FromHex(hex, &x);
  return x;
}

BigInt BigInt::FromBytes(const Bytes& be) {
  BigInt x;
  size_t n = be.size();
  x.limbs_.resize((n + 3) / 4, 0);
  for (size_t i = 0; i < n; ++i) {
    // be[i] is byte (n-1-i) from the little end.
    size_t pos = n - 1 - i;
    x.limbs_[pos / 4] |= static_cast<uint32_t>(be[i]) << (8 * (pos % 4));
  }
  x.Normalize();
  return x;
}

Bytes BigInt::ToBytes(size_t len) const {
  assert(len >= ByteLength());
  Bytes out(len, 0);
  size_t n = ByteLength();
  for (size_t i = 0; i < n; ++i) {
    uint32_t limb = limbs_[i / 4];
    out[len - 1 - i] = static_cast<uint8_t>(limb >> (8 * (i % 4)));
  }
  return out;
}

Bytes BigInt::ToBytes() const { return ToBytes(ByteLength()); }

std::string BigInt::ToHex() const {
  if (IsZero()) return "0";
  std::string out;
  static const char* digits = "0123456789abcdef";
  bool started = false;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      int d = (limbs_[i] >> shift) & 0xF;
      if (!started && d == 0) continue;
      started = true;
      out.push_back(digits[d]);
    }
  }
  return out;
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::GetBit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

void BigInt::SetBit(size_t i) {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) limbs_.resize(limb + 1, 0);
  limbs_[limb] |= 1U << (i % 32);
}

uint64_t BigInt::ToU64() const {
  uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<uint64_t>(limbs_[1]) << 32;
  return v;
}

int BigInt::Compare(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigInt BigInt::Add(const BigInt& a, const BigInt& b) {
  std::vector<uint32_t> out(std::max(a.limbs_.size(), b.limbs_.size()) + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  return FromLimbs(std::move(out));
}

BigInt BigInt::Sub(const BigInt& a, const BigInt& b) {
  assert(a.Compare(b) >= 0);
  std::vector<uint32_t> out(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) - borrow -
                   (i < b.limbs_.size() ? b.limbs_[i] : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out[i] = static_cast<uint32_t>(diff);
  }
  return FromLimbs(std::move(out));
}

BigInt BigInt::Mul(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  std::vector<uint32_t> out(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = static_cast<uint64_t>(out[i + j]) + carry +
                     ai * b.limbs_[j];
      out[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry != 0) {
      uint64_t cur = static_cast<uint64_t>(out[k]) + carry;
      out[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  return FromLimbs(std::move(out));
}

BigInt BigInt::ShiftLeft(const BigInt& a, size_t bits) {
  if (a.IsZero()) return BigInt();
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  std::vector<uint32_t> out(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(a.limbs_[i]) << bit_shift;
    out[i + limb_shift] |= static_cast<uint32_t>(v);
    out[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  return FromLimbs(std::move(out));
}

BigInt BigInt::ShiftRight(const BigInt& a, size_t bits) {
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= a.limbs_.size()) return BigInt();
  std::vector<uint32_t> out(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.size(); ++i) {
    uint64_t v = a.limbs_[i + limb_shift];
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      v |= static_cast<uint64_t>(a.limbs_[i + limb_shift + 1]) << 32;
    }
    out[i] = static_cast<uint32_t>(v >> bit_shift);
  }
  return FromLimbs(std::move(out));
}

// Knuth TAOCP Vol.2 Algorithm D, base 2^32.
void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* q, BigInt* r) {
  assert(!b.IsZero());
  if (a.Compare(b) < 0) {
    if (q != nullptr) *q = BigInt();
    if (r != nullptr) *r = a;
    return;
  }
  if (b.limbs_.size() == 1) {
    // Short division.
    uint64_t d = b.limbs_[0];
    std::vector<uint32_t> quot(a.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a.limbs_[i];
      quot[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    if (q != nullptr) *q = FromLimbs(std::move(quot));
    if (r != nullptr) *r = BigInt(rem);
    return;
  }

  // Normalize so the divisor's top limb has its high bit set.
  int shift = 0;
  uint32_t top = b.limbs_.back();
  while ((top & 0x80000000U) == 0) {
    top <<= 1;
    ++shift;
  }
  BigInt u = ShiftLeft(a, shift);
  BigInt v = ShiftLeft(b, shift);
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;

  std::vector<uint32_t> un(u.limbs_);
  un.resize(u.limbs_.size() + 1, 0);  // Extra high limb for step D1.
  const std::vector<uint32_t>& vn = v.limbs_;
  std::vector<uint32_t> quot(m + 1, 0);

  for (size_t j = m + 1; j-- > 0;) {
    // Estimate qhat = (un[j+n]*B + un[j+n-1]) / vn[n-1].
    uint64_t num = (static_cast<uint64_t>(un[j + n]) << 32) | un[j + n - 1];
    uint64_t qhat = num / vn[n - 1];
    uint64_t rhat = num % vn[n - 1];
    while (qhat >= kBase ||
           qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= kBase) break;
    }
    // Multiply-and-subtract.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = qhat * vn[i] + carry;
      carry = p >> 32;
      int64_t t = static_cast<int64_t>(un[i + j]) -
                  static_cast<int64_t>(p & 0xFFFFFFFFULL) - borrow;
      if (t < 0) {
        t += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      un[i + j] = static_cast<uint32_t>(t);
    }
    int64_t t = static_cast<int64_t>(un[j + n]) -
                static_cast<int64_t>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large: add back.
      t += static_cast<int64_t>(kBase);
      --qhat;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<uint32_t>(sum);
        c = sum >> 32;
      }
      t += static_cast<int64_t>(c);
      t &= 0xFFFFFFFFLL;  // Discard the carry out of the top (mod B).
    }
    un[j + n] = static_cast<uint32_t>(t);
    quot[j] = static_cast<uint32_t>(qhat);
  }

  if (q != nullptr) *q = FromLimbs(std::move(quot));
  if (r != nullptr) {
    un.resize(n);
    *r = ShiftRight(FromLimbs(std::move(un)), shift);
  }
}

BigInt BigInt::Mod(const BigInt& a, const BigInt& m) {
  BigInt r;
  DivMod(a, m, nullptr, &r);
  return r;
}

BigInt BigInt::ModMul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return Mod(Mul(a, b), m);
}

BigInt BigInt::ModExp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  assert(!m.IsZero() && !m.IsOne());
  if (exp.IsZero()) return BigInt(1);
  size_t bits = exp.BitLength();
  if (m.IsOdd() && bits > 64) return ModExp(base, exp, m, bits);

  BigInt b = Mod(base, m);
  if (m.IsOdd()) {
    Montgomery mont(m);
    std::vector<Limb> x(mont.limbs()), acc(mont.limbs());
    mont.ToMont(x.data(), b);
    std::copy(x.begin(), x.end(), acc.begin());
    for (size_t i = bits - 1; i-- > 0;) {
      mont.Mul(acc.data(), acc.data(), acc.data());
      if (exp.GetBit(i)) mont.Mul(acc.data(), acc.data(), x.data());
    }
    return mont.FromMont(acc.data());
  }

  // Even modulus: plain square-and-multiply (not on RSA hot paths).
  BigInt result(1);
  BigInt acc = b;
  for (size_t i = 0; i < bits; ++i) {
    if (exp.GetBit(i)) result = ModMul(result, acc, m);
    if (i + 1 < bits) acc = ModMul(acc, acc, m);
  }
  return result;
}

BigInt BigInt::ModExp(const BigInt& base, const BigInt& exp, const BigInt& m,
                      size_t exp_bits) {
  Montgomery mont(m);
  std::vector<Limb> x(mont.limbs());
  mont.ToMont(x.data(), Mod(base, m));
  FixedWindowExp(mont, x.data(), x.data(), exp, exp_bits);
  return mont.FromMont(x.data());
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a, y = b;
  while (!y.IsZero()) {
    BigInt r = Mod(x, y);
    x = y;
    y = r;
  }
  return x;
}

bool BigInt::ModInverse(const BigInt& a, const BigInt& m, BigInt* out) {
  // Extended Euclid with explicit sign tracking for the Bezout coefficient.
  BigInt r0 = m, r1 = Mod(a, m);
  BigInt t0, t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.IsZero()) {
    BigInt q, r2;
    DivMod(r0, r1, &q, &r2);
    // t2 = t0 - q * t1 with signs.
    BigInt qt1 = Mul(q, t1);
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // t0 and q*t1 have the same sign: result sign depends on magnitudes.
      if (t0.Compare(qt1) >= 0) {
        t2 = Sub(t0, qt1);
        t2_neg = t0_neg;
      } else {
        t2 = Sub(qt1, t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = Add(t0, qt1);
      t2_neg = t0_neg;
    }
    r0 = r1;
    r1 = r2;
    t0 = t1;
    t0_neg = t1_neg;
    t1 = t2;
    t1_neg = t2_neg;
  }
  if (!r0.IsOne()) return false;  // Not coprime.
  if (t0_neg) t0 = Sub(m, Mod(t0, m));
  *out = Mod(t0, m);
  return true;
}

BigInt BigInt::RandomWithBits(size_t bits, Rng& rng) {
  assert(bits > 0);
  size_t bytes = (bits + 7) / 8;
  Bytes b = rng.NextBytes(bytes);
  // Clear excess top bits, then force the top bit.
  size_t excess = bytes * 8 - bits;
  b[0] &= static_cast<uint8_t>(0xFF >> excess);
  b[0] |= static_cast<uint8_t>(0x80 >> excess);
  return FromBytes(b);
}

BigInt BigInt::RandomBelow(const BigInt& bound, Rng& rng) {
  assert(!bound.IsZero());
  size_t bits = bound.BitLength();
  size_t bytes = (bits + 7) / 8;
  for (;;) {
    Bytes b = rng.NextBytes(bytes);
    size_t excess = bytes * 8 - bits;
    b[0] &= static_cast<uint8_t>(0xFF >> excess);
    BigInt x = FromBytes(b);
    if (x.Compare(bound) < 0) return x;
  }
}

}  // namespace sharoes::crypto
