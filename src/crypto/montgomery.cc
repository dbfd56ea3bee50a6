#include "crypto/montgomery.h"

namespace sharoes::crypto {

namespace {
__extension__ typedef unsigned __int128 Wide;
}  // namespace

Montgomery::Montgomery(const BigInt& m) {
  assert(m.IsOdd() && !m.IsOne());
  n_ = (m.BitLength() + 63) / 64;
  m_.resize(n_);
  Load(m_.data(), m);
  // m0^-1 mod 2^64 by Newton's iteration: m0 * m0 = 1 mod 8 gives three
  // correct bits, and each step doubles them (3 -> 96 after five).
  Limb inv = m_[0];
  for (int i = 0; i < 5; ++i) inv *= 2 - m_[0] * inv;
  m0inv_ = 0 - inv;
  one_.resize(n_);
  rr_.resize(n_);
  Load(one_.data(), BigInt::Mod(BigInt::ShiftLeft(BigInt(1), 64 * n_), m));
  Load(rr_.data(), BigInt::Mod(BigInt::ShiftLeft(BigInt(1), 128 * n_), m));
  t_.resize(2 * n_);
}

namespace {

// CIOS over N limbs (N = 0: n limbs, known only at run time), into the
// scratch t of 2n limbs that aliases none of out, a, b, m. A fixed N
// lets the compiler unroll and keep t in registers.
template <size_t N>
void MontMul(Limb* out, const Limb* a, const Limb* b, const Limb* m,
             Limb m0inv, size_t n_runtime, Limb* __restrict t) {
  const size_t n = N != 0 ? N : n_runtime;
  Limb hi = 0, top = 0;  // t[n] and t[n + 1].
  for (size_t j = 0; j < n; ++j) t[j] = 0;
  for (size_t i = 0; i < n; ++i) {
    // t += a[i] * b.
    const Limb ai = a[i];
    Limb carry = 0;
    for (size_t j = 0; j < n; ++j) {
      Wide s = static_cast<Wide>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    Wide s = static_cast<Wide>(hi) + carry;
    hi = static_cast<Limb>(s);
    top = static_cast<Limb>(s >> 64);
    // t = (t + u * m) / 2^64, with u chosen so the low limb cancels.
    const Limb u = t[0] * m0inv;
    s = static_cast<Wide>(u) * m[0] + t[0];
    carry = static_cast<Limb>(s >> 64);
    for (size_t j = 1; j < n; ++j) {
      s = static_cast<Wide>(u) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    s = static_cast<Wide>(hi) + carry;
    t[n - 1] = static_cast<Limb>(s);
    hi = top + static_cast<Limb>(s >> 64);
  }
  // t < 2m: keep t - m unless that borrows out of limb n.
  Limb* d = t + n;
  Limb borrow = 0;
  for (size_t j = 0; j < n; ++j) {
    Wide s = static_cast<Wide>(t[j]) - m[j] - borrow;
    d[j] = static_cast<Limb>(s);
    borrow = static_cast<Limb>(s >> 64) & 1;
  }
  Wide s = static_cast<Wide>(hi) - borrow;
  const Limb keep = 0 - (static_cast<Limb>(s >> 64) & 1);  // Ones iff t < m.
  for (size_t j = 0; j < n; ++j) out[j] = (t[j] & keep) | (d[j] & ~keep);
}

}  // namespace

void Montgomery::Mul(Limb* out, const Limb* a, const Limb* b) const {
  // The sizes RSA-512..4096 CRT and public operations use.
  switch (n_) {
    case 4: return MontMul<4>(out, a, b, m_.data(), m0inv_, n_, t_.data());
    case 8: return MontMul<8>(out, a, b, m_.data(), m0inv_, n_, t_.data());
    case 16: return MontMul<16>(out, a, b, m_.data(), m0inv_, n_, t_.data());
    case 32: return MontMul<32>(out, a, b, m_.data(), m0inv_, n_, t_.data());
    default: return MontMul<0>(out, a, b, m_.data(), m0inv_, n_, t_.data());
  }
}

void Montgomery::SubMod(Limb* out, const Limb* a, const Limb* b) const {
  Limb borrow = 0;
  for (size_t j = 0; j < n_; ++j) {
    Wide s = static_cast<Wide>(a[j]) - b[j] - borrow;
    out[j] = static_cast<Limb>(s);
    borrow = static_cast<Limb>(s >> 64) & 1;
  }
  const Limb mask = 0 - borrow;
  Limb carry = 0;
  for (size_t j = 0; j < n_; ++j) {
    Wide s = static_cast<Wide>(out[j]) + (m_[j] & mask) + carry;
    out[j] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
  }
}

void Montgomery::Select(Limb* out, const Limb* table, size_t entries,
                        size_t index) const {
  std::fill(out, out + n_, 0);
  for (size_t k = 0; k < entries; ++k) {
    // All ones iff k == index, without a comparison the compiler could
    // turn into a branch.
    Limb x = static_cast<Limb>(k ^ index);
    Limb mask = ((x | (0 - x)) >> 63) - 1;
    for (size_t j = 0; j < n_; ++j) out[j] |= table[k * n_ + j] & mask;
  }
}

void Montgomery::Load(Limb* out, const BigInt& x) const {
  const auto& xl = x.limbs();
  assert(xl.size() <= 2 * n_);
  std::fill(out, out + n_, 0);
  for (size_t i = 0; i < xl.size(); ++i) {
    out[i / 2] |= static_cast<Limb>(xl[i]) << (32 * (i % 2));
  }
}

BigInt Montgomery::Store(const Limb* x) const {
  std::vector<uint32_t> limbs(2 * n_);
  for (size_t i = 0; i < n_; ++i) {
    limbs[2 * i] = static_cast<uint32_t>(x[i]);
    limbs[2 * i + 1] = static_cast<uint32_t>(x[i] >> 32);
  }
  return BigInt::FromLimbs(std::move(limbs));
}

void Montgomery::ToMont(Limb* out, const BigInt& x) const {
  Load(out, x);
  Mul(out, out, rr());
}

BigInt Montgomery::FromMont(const Limb* x) const {
  std::vector<Limb> unit(n_, 0), plain(n_);
  unit[0] = 1;
  Mul(plain.data(), x, unit.data());
  return Store(plain.data());
}

}  // namespace sharoes::crypto
