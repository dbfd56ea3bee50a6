// Fixed-width Montgomery arithmetic and constant-schedule exponentiation
// (internal to crypto/: bignum.cc, prime.cc and rsa.cc use it).
//
// Numbers are caller-owned buffers of exactly `limbs()` 64-bit limbs,
// little-endian, each holding a value below the modulus. Multiplication
// is CIOS (coarsely integrated operand scanning) over `unsigned __int128`
// with a masked final subtraction: its instruction sequence and memory
// accesses depend only on the limb count, never on the operand values,
// and it allocates nothing.
//
// FixedWindowExp is the exponentiation every secret exponent goes
// through (RSA CRT exponents, Miller-Rabin witnesses). It is a template
// over the multiplier so that a test can wrap `Montgomery` in a recorder
// and prove that the sequence of multiplies and table scans depends only
// on the modulus size and the declared exponent width.

#ifndef SHAROES_CRYPTO_MONTGOMERY_H_
#define SHAROES_CRYPTO_MONTGOMERY_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "crypto/bignum.h"

namespace sharoes::crypto {

using Limb = uint64_t;

/// Montgomery context for one odd modulus m > 1 of n 64-bit limbs,
/// R = 2^(64n). Not thread-safe (Mul uses a scratch buffer owned by the
/// context); build one per exponentiation.
class Montgomery {
 public:
  explicit Montgomery(const BigInt& m);

  size_t limbs() const { return n_; }
  /// R mod m: the Montgomery form of 1.
  const Limb* one() const { return one_.data(); }
  /// R^2 mod m: Mul(x, rr()) moves x into Montgomery form.
  const Limb* rr() const { return rr_.data(); }

  /// out = a * b * R^-1 mod m, for a, b < m. `out` may alias a or b.
  void Mul(Limb* out, const Limb* a, const Limb* b) const;
  /// out = (a - b) mod m, for a, b < m: a fixed-width subtraction with
  /// m added back under the borrow mask.
  void SubMod(Limb* out, const Limb* a, const Limb* b) const;
  /// out = table[index], reading every one of the `entries` entries and
  /// keeping the wanted one by mask, so the memory access pattern does
  /// not depend on `index`.
  void Select(Limb* out, const Limb* table, size_t entries,
              size_t index) const;

  /// Writes x (which must be < m) into n limbs, zero-padded.
  void Load(Limb* out, const BigInt& x) const;
  /// The plain integer held in n limbs.
  BigInt Store(const Limb* x) const;
  /// out = x * R mod m, for x < m.
  void ToMont(Limb* out, const BigInt& x) const;
  /// The plain integer x * R^-1 mod m.
  BigInt FromMont(const Limb* x) const;

 private:
  size_t n_;
  Limb m0inv_;  // -m^-1 mod 2^64.
  std::vector<Limb> m_, one_, rr_;
  mutable std::vector<Limb> t_;  // Mul scratch: 2n limbs.
};

/// Window width for a `exp_bits`-bit exponent: a function of the width
/// alone, chosen to minimise table build plus per-window multiplies.
inline size_t ExpWindowBits(size_t exp_bits) {
  if (exp_bits <= 8) return 1;
  if (exp_bits <= 64) return 3;
  if (exp_bits <= 512) return 4;
  return 5;
}

/// out = base^exp in the Montgomery domain (base and out in Montgomery
/// form, n limbs each; out may alias base), for exp < 2^exp_bits.
///
/// Fixed-window, left to right: a table of base^0..base^(2^w - 1), then
/// for each of ceil(exp_bits / w) windows w squarings, one full-table
/// masked Select and one multiply, including for all-zero windows. The
/// schedule is a function of (n, exp_bits) only.
template <typename Mont>
void FixedWindowExp(const Mont& mont, Limb* out, const Limb* base,
                    const BigInt& exp, size_t exp_bits) {
  assert(exp.BitLength() <= exp_bits);
  const size_t n = mont.limbs();
  const size_t w = ExpWindowBits(exp_bits);
  const size_t entries = size_t{1} << w;
  const size_t windows = std::max<size_t>(1, (exp_bits + w - 1) / w);

  std::vector<Limb> table(entries * n);
  std::copy(mont.one(), mont.one() + n, table.data());
  std::copy(base, base + n, table.data() + n);
  for (size_t k = 2; k < entries; ++k) {
    mont.Mul(table.data() + k * n, table.data() + (k - 1) * n, base);
  }

  // The exponent at a fixed width, one spare limb so a window may read
  // across the top limb boundary.
  std::vector<Limb> e((windows * w + 63) / 64 + 1, 0);
  const auto& el = exp.limbs();
  for (size_t i = 0; i < el.size(); ++i) {
    e[i / 2] |= static_cast<Limb>(el[i]) << (32 * (i % 2));
  }
  auto window = [&](size_t lo) -> size_t {
    size_t limb = lo / 64, shift = lo % 64;
    Limb v = e[limb] >> shift;
    if (shift + w > 64) v |= e[limb + 1] << (64 - shift);  // Public: lo.
    return static_cast<size_t>(v & (entries - 1));
  };

  std::vector<Limb> pick(n);
  mont.Select(out, table.data(), entries, window((windows - 1) * w));
  for (size_t i = windows - 1; i-- > 0;) {
    for (size_t s = 0; s < w; ++s) mont.Mul(out, out, out);
    mont.Select(pick.data(), table.data(), entries, window(i * w));
    mont.Mul(out, out, pick.data());
  }
}

}  // namespace sharoes::crypto

#endif  // SHAROES_CRYPTO_MONTGOMERY_H_
