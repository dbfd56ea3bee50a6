// Arbitrary-precision unsigned integers for the RSA implementation.
//
// Limbs are base-2^32, little-endian, normalized (no leading zero limb).
// The API covers exactly what RSA key generation and the RSA primitives
// need: comparison, +, -, *, divmod (Knuth algorithm D), shifts, bit
// access, modular exponentiation, gcd and modular inverse.
//
// Modular exponentiation with an odd modulus runs on fixed-width 64-bit
// limbs (crypto/montgomery.h): CIOS Montgomery multiplication with a
// masked final subtraction, then either fixed-window exponentiation whose
// schedule depends only on the modulus size and a declared exponent
// width (secret exponents), or plain square-and-multiply for exponents of
// at most 64 bits (public exponents such as e = 65537). Everything else
// here is variable-time.

#ifndef SHAROES_CRYPTO_BIGNUM_H_
#define SHAROES_CRYPTO_BIGNUM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/random.h"

namespace sharoes::crypto {

class Montgomery;

/// Non-negative arbitrary-precision integer.
class BigInt {
 public:
  BigInt() = default;
  /// From a machine word.
  explicit BigInt(uint64_t v);

  /// Parses a hexadecimal string (no 0x prefix). Malformed input yields
  /// zero; use FromHex for checked parsing.
  static BigInt FromHexUnchecked(std::string_view hex);
  static bool FromHex(std::string_view hex, BigInt* out);
  /// Big-endian byte import/export (the RSA wire format).
  static BigInt FromBytes(const Bytes& be);
  /// Exports exactly `len` big-endian bytes (zero-padded); `len` must be
  /// >= ByteLength().
  Bytes ToBytes(size_t len) const;
  /// Exports with minimal length (empty for zero).
  Bytes ToBytes() const;
  std::string ToHex() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool IsOne() const { return limbs_.size() == 1 && limbs_[0] == 1; }
  /// Number of significant bits (0 for zero).
  size_t BitLength() const;
  size_t ByteLength() const { return (BitLength() + 7) / 8; }
  /// Bit i (0 = least significant).
  bool GetBit(size_t i) const;
  void SetBit(size_t i);
  /// Low 64 bits.
  uint64_t ToU64() const;

  // Comparison: -1, 0, +1.
  int Compare(const BigInt& other) const;
  bool operator==(const BigInt& o) const { return Compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return Compare(o) != 0; }
  bool operator<(const BigInt& o) const { return Compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return Compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return Compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return Compare(o) >= 0; }

  static BigInt Add(const BigInt& a, const BigInt& b);
  /// Requires a >= b.
  static BigInt Sub(const BigInt& a, const BigInt& b);
  static BigInt Mul(const BigInt& a, const BigInt& b);
  /// q = a / b, r = a % b. b must be nonzero. Either out may be null.
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* q, BigInt* r);
  static BigInt Mod(const BigInt& a, const BigInt& m);
  static BigInt ShiftLeft(const BigInt& a, size_t bits);
  static BigInt ShiftRight(const BigInt& a, size_t bits);

  /// (a * b) mod m via full multiply + reduce.
  static BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m);
  /// base^exp mod m, m > 1. For odd m: an exponent of at most 64 bits
  /// takes left-to-right square-and-multiply in the Montgomery domain
  /// (branches on each exponent bit: for public exponents only); a
  /// longer one takes the fixed-window path of the overload below with
  /// exp_bits = exp.BitLength(). Even m: square-and-multiply over ModMul.
  static BigInt ModExp(const BigInt& base, const BigInt& exp, const BigInt& m);
  /// base^exp mod m for a secret exponent, m odd and > 1, exp < 2^exp_bits.
  /// Fixed-window exponentiation over Montgomery multiplication: the
  /// number and order of multiplies and the table scans depend only on
  /// m's limb count and exp_bits, not on exp or base (RSA CRT passes the
  /// bit length of p or q). Reducing `base` mod m first is variable-time.
  static BigInt ModExp(const BigInt& base, const BigInt& exp, const BigInt& m,
                       size_t exp_bits);
  static BigInt Gcd(const BigInt& a, const BigInt& b);
  /// Inverse of a mod m (gcd(a, m) must be 1). Returns false otherwise.
  static bool ModInverse(const BigInt& a, const BigInt& m, BigInt* out);

  /// Uniform random integer with exactly `bits` bits (top bit set).
  static BigInt RandomWithBits(size_t bits, Rng& rng);
  /// Uniform random integer in [0, bound).
  static BigInt RandomBelow(const BigInt& bound, Rng& rng);

  const std::vector<uint32_t>& limbs() const { return limbs_; }

 private:
  friend class Montgomery;  // Builds results straight from its limbs.

  void Normalize();
  static BigInt FromLimbs(std::vector<uint32_t> limbs);

  std::vector<uint32_t> limbs_;
};

}  // namespace sharoes::crypto

#endif  // SHAROES_CRYPTO_BIGNUM_H_
