// Differential and schedule tests for the fixed-width Montgomery
// exponentiation (crypto/montgomery.h) behind BigInt::ModExp:
//   - every ModExp path agrees with a plain square-and-multiply over
//     BigInt::ModMul (Knuth division, no Montgomery code at all) on random
//     operands and on the edge cases;
//   - RSA key generation returns byte-identical keys for fixed seeds,
//     pinned by public-key fingerprint;
//   - the secret-exponent schedule (multiplies, squarings and table scans,
//     in order) is the same for every exponent of a declared width, while
//     a right-to-left square-and-multiply, the previous ModExp, is not.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "crypto/bignum.h"
#include "crypto/montgomery.h"
#include "crypto/rsa.h"
#include "util/bytes.h"
#include "util/random.h"

namespace sharoes::crypto {
namespace {

// base^exp mod m by right-to-left square-and-multiply over ModMul.
BigInt ReferenceModExp(const BigInt& base, const BigInt& exp,
                       const BigInt& m) {
  BigInt result = BigInt::Mod(BigInt(1), m);
  BigInt acc = BigInt::Mod(base, m);
  for (size_t i = 0; i < exp.BitLength(); ++i) {
    if (exp.GetBit(i)) result = BigInt::ModMul(result, acc, m);
    acc = BigInt::ModMul(acc, acc, m);
  }
  return result;
}

BigInt RandomOdd(size_t bits, Rng& rng) {
  BigInt m = BigInt::RandomWithBits(bits, rng);
  m.SetBit(0);
  return m;
}

// Checks both ModExp overloads against the reference, the secret-exponent
// one at the exact width and with spare leading zero windows.
void ExpectAllPathsAgree(const BigInt& base, const BigInt& exp,
                         const BigInt& m, const std::string& what) {
  BigInt want = ReferenceModExp(base, exp, m);
  EXPECT_EQ(BigInt::ModExp(base, exp, m), want) << what;
  EXPECT_EQ(BigInt::ModExp(base, exp, m, exp.BitLength()), want) << what;
  EXPECT_EQ(BigInt::ModExp(base, exp, m, exp.BitLength() + 67), want)
      << what;
}

TEST(BignumDiff, RandomOperandsMatchReference) {
  Rng rng(2024);
  for (size_t bits : {64u, 65u, 127u, 128u, 191u, 256u, 320u, 512u, 768u,
                      1024u, 2048u}) {
    int iters = bits >= 1024 ? 2 : 6;
    for (int i = 0; i < iters; ++i) {
      BigInt m = RandomOdd(bits, rng);
      BigInt base = BigInt::RandomWithBits(1 + rng.NextBelow(bits + 64), rng);
      // Alternate short (public-path) and full-width exponents.
      size_t exp_bits = (i % 2 == 0) ? 1 + rng.NextBelow(64)
                                     : 1 + rng.NextBelow(bits);
      BigInt exp = BigInt::RandomWithBits(exp_bits, rng);
      ExpectAllPathsAgree(base, exp, m,
                          "bits=" + std::to_string(bits) +
                              " i=" + std::to_string(i));
    }
  }
}

TEST(BignumDiff, EdgeOperandsMatchReference) {
  Rng rng(7);
  for (size_t bits : {64u, 100u, 256u, 1024u}) {
    BigInt m = RandomOdd(bits, rng);
    BigInt m_minus_1 = BigInt::Sub(m, BigInt(1));
    const BigInt bases[] = {
        BigInt(),                                    // 0
        BigInt(1),                                   // 1
        m_minus_1,                                   // m - 1
        m,                                           // m itself
        BigInt::Add(m, BigInt(5)),                   // >= m
        BigInt::Add(BigInt::ShiftLeft(m, 70), BigInt(3)),  // far above m
        BigInt::RandomBelow(m, rng),
    };
    const BigInt exps[] = {
        BigInt(),                                    // 0
        BigInt(1),                                   // 1
        BigInt(2),
        BigInt(65537),
        BigInt::RandomWithBits(64, rng),             // widest public path
        BigInt::RandomWithBits(65, rng),             // narrowest windowed
        m_minus_1,
        BigInt::RandomWithBits(bits + 100, rng),     // longer than m
    };
    for (size_t b = 0; b < std::size(bases); ++b) {
      for (size_t e = 0; e < std::size(exps); ++e) {
        ExpectAllPathsAgree(bases[b], exps[e], m,
                            "bits=" + std::to_string(bits) +
                                " base#" + std::to_string(b) +
                                " exp#" + std::to_string(e));
      }
    }
  }
}

TEST(BignumDiff, SubModWrapsAtTheModulus) {
  Rng rng(3);
  for (size_t bits : {64u, 256u, 1000u}) {
    BigInt m = RandomOdd(bits, rng);
    Montgomery mont(m);
    std::vector<Limb> a(mont.limbs()), b(mont.limbs());
    BigInt x = BigInt::RandomBelow(m, rng), y = BigInt::RandomBelow(m, rng);
    for (auto [p, q] : {std::pair{x, y}, std::pair{y, x}, std::pair{x, x},
                        std::pair{BigInt(), BigInt::Sub(m, BigInt(1))}}) {
      mont.Load(a.data(), p);
      mont.Load(b.data(), q);
      mont.SubMod(a.data(), a.data(), b.data());
      BigInt want = p >= q ? BigInt::Sub(p, q)
                           : BigInt::Sub(BigInt::Add(p, m), q);
      EXPECT_EQ(mont.Store(a.data()), want) << bits;
    }
  }
}

// Fingerprints of GenerateRsaKeyPair(bits, Rng(seed)) recorded with the
// previous (32-bit limb, square-and-multiply) bignum: key generation must
// keep drawing the same candidates and witnesses, so the setup
// transcripts, wire sizes and experiment tables do not move.
TEST(BignumDiff, KeyGenerationIsByteIdenticalForFixedSeeds) {
  struct Pin {
    size_t bits;
    uint64_t seed;
    const char* fingerprint;
  };
  const Pin pins[] = {
      {512, 1,
       "4c94392ba4dd5ba55fb695c497272a681251a22caa14e2cbe0b162d330b72874"},
      {512, 2,
       "19aac5daaff0df3b878589dd8ec2b06ec7ef063f3dcf70c8408db6a948d54321"},
      {512, 3,
       "073d005b2c02136d36b4c9cda1acb25818e5d141d187eac3ac25c372dfae0418"},
      {1024, 4,
       "08a182c72b74807a481edc65eda7ee32df53e89bf3522bdac678c4932f6e3950"},
      {2048, 7,
       "5e9526a54059083d9fcff52b7fb44e826e0dcb12138fea0e067c4025dca38d8c"},
  };
  for (const Pin& pin : pins) {
    Rng rng(pin.seed);
    RsaKeyPair kp = GenerateRsaKeyPair(pin.bits, rng);
    EXPECT_EQ(HexEncode(kp.pub.Fingerprint()), pin.fingerprint)
        << pin.bits << "-bit key, seed " << pin.seed;
  }
}

// --- Constant schedule -----------------------------------------------------

// Wraps Montgomery and logs every operation the exponentiation asks of
// it: a squaring, a multiply of distinct operands, or a table scan of
// some number of entries. The index a scan selects is not logged: it is
// the secret the scan must not reveal.
class Recorder {
 public:
  enum Event : uint32_t { kSquare = 0, kMultiply = 1, kScan = 2 };

  Recorder(const Montgomery& mont, std::vector<uint32_t>* log)
      : mont_(mont), log_(log) {}

  size_t limbs() const { return mont_.limbs(); }
  const Limb* one() const { return mont_.one(); }
  void Mul(Limb* out, const Limb* a, const Limb* b) const {
    log_->push_back(a == b ? kSquare : kMultiply);
    mont_.Mul(out, a, b);
  }
  void Select(Limb* out, const Limb* table, size_t entries,
              size_t index) const {
    log_->push_back(kScan + static_cast<uint32_t>(entries));
    mont_.Select(out, table, entries, index);
  }

 private:
  const Montgomery& mont_;
  std::vector<uint32_t>* log_;
};

// The previous BigInt::ModExp over the same multiplier interface:
// right-to-left square-and-multiply, one multiply per set exponent bit.
template <typename Mont>
void SquareAndMultiply(const Mont& mont, Limb* out, const Limb* base,
                       const BigInt& exp, size_t /*exp_bits*/) {
  const size_t n = mont.limbs();
  std::vector<Limb> acc(base, base + n);
  std::copy(mont.one(), mont.one() + n, out);
  size_t bits = exp.BitLength();
  for (size_t i = 0; i < bits; ++i) {
    if (exp.GetBit(i)) mont.Mul(out, out, acc.data());
    if (i + 1 < bits) mont.Mul(acc.data(), acc.data(), acc.data());
  }
}

using ExpFn = void (*)(const Recorder&, Limb*, const Limb*, const BigInt&,
                       size_t);

// The exponents the schedule must not depend on, for one width.
std::vector<BigInt> ScheduleProbes(size_t exp_bits, Rng& rng) {
  std::vector<BigInt> probes;
  probes.push_back(BigInt());                                    // all zero
  probes.push_back(BigInt::Sub(BigInt::ShiftLeft(BigInt(1), exp_bits),
                               BigInt(1)));                      // all one
  for (size_t bit : {size_t{0}, size_t{1}, exp_bits / 2, exp_bits - 1}) {
    BigInt single;
    single.SetBit(bit);
    probes.push_back(single);                                    // one bit
  }
  for (int i = 0; i < 12; ++i) {
    probes.push_back(
        BigInt::RandomWithBits(1 + rng.NextBelow(exp_bits), rng));
  }
  return probes;
}

// Runs `fn` under the recorder for every probe exponent and a fresh
// random base each time; returns how many probes logged a schedule that
// differs from the first probe's. Also checks every result.
size_t ScheduleMismatches(ExpFn fn, size_t mod_bits, size_t exp_bits,
                          uint64_t seed) {
  Rng rng(seed);
  BigInt m = RandomOdd(mod_bits, rng);
  Montgomery mont(m);
  std::vector<uint32_t> first;
  size_t mismatches = 0;
  bool have_first = false;
  for (const BigInt& exp : ScheduleProbes(exp_bits, rng)) {
    BigInt base = BigInt::RandomBelow(m, rng);
    std::vector<Limb> x(mont.limbs());
    mont.ToMont(x.data(), base);
    std::vector<uint32_t> log;
    fn(Recorder(mont, &log), x.data(), x.data(), exp, exp_bits);
    EXPECT_EQ(mont.FromMont(x.data()), ReferenceModExp(base, exp, m));
    if (!have_first) {
      first = log;
      have_first = true;
    } else if (log != first) {
      ++mismatches;
    }
  }
  return mismatches;
}

// (modulus bits, exponent width): RSA-512 and RSA-2048 CRT halves, a
// width that is not a multiple of the window, and one on the 3-bit window.
const std::pair<size_t, size_t> kShapes[] = {
    {256, 256}, {1024, 1024}, {300, 255}, {128, 40}};

TEST(ConstantSchedule, FixedWindowScheduleIsIndependentOfTheExponent) {
  uint64_t seed = 1;
  for (auto [mod_bits, exp_bits] : kShapes) {
    EXPECT_EQ(ScheduleMismatches(&FixedWindowExp<Recorder>, mod_bits,
                                 exp_bits, seed++),
              0u)
        << mod_bits << "-bit modulus, " << exp_bits << "-bit exponents";
  }
}

TEST(ConstantSchedule, FixedWindowScheduleHasTheDocumentedShape) {
  // 256-bit exponents: w = 4, a 16-entry table built with 14 multiplies,
  // then 64 windows of (4 squarings, scan, multiply) after the first scan.
  Rng rng(5);
  BigInt m = RandomOdd(256, rng);
  Montgomery mont(m);
  std::vector<Limb> x(mont.limbs());
  mont.ToMont(x.data(), BigInt(3));
  std::vector<uint32_t> log;
  FixedWindowExp(Recorder(mont, &log), x.data(), x.data(), BigInt(1), 256);
  std::vector<uint32_t> want(14, Recorder::kMultiply);
  want.push_back(Recorder::kScan + 16);
  for (int i = 0; i < 63; ++i) {
    want.insert(want.end(), 4, Recorder::kSquare);
    want.push_back(Recorder::kScan + 16);
    want.push_back(Recorder::kMultiply);
  }
  EXPECT_EQ(log, want);
}

TEST(ConstantSchedule, NegativeControlSquareAndMultiplyLeaksTheExponent) {
  // The previous ModExp's schedule follows the exponent: its multiply
  // count is the popcount, so the same check must flag it on every shape.
  uint64_t seed = 1;
  for (auto [mod_bits, exp_bits] : kShapes) {
    EXPECT_GT(ScheduleMismatches(&SquareAndMultiply<Recorder>, mod_bits,
                                 exp_bits, seed++),
              0u)
        << mod_bits << "-bit modulus, " << exp_bits << "-bit exponents";
  }
  Rng rng(9);
  Montgomery mont(RandomOdd(256, rng));
  std::vector<Limb> x(mont.limbs());
  mont.ToMont(x.data(), BigInt(2));
  BigInt exp = BigInt::RandomWithBits(256, rng);
  size_t popcount = 0;
  for (size_t i = 0; i < exp.BitLength(); ++i) popcount += exp.GetBit(i);
  std::vector<uint32_t> log;
  SquareAndMultiply(Recorder(mont, &log), x.data(), x.data(), exp, 256);
  EXPECT_EQ(static_cast<size_t>(std::count(log.begin(), log.end(),
                                           Recorder::kMultiply)),
            popcount);
}

TEST(ConstantSchedule, SelectReturnsEveryEntry) {
  Rng rng(11);
  Montgomery mont(RandomOdd(200, rng));
  const size_t n = mont.limbs(), entries = 16;
  std::vector<Limb> table(entries * n);
  for (Limb& l : table) l = rng.NextU64();
  std::vector<Limb> out(n);
  for (size_t k = 0; k < entries; ++k) {
    mont.Select(out.data(), table.data(), entries, k);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), table.begin() + k * n))
        << k;
  }
}

}  // namespace
}  // namespace sharoes::crypto
