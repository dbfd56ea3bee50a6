#include "crypto/prime.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "crypto/montgomery.h"

namespace sharoes::crypto {

namespace {

// Small primes for trial-division pre-filtering of candidates.
const std::vector<uint32_t>& SmallPrimes() {
  static const std::vector<uint32_t>* primes = [] {
    auto* v = new std::vector<uint32_t>();
    constexpr uint32_t kLimit = 2000;
    std::vector<bool> sieve(kLimit, true);
    for (uint32_t i = 2; i < kLimit; ++i) {
      if (!sieve[i]) continue;
      v->push_back(i);
      for (uint32_t j = 2 * i; j < kLimit; j += i) sieve[j] = false;
    }
    return v;
  }();
  return *primes;
}

// n mod d for small d without allocating.
uint32_t ModSmall(const BigInt& n, uint32_t d) {
  uint64_t rem = 0;
  const auto& limbs = n.limbs();
  for (size_t i = limbs.size(); i-- > 0;) {
    rem = ((rem << 32) | limbs[i]) % d;
  }
  return static_cast<uint32_t>(rem);
}

// Miller-Rabin on an odd n above every small prime, in the Montgomery
// domain of one context built once per candidate: each round's
// exponentiation and squaring chain compare Montgomery forms against
// those of 1 and n - 1 and never leave the domain.
bool MillerRabin(const BigInt& n, Rng& rng, int rounds) {
  // Write n-1 = d * 2^r with d odd.
  BigInt n_minus_1 = BigInt::Sub(n, BigInt(1));
  BigInt d = n_minus_1;
  size_t r = 0;
  while (!d.IsOdd()) {
    d = BigInt::ShiftRight(d, 1);
    ++r;
  }
  BigInt n_minus_3 = BigInt::Sub(n, BigInt(3));
  Montgomery mont(n);
  const size_t limbs = mont.limbs();
  std::vector<Limb> minus_one(limbs), x(limbs);
  mont.ToMont(minus_one.data(), n_minus_1);
  auto is = [&](const Limb* v) {
    return std::equal(x.begin(), x.end(), v);
  };
  for (int round = 0; round < rounds; ++round) {
    // a uniform in [2, n-2].
    BigInt a = BigInt::Add(BigInt::RandomBelow(n_minus_3, rng), BigInt(2));
    mont.ToMont(x.data(), a);
    FixedWindowExp(mont, x.data(), x.data(), d, d.BitLength());
    if (is(mont.one()) || is(minus_one.data())) continue;
    bool witness = true;
    for (size_t i = 1; i < r; ++i) {
      mont.Mul(x.data(), x.data(), x.data());
      if (is(minus_one.data())) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

}  // namespace

bool IsProbablePrime(const BigInt& n, Rng& rng, int rounds) {
  if (n.Compare(BigInt(2)) < 0) return false;
  for (uint32_t p : SmallPrimes()) {
    if (n.Compare(BigInt(p)) == 0) return true;
    if (ModSmall(n, p) == 0) return false;
  }
  return MillerRabin(n, rng, rounds);
}

BigInt GeneratePrime(size_t bits, Rng& rng) {
  assert(bits >= 16);  // Every candidate is then above every small prime.
  const std::vector<uint32_t>& primes = SmallPrimes();
  std::vector<uint32_t> residues(primes.size());
  for (;;) {
    BigInt start = BigInt::RandomWithBits(bits, rng);
    if (!start.IsOdd()) start = BigInt::Add(start, BigInt(1));
    // Scan forward in steps of 2 from the random start; bounded so the
    // distribution stays near-uniform. `residues` holds the candidate mod
    // each small prime, stepped by 2 instead of recomputed.
    for (size_t i = 0; i < primes.size(); ++i) {
      residues[i] = ModSmall(start, primes[i]);
    }
    for (uint32_t step = 0; step < 256; ++step) {
      if (std::find(residues.begin(), residues.end(), 0u) == residues.end()) {
        BigInt candidate = BigInt::Add(start, BigInt(2 * step));
        if (candidate.BitLength() == bits && MillerRabin(candidate, rng, 24)) {
          return candidate;
        }
      }
      for (size_t i = 0; i < primes.size(); ++i) {
        residues[i] += 2;
        if (residues[i] >= primes[i]) residues[i] -= primes[i];
      }
    }
  }
}

}  // namespace sharoes::crypto
