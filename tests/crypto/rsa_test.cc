#include "crypto/rsa.h"

#include <gtest/gtest.h>

#include "util/bytes.h"

namespace sharoes::crypto {
namespace {

// Key generation is the slow part; share one pair across the suite.
class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(0xC0FFEE);
    key_ = new RsaKeyPair(GenerateRsaKeyPair(768, *rng_));
  }
  static void TearDownTestSuite() {
    delete key_;
    delete rng_;
    key_ = nullptr;
    rng_ = nullptr;
  }

  static Rng* rng_;
  static RsaKeyPair* key_;
};

Rng* RsaTest::rng_ = nullptr;
RsaKeyPair* RsaTest::key_ = nullptr;

TEST_F(RsaTest, KeyStructure) {
  EXPECT_EQ(key_->pub.n.BitLength(), 768u);
  EXPECT_EQ(key_->pub.e.ToU64(), 65537u);
  EXPECT_EQ(BigInt::Mul(key_->priv.p, key_->priv.q), key_->priv.n);
}

TEST_F(RsaTest, EncryptDecryptBlockRoundTrip) {
  Bytes msg = ToBytes("superblock for alice");
  auto ct = RsaEncryptBlock(key_->pub, msg, *rng_);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ct->size(), key_->pub.ModulusBytes());
  auto pt = RsaDecryptBlock(key_->priv, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, msg);
}

TEST_F(RsaTest, EncryptionIsRandomized) {
  Bytes msg = ToBytes("same message");
  auto c1 = RsaEncryptBlock(key_->pub, msg, *rng_);
  auto c2 = RsaEncryptBlock(key_->pub, msg, *rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(*c1, *c2);
}

TEST_F(RsaTest, RejectsOversizedBlockMessage) {
  Bytes msg(key_->pub.MaxMessageBytes() + 1, 0x41);
  auto ct = RsaEncryptBlock(key_->pub, msg, *rng_);
  EXPECT_FALSE(ct.ok());
  EXPECT_EQ(ct.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RsaTest, MaxSizeBlockMessage) {
  Bytes msg(key_->pub.MaxMessageBytes(), 0x42);
  auto ct = RsaEncryptBlock(key_->pub, msg, *rng_);
  ASSERT_TRUE(ct.ok());
  auto pt = RsaDecryptBlock(key_->priv, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, msg);
}

TEST_F(RsaTest, EmptyMessage) {
  auto ct = RsaEncrypt(key_->pub, Bytes{}, *rng_);
  ASSERT_TRUE(ct.ok());
  auto pt = RsaDecrypt(key_->priv, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_TRUE(pt->empty());
}

TEST_F(RsaTest, MultiBlockRoundTrip) {
  // Larger than one block: the PUBLIC-baseline metadata path.
  Bytes msg;
  for (int i = 0; i < 500; ++i) msg.push_back(static_cast<uint8_t>(i));
  auto ct = RsaEncrypt(key_->pub, msg, *rng_);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ct->size() % key_->pub.ModulusBytes(), 0u);
  EXPECT_EQ(ct->size() / key_->pub.ModulusBytes(),
            RsaBlockCount(key_->pub, msg.size()));
  auto pt = RsaDecrypt(key_->priv, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, msg);
}

TEST_F(RsaTest, DecryptRejectsTamperedBlock) {
  Bytes msg = ToBytes("tamper me");
  auto ct = RsaEncryptBlock(key_->pub, msg, *rng_);
  ASSERT_TRUE(ct.ok());
  Bytes bad = *ct;
  bad[bad.size() / 2] ^= 0xFF;
  auto pt = RsaDecryptBlock(key_->priv, bad);
  // Either padding fails or the plaintext differs; both are acceptable
  // detections for PKCS#1 v1.5.
  if (pt.ok()) {
    EXPECT_NE(*pt, msg);
  }
}

TEST_F(RsaTest, DecryptRejectsWrongSize) {
  Bytes short_ct(key_->pub.ModulusBytes() - 1, 0);
  EXPECT_FALSE(RsaDecryptBlock(key_->priv, short_ct).ok());
}

TEST_F(RsaTest, SignVerifyRoundTrip) {
  Bytes msg = ToBytes("hash of file contents");
  Bytes sig = RsaSign(key_->priv, msg);
  EXPECT_TRUE(RsaVerify(key_->pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsModifiedMessage) {
  Bytes msg = ToBytes("original");
  Bytes sig = RsaSign(key_->priv, msg);
  EXPECT_FALSE(RsaVerify(key_->pub, ToBytes("0riginal"), sig));
}

TEST_F(RsaTest, VerifyRejectsModifiedSignature) {
  Bytes msg = ToBytes("message");
  Bytes sig = RsaSign(key_->priv, msg);
  sig[0] ^= 1;
  EXPECT_FALSE(RsaVerify(key_->pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongKey) {
  Rng rng2(999);
  RsaKeyPair other = GenerateRsaKeyPair(768, rng2);
  Bytes msg = ToBytes("message");
  Bytes sig = RsaSign(key_->priv, msg);
  EXPECT_FALSE(RsaVerify(other.pub, msg, sig));
}

TEST_F(RsaTest, PublicKeySerializationRoundTrip) {
  Bytes ser = key_->pub.Serialize();
  auto back = RsaPublicKey::Deserialize(ser);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->n, key_->pub.n);
  EXPECT_EQ(back->e, key_->pub.e);
}

TEST_F(RsaTest, PrivateKeySerializationRoundTrip) {
  Bytes ser = key_->priv.Serialize();
  auto back = RsaPrivateKey::Deserialize(ser);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->dp, key_->priv.dp);
  EXPECT_EQ(back->dq, key_->priv.dq);
  EXPECT_EQ(back->qinv, key_->priv.qinv);
  // The deserialized key must actually work.
  Bytes msg = ToBytes("round trip");
  auto ct = RsaEncryptBlock(key_->pub, msg, *rng_);
  ASSERT_TRUE(ct.ok());
  auto pt = RsaDecryptBlock(*back, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, msg);
}

TEST_F(RsaTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(RsaPublicKey::Deserialize(ToBytes("junk")).ok());
  EXPECT_FALSE(RsaPrivateKey::Deserialize(ToBytes("junk")).ok());
}

TEST(RsaDecodeTest, RefusesInconsistentPrivateKeys) {
  // The compact form is (e, p, q); decode derives dp, dq and qinv and
  // must refuse, not crash on, every combination that has none.
  auto decode = [](uint64_t e, uint64_t p, uint64_t q) {
    RsaPrivateKey k;
    k.e = BigInt(e);
    k.p = BigInt(p);
    k.q = BigInt(q);
    return RsaPrivateKey::Deserialize(k.Serialize()).status();
  };
  struct Case {
    uint64_t e, p, q;
    const char* message;
  };
  const Case cases[] = {
      {3, 7, 11, "e not invertible mod p-1"},    // 3 | 6
      {3, 11, 7, "e not invertible mod q-1"},    // 3 | 6
      {3, 5, 15, "q not invertible mod p"},      // 5 | 15
      {5, 15, 7, "q not invertible mod p"},      // p composite
      {3, 4, 7, "prime even or one"},
      {3, 11, 1, "prime even or one"},
  };
  for (const Case& c : cases) {
    Status s = decode(c.e, c.p, c.q);
    EXPECT_TRUE(s.IsCorruption()) << c.p << " " << c.q;
    EXPECT_NE(s.message().find(c.message), std::string::npos)
        << c.p << " " << c.q << ": " << s.message();
  }
  EXPECT_TRUE(decode(3, 11, 5).ok());
}

TEST_F(RsaTest, FingerprintStableAndDistinct) {
  EXPECT_EQ(key_->pub.Fingerprint(), key_->pub.Fingerprint());
  Rng rng2(1234);
  RsaKeyPair other = GenerateRsaKeyPair(512, rng2);
  EXPECT_NE(key_->pub.Fingerprint(), other.pub.Fingerprint());
}

TEST(RsaSmallKeyTest, Various512BitKeys) {
  Rng rng(77);
  for (int i = 0; i < 3; ++i) {
    RsaKeyPair kp = GenerateRsaKeyPair(512, rng);
    Bytes msg = ToBytes("msg");
    auto ct = RsaEncryptBlock(kp.pub, msg, rng);
    ASSERT_TRUE(ct.ok());
    auto pt = RsaDecryptBlock(kp.priv, *ct);
    ASSERT_TRUE(pt.ok());
    EXPECT_EQ(*pt, msg);
    Bytes sig = RsaSign(kp.priv, msg);
    EXPECT_TRUE(RsaVerify(kp.pub, msg, sig));
  }
}

}  // namespace
}  // namespace sharoes::crypto
