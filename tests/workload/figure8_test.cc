// Pins the cost structure of the paper's Figure 8: which network sends
// and which cryptographic operations each SHAROES filesystem operation
// performs.
//
//   getattr : metadata recv                 + 1 metadata decrypt
//   mkdir   : metadata send; parent-dir send (2 round trips)
//             + metadata/table encryptions per required CAP
//   mknod   : same shape as mkdir
//   chmod   : metadata send                 + re-encryptions per CAP
//   read    : data recv                     + 1 data decrypt
//   write   : local cache only              (no network, no crypto)
//   close   : data send                     + data encrypt
//
// Every pin holds on both read paths: the batched one that clients run by
// default (ClientOptions::batch_reads) and the one-object-per-round-trip
// one that the paper figures run (BenchWorldOptions::batch_reads).

#include <gtest/gtest.h>

#include "workload/harness.h"

namespace sharoes::workload {
namespace {

class Figure8Test : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    BenchWorldOptions opts;
    opts.variant = SystemVariant::kSharoes;
    opts.user_key_bits = 512;
    opts.batch_reads = GetParam();
    world_ = std::make_unique<BenchWorld>(opts);
    fs_ = &world_->client();
    // Warm the path prefix and the parent's master table.
    core::CreateOptions copts;
    ASSERT_TRUE(fs_->Create("/work/seed.txt", copts).ok());
    ASSERT_TRUE(fs_->WriteFile("/work/seed.txt", ToBytes("seed")).ok());
  }

  struct OpCounters {
    uint64_t round_trips;
    crypto::CryptoEngine::OpCounts crypto;
  };

  OpCounters Count(const std::function<void()>& fn) {
    uint64_t rt_before = world_->transport().counters().round_trips;
    world_->engine().ResetOpCounts();
    fn();
    OpCounters c;
    c.round_trips = world_->transport().counters().round_trips - rt_before;
    c.crypto = world_->engine().op_counts();
    return c;
  }

  core::SharoesClient* Sharoes() {
    return dynamic_cast<core::SharoesClient*>(fs_);
  }

  std::unique_ptr<BenchWorld> world_;
  core::FsClient* fs_ = nullptr;
};

TEST_P(Figure8Test, GetattrIsOneRecvOneDecrypt) {
  ASSERT_TRUE(Sharoes()->EvictPath("/work/seed.txt").ok());
  OpCounters c = Count([&] {
    ASSERT_TRUE(fs_->Getattr("/work/seed.txt").ok());
  });
  EXPECT_EQ(c.round_trips, 1u);           // "metadata recv".
  EXPECT_EQ(c.crypto.sym_decrypt, 1u);    // "1-mddec".
  EXPECT_EQ(c.crypto.sym_encrypt, 0u);
  EXPECT_EQ(c.crypto.verify, 1u);         // MVK verification.
  EXPECT_EQ(c.crypto.pk_decrypt_blocks, 0u);  // No public-key crypto!
}

TEST_P(Figure8Test, WarmGetattrIsFree) {
  ASSERT_TRUE(fs_->Getattr("/work/seed.txt").ok());
  OpCounters c = Count([&] {
    ASSERT_TRUE(fs_->Getattr("/work/seed.txt").ok());
  });
  EXPECT_EQ(c.round_trips, 0u);
}

TEST_P(Figure8Test, MkdirIsTwoSends) {
  core::CreateOptions opts;
  opts.mode = fs::Mode::FromOctal(0755);
  OpCounters c = Count([&] {
    ASSERT_TRUE(fs_->Mkdir("/work/newdir", opts).ok());
  });
  // "metadata send; parent-dir send" — exactly two round trips (each a
  // batch covering all CAP replicas).
  EXPECT_EQ(c.round_trips, 2u);
  EXPECT_GE(c.crypto.sym_encrypt, 2u);  // Child metadata + parent tables.
  EXPECT_GE(c.crypto.sign, 2u);
  EXPECT_EQ(c.crypto.keygen, 2u);       // DSK/DVK and MSK/MVK pairs.
  EXPECT_EQ(c.crypto.pk_encrypt_blocks, 0u);
}

TEST_P(Figure8Test, MknodIsTwoSends) {
  core::CreateOptions opts;
  OpCounters c = Count([&] {
    ASSERT_TRUE(fs_->Create("/work/new.txt", opts).ok());
  });
  EXPECT_EQ(c.round_trips, 2u);
}

TEST_P(Figure8Test, ChmodIsOneSend) {
  OpCounters c = Count([&] {
    // No revocation (040 -> 044 grants, does not revoke read).
    ASSERT_TRUE(
        fs_->Chmod("/work/seed.txt", fs::Mode::FromOctal(0644)).ok());
  });
  EXPECT_EQ(c.round_trips, 1u);  // "metadata send".
  EXPECT_GE(c.crypto.sym_encrypt, 1u);
  EXPECT_EQ(c.crypto.pk_encrypt_blocks, 0u);
}

TEST_P(Figure8Test, ReadIsOneRecvOneDecrypt) {
  ASSERT_TRUE(Sharoes()->EvictPath("/work/seed.txt").ok());
  // Re-warm the metadata so only the data path is measured.
  ASSERT_TRUE(fs_->Getattr("/work/seed.txt").ok());
  OpCounters c = Count([&] {
    auto r = fs_->Read("/work/seed.txt");
    ASSERT_TRUE(r.ok());
  });
  EXPECT_EQ(c.round_trips, 1u);         // "data recv" (one block).
  EXPECT_EQ(c.crypto.sym_decrypt, 1u);  // "1-datadecrypt".
  EXPECT_EQ(c.crypto.verify, 1u);
}

TEST_P(Figure8Test, WriteIsLocalOnly) {
  OpCounters c = Count([&] {
    ASSERT_TRUE(fs_->Write("/work/seed.txt", ToBytes("v2")).ok());
  });
  // "write into local cache": no network, no crypto.
  EXPECT_EQ(c.round_trips, 0u);
  EXPECT_EQ(c.crypto.sym_encrypt, 0u);
  EXPECT_EQ(c.crypto.sign, 0u);
}

TEST_P(Figure8Test, CloseIsOneSendOneEncrypt) {
  ASSERT_TRUE(fs_->Write("/work/seed.txt", ToBytes("v2")).ok());
  OpCounters c = Count([&] {
    ASSERT_TRUE(fs_->Close("/work/seed.txt").ok());
  });
  EXPECT_EQ(c.round_trips, 1u);         // "data send" (batched blocks).
  EXPECT_EQ(c.crypto.sym_encrypt, 1u);  // "1-dataencrypt" (one block).
  EXPECT_EQ(c.crypto.sign, 1u);
}

TEST_P(Figure8Test, MountIsOnePrivateKeyOp) {
  // Remount: the only public-key operation in steady state is opening
  // the user's superblock (paper §III-C).
  OpCounters c = Count([&] {
    ASSERT_TRUE(fs_->Mount().ok());
  });
  EXPECT_EQ(c.round_trips, 1u);
  EXPECT_GE(c.crypto.pk_decrypt_blocks, 1u);
  EXPECT_LE(c.crypto.pk_decrypt_blocks, 8u);  // A handful of RSA blocks.
}

TEST_P(Figure8Test, UnlinkIsOneSend) {
  core::CreateOptions opts;
  ASSERT_TRUE(fs_->Create("/work/doomed", opts).ok());
  OpCounters c = Count([&] {
    ASSERT_TRUE(fs_->Unlink("/work/doomed").ok());
  });
  // Parent tables + deletions go in one batch.
  EXPECT_EQ(c.round_trips, 1u);
}

INSTANTIATE_TEST_SUITE_P(ReadPaths, Figure8Test, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Batched" : "OneGetPerTrip";
                         });

}  // namespace
}  // namespace sharoes::workload
