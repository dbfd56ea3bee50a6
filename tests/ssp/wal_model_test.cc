// Model-based durability property (pattern from core/model_based_test):
// random op sequences run against a WAL-backed server while an in-memory
// reference store applies the same ops directly; replaying the log
// directory (copied mid-run, exactly as a crash would freeze it) must
// reconstruct a store whose Serialize() bytes are identical to the
// reference — after every N ops, across compactions, and repeatably.
//
// The TSan variant drives concurrent writers (disjoint inode ranges, so
// cross-thread op order commutes) through the full serving path with a
// tiny compaction threshold and an interval syncer, covering the
// append/ack/compact/background locking against each other.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ssp/object_store.h"
#include "ssp/ssp_server.h"
#include "ssp/wal.h"
#include "testing/scratch_dir.h"
#include "testing/stress.h"
#include "util/random.h"

namespace sharoes::ssp {
namespace {

using sharoes::testing::ScratchDir;

/// Freezes the live WAL directory the way a crash would: a plain file
/// copy, no sync, no cooperation from the writer.
std::string SnapshotDirectory(const std::string& src, int generation) {
  std::string dst = src + "_frozen" + std::to_string(generation);
  std::string cmd = "rm -rf " + dst + " && cp -r " + src + " " + dst;
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  return dst;
}

/// One random mutating request. Inodes are confined to
/// [base_inode, base_inode + spread) so concurrent generators with
/// disjoint ranges never write the same key.
Request RandomOp(Rng* rng, fs::InodeNum base_inode, uint64_t spread) {
  fs::InodeNum inode = base_inode + rng->NextBelow(spread);
  uint32_t small = static_cast<uint32_t>(rng->NextBelow(4));
  Bytes payload = rng->NextBytes(1 + rng->NextBelow(96));
  switch (rng->NextBelow(12)) {
    case 0:
      return Request::Put(ObjectKey::Superblock(static_cast<uint32_t>(inode)),
                          payload);
    case 1:
      return Request::Delete(
          ObjectKey::Superblock(static_cast<uint32_t>(inode)));
    case 2:
      return Request::Put(ObjectKey::Metadata(inode, small), payload);
    case 3:
      return Request::Delete(ObjectKey::Metadata(inode, small));
    case 4:
      return Request::DeleteRange(ObjectFamily::kMetadata, inode);
    case 5:
      return Request::Put(
          ObjectKey::UserMetadata(inode, static_cast<uint32_t>(inode)),
          payload);
    case 6:
      return Request::Delete(
          ObjectKey::UserMetadata(inode, static_cast<uint32_t>(inode)));
    case 7:
      return Request::Put(ObjectKey::Data(inode, small), payload);
    case 8:
      return Request::DeleteRange(ObjectFamily::kData, inode);
    case 9:
      return Request::Put(
          ObjectKey::GroupKey(static_cast<uint32_t>(inode), small), payload);
    case 10:
      return Request::Delete(
          ObjectKey::GroupKey(static_cast<uint32_t>(inode), small));
    default:
      return Request::Batch(
          {Request::Put(ObjectKey::Metadata(inode, 5), payload),
           Request::Put(ObjectKey::Data(inode, 5), payload)});
  }
}

void ApplyToReference(const Request& req, ObjectStore* reference) {
  if (req.op == OpCode::kBatch) {
    for (const Request& sub : req.batch) {
      ASSERT_TRUE(ApplyWalOp(sub, reference).ok());
    }
  } else {
    ASSERT_TRUE(ApplyWalOp(req, reference).ok());
  }
}

/// Recovers a frozen directory copy into a fresh store and returns its
/// canonical bytes.
Bytes RecoverFrozen(const std::string& frozen_dir) {
  ObjectStore store;
  auto wal = Wal::Open(frozen_dir, WalOptions{}, &store);
  EXPECT_TRUE(wal.ok()) << wal.status();
  return store.Serialize();
}

class WalModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalModelTest, ReplayAfterEveryNOpsMatchesReference) {
  const uint64_t seed = GetParam();
  ScratchDir scratch("walmodel_seq" + std::to_string(seed));
  const std::string dir = scratch.path() + "/wal";
  SspServer server;
  auto wal = Wal::Open(dir, WalOptions{}, &server.store());
  ASSERT_TRUE(wal.ok()) << wal.status();
  server.set_wal(wal->get());

  ObjectStore reference;
  Rng rng(seed);
  constexpr int kOps = 400;
  constexpr int kReplayEvery = 40;
  int generation = 0;
  for (int i = 1; i <= kOps; ++i) {
    Request op = RandomOp(&rng, /*base_inode=*/1, /*spread=*/23);
    Response resp = server.Handle(op);
    ASSERT_EQ(resp.status, RespStatus::kOk) << "op " << i;
    ApplyToReference(op, &reference);

    // Occasional explicit compaction: later replays start from a
    // snapshot and must still land on the same bytes.
    if (rng.NextBelow(100) < 4) {
      ASSERT_TRUE((*wal)->Compact().ok());
    }
    if (i % kReplayEvery == 0 || i == kOps) {
      std::string frozen = SnapshotDirectory(dir, generation++);
      Bytes recovered = RecoverFrozen(frozen);
      ASSERT_EQ(recovered, reference.Serialize())
          << "seed " << seed << ", divergence after op " << i;
      // Recovery is repeatable: a second replay of the same frozen
      // bytes is byte-identical (no hidden state, no ordering luck).
      ASSERT_EQ(RecoverFrozen(frozen), recovered);
    }
  }
  EXPECT_GT((*wal)->last_sequence(), static_cast<uint64_t>(kOps) - 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalModelTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(WalModelConcurrency, ConcurrentWritersRecoverToLiveState) {
  // Threads write disjoint inode ranges, so whatever order their ops
  // interleave in the log, replay commutes to the same final state the
  // live store reached. A tiny compaction threshold plus the interval
  // syncer keeps Compact(), Sync(), and Append() contending for the
  // whole run — the locking this test exists to put under TSan.
  ScratchDir scratch("walmodel_conc");
  const std::string dir = scratch.path() + "/wal";
  SspServer server;
  WalOptions opts;
  opts.sync = WalSyncPolicy::kInterval;
  opts.interval_ms = 1;
  opts.compact_threshold_bytes = 8192;
  auto wal = Wal::Open(dir, opts, &server.store());
  ASSERT_TRUE(wal.ok()) << wal.status();
  server.set_wal(wal->get());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 150;
  sharoes::testing::StressThreads(kThreads, [&](int t) -> Status {
    Rng rng(0xFEED + static_cast<uint64_t>(t));
    fs::InodeNum base = 1 + static_cast<fs::InodeNum>(t) * 1000;
    for (int i = 0; i < kOpsPerThread; ++i) {
      Request op = RandomOp(&rng, base, /*spread=*/17);
      Response resp = server.Handle(op);
      if (resp.status != RespStatus::kOk) {
        return Status::Internal("op rejected on thread " +
                                std::to_string(t));
      }
    }
    return Status::OK();
  });

  EXPECT_GE((*wal)->last_sequence(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  Bytes live = server.store().Serialize();
  // Quiesce before freezing: a real crash captures an atomic point in
  // time, but `cp -r` does not — copying *during* a background
  // compaction could pair an old snapshot with already-pruned segments,
  // a state no crash can produce. Tearing down the Wal joins the
  // background thread and finalizes the log.
  server.set_wal(nullptr);
  wal->reset();
  std::string frozen = SnapshotDirectory(dir, 0);
  EXPECT_EQ(RecoverFrozen(frozen), live);

  // Same property through recovery + a final explicit compaction: the
  // snapshot image plus an (empty) log tail reproduces identical bytes.
  ObjectStore reopened;
  auto wal2 = Wal::Open(dir, opts, &reopened);
  ASSERT_TRUE(wal2.ok()) << wal2.status();
  EXPECT_EQ(reopened.Serialize(), live);
  ASSERT_TRUE((*wal2)->Compact().ok());
  (*wal2).reset();
  EXPECT_EQ(RecoverFrozen(SnapshotDirectory(dir, 1)), live);
}

TEST(WalModelConcurrency, CompactRacesAppendsWithoutTearingTheCut) {
  // Hammer Compact() explicitly from a dedicated thread while writers
  // stream — the exclusive/shared gate handoff is the part a data race
  // would corrupt, and the per-round recovery equality would expose it.
  ScratchDir scratch("walmodel_cutrace");
  const std::string dir = scratch.path() + "/wal";
  SspServer server;
  WalOptions opts;
  opts.sync = WalSyncPolicy::kOff;
  opts.compact_threshold_bytes = 0;  // Only explicit compactions.
  auto wal = Wal::Open(dir, opts, &server.store());
  ASSERT_TRUE(wal.ok()) << wal.status();
  server.set_wal(wal->get());

  // Writers hold off until the compactor is running, and the compactor
  // compacts at least once even if writer 0 finishes first, so the race
  // is exercised however the threads are scheduled.
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  constexpr int kWriters = 3;
  sharoes::testing::StressThreads(kWriters + 1, [&](int t) -> Status {
    if (t == kWriters) {  // The compactor.
      int compactions = 0;
      started.store(true, std::memory_order_release);
      do {
        Status s = (*wal)->Compact();
        if (!s.ok()) return s;
        ++compactions;
      } while (!done.load(std::memory_order_acquire));
      return compactions > 0 ? Status::OK()
                             : Status::Internal("compactor starved");
    }
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    Rng rng(0xABCD + static_cast<uint64_t>(t));
    fs::InodeNum base = 1 + static_cast<fs::InodeNum>(t) * 1000;
    for (int i = 0; i < 120; ++i) {
      Request op = RandomOp(&rng, base, /*spread=*/11);
      Response resp = server.Handle(op);
      if (resp.status != RespStatus::kOk) {
        return Status::Internal("op rejected");
      }
    }
    if (t == 0) done.store(true, std::memory_order_release);
    return Status::OK();
  });
  done.store(true);

  EXPECT_GT((*wal)->compactions(), 0u);
  Bytes live = server.store().Serialize();
  EXPECT_EQ(RecoverFrozen(SnapshotDirectory(dir, 0)), live);
}

}  // namespace
}  // namespace sharoes::ssp
