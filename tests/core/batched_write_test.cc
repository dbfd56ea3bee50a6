// The write-behind batched write path (DESIGN.md §12): staged mutating
// sub-ops, flush points (Close / Fsync / thresholds / read barrier), and
// the write-path error taxonomy. The invariant everything here defends
// mirrors the batched-read contract: batching changes round-trip counts
// and nothing else — the final SSP store a batched client produces is
// byte-identical to the per-op wire behaviour, under faults included.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "obs/metrics.h"
#include "ssp/message.h"
#include "testing/fault.h"
#include "testing/world.h"

namespace sharoes::core {
namespace {

using sharoes::testing::Fault;
using sharoes::testing::kAlice;
using sharoes::testing::kBob;
using sharoes::testing::kEng;
using sharoes::testing::ScriptedInjector;
using sharoes::testing::World;

World::Options StagingOpts(size_t write_batch_ops) {
  World::Options opts;
  opts.write_batch_ops = write_batch_ops;
  return opts;
}

Bytes FilePattern(uint32_t blocks, uint8_t salt) {
  Bytes b(static_cast<size_t>(blocks) * 4096 + 100);  // Ragged tail.
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<uint8_t>((i * 131 + salt) & 0xFF);
  }
  return b;
}

/// An Andrew-style write mix: directory scaffolding, source + object
/// files, attribute churn, a rename and a delete. Deterministic, so two
/// worlds running it from the same seed issue identical logical ops.
void RunWriteMix(SharoesClient& c) {
  CreateOptions dmode;
  dmode.mode = World::ParseMode("rwxrwx---");
  CreateOptions fmode;
  fmode.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(c.Mkdir("/shared/proj", dmode).ok());
  ASSERT_TRUE(c.Mkdir("/shared/proj/src", dmode).ok());
  ASSERT_TRUE(c.Mkdir("/shared/proj/obj", dmode).ok());
  for (int i = 0; i < 6; ++i) {
    std::string path = "/shared/proj/src/f" + std::to_string(i) + ".c";
    ASSERT_TRUE(c.Create(path, fmode).ok()) << path;
    ASSERT_TRUE(c.WriteFile(path, FilePattern(2, static_cast<uint8_t>(i)))
                    .ok())
        << path;
  }
  for (int i = 0; i < 4; ++i) {
    std::string path = "/shared/proj/obj/f" + std::to_string(i) + ".o";
    ASSERT_TRUE(c.Create(path, fmode).ok()) << path;
    ASSERT_TRUE(
        c.WriteFile(path, FilePattern(1, static_cast<uint8_t>(0x40 + i)))
            .ok())
        << path;
  }
  // Permission churn (widening, so no revocation machinery muddies the
  // round-trip comparison — revocation equivalence has its own suite).
  for (int i = 0; i < 6; ++i) {
    std::string path = "/shared/proj/src/f" + std::to_string(i) + ".c";
    ASSERT_TRUE(c.Chmod(path, World::ParseMode("rw-rw-r--")).ok()) << path;
  }
  ASSERT_TRUE(
      c.Rename("/shared/proj/src/f5.c", "/shared/proj/src/f5_old.c").ok());
  ASSERT_TRUE(c.Unlink("/shared/proj/obj/f3.o").ok());
  ASSERT_TRUE(c.Fsync().ok());
}

TEST(BatchedWriteTest, WriteMixIsByteIdenticalAndCheaper) {
  // The same Andrew-style write mix against a write-behind world and a
  // per-op world: the SSP stores they leave behind must be byte-identical
  // (ObjectStore::Serialize), and the batched client must spend far fewer
  // wire round trips producing its copy.
  World batched(StagingOpts(16));
  World unbatched(StagingOpts(0));
  ASSERT_TRUE(batched.MigrateAndMountAll(World::DefaultTree()).ok());
  ASSERT_TRUE(unbatched.MigrateAndMountAll(World::DefaultTree()).ok());

  uint64_t b0 = batched.transport(kAlice).counters().round_trips;
  RunWriteMix(batched.client(kAlice));
  uint64_t batched_trips =
      batched.transport(kAlice).counters().round_trips - b0;

  uint64_t u0 = unbatched.transport(kAlice).counters().round_trips;
  RunWriteMix(unbatched.client(kAlice));
  uint64_t unbatched_trips =
      unbatched.transport(kAlice).counters().round_trips - u0;

  EXPECT_EQ(batched.server().store().Serialize(),
            unbatched.server().store().Serialize())
      << "write-behind changed WHAT was stored, not just when";
  EXPECT_GE(unbatched_trips, 2 * batched_trips)
      << "batched=" << batched_trips << " unbatched=" << unbatched_trips;

  // And both worlds read back the same bytes through a cold cache.
  for (const char* path :
       {"/shared/proj/src/f0.c", "/shared/proj/src/f5_old.c",
        "/shared/proj/obj/f0.o"}) {
    batched.client(kAlice).DropCaches();
    unbatched.client(kAlice).DropCaches();
    auto got_b = batched.client(kAlice).Read(path);
    auto got_u = unbatched.client(kAlice).Read(path);
    ASSERT_TRUE(got_b.ok()) << path << ": " << got_b.status();
    ASSERT_TRUE(got_u.ok()) << path << ": " << got_u.status();
    EXPECT_EQ(*got_b, *got_u) << path;
  }
}

TEST(BatchedWriteTest, UnboundedStageShipsOnlyAtFlushPoints) {
  // With thresholds out of reach, logical ops stage without touching the
  // wire (once the resolution path is warm), and one Fsync ships the
  // whole stage as a single round trip.
  World::Options opts = StagingOpts(1u << 20);
  World world(opts);
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  CreateOptions fmode;
  fmode.mode = World::ParseMode("rw-rw----");

  // First create warms the resolution caches (and stages its sub-ops).
  ASSERT_TRUE(alice.Create("/shared/s0.txt", fmode).ok());
  uint64_t warm = world.transport(kAlice).counters().round_trips;
  for (int i = 1; i < 8; ++i) {
    ASSERT_TRUE(
        alice.Create("/shared/s" + std::to_string(i) + ".txt", fmode).ok());
  }
  EXPECT_EQ(world.transport(kAlice).counters().round_trips, warm)
      << "staged creates leaked onto the wire below every threshold";

  ASSERT_TRUE(alice.Fsync().ok());
  EXPECT_EQ(world.transport(kAlice).counters().round_trips, warm + 1)
      << "the flush must ship the whole stage as one batch";

  // The flush really happened: a different client (no shared caches)
  // sees every file.
  auto names = world.client(kBob).Readdir("/shared");
  ASSERT_TRUE(names.ok()) << names.status();
  for (int i = 0; i < 8; ++i) {
    std::string want = "s" + std::to_string(i) + ".txt";
    EXPECT_NE(std::find(names->begin(), names->end(), want), names->end())
        << want << " never reached the SSP";
  }
}

TEST(BatchedWriteTest, OpsThresholdBoundsTheStage) {
  // A small sub-op threshold must force flushes long before any explicit
  // Close/Fsync — the stage is a bounded buffer, not an unbounded queue.
  World world(StagingOpts(4));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  CreateOptions fmode;
  fmode.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(alice.Create("/shared/t0.txt", fmode).ok());
  uint64_t warm = world.transport(kAlice).counters().round_trips;
  for (int i = 1; i < 6; ++i) {
    ASSERT_TRUE(
        alice.Create("/shared/t" + std::to_string(i) + ".txt", fmode).ok());
  }
  EXPECT_GT(world.transport(kAlice).counters().round_trips, warm)
      << "the sub-op threshold never fired";
}

TEST(BatchedWriteTest, ByteThresholdBoundsTheStage) {
  // Same property for the byte bound: staged payload bytes force a flush
  // even when the sub-op count stays far below write_batch_ops. Each
  // create re-renders every table copy of the growing directory, so the
  // loop stages more than SharoesClient::kWriteBatchBytes in total.
  World world(StagingOpts(1u << 20));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  CreateOptions fmode;
  fmode.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(alice.Create("/shared/b0.txt", fmode).ok());
  ASSERT_TRUE(alice.Fsync().ok());
  const net::Transport::Counters warm = world.transport(kAlice).counters();
  constexpr int kFiles = 100;
  for (int i = 1; i < kFiles; ++i) {
    ASSERT_TRUE(
        alice.Create("/shared/b" + std::to_string(i) + ".txt", fmode).ok());
  }
  EXPECT_GT(world.transport(kAlice).counters().round_trips, warm.round_trips)
      << "the byte threshold never fired";
  ASSERT_TRUE(alice.Fsync().ok());
  EXPECT_GT(world.transport(kAlice).counters().bytes_up - warm.bytes_up,
            SharoesClient::kWriteBatchBytes)
      << "the loop staged less than the byte bound";
  auto names = world.client(kBob).Readdir("/shared");
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_NE(std::find(names->begin(), names->end(),
                      "b" + std::to_string(kFiles - 1) + ".txt"),
            names->end());
}

TEST(BatchedWriteTest, TransientFaultKeepsStagedWrites) {
  // The write-path analog of the PR 5 read bug: a transient kError on the
  // flush batch must surface as Unavailable AND leave the staged sub-ops
  // in place, so a later flush point retries them — never a silently
  // dropped write.
  World world(StagingOpts(64));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  CreateOptions fmode;
  fmode.mode = World::ParseMode("rw-rw----");
  Bytes content = FilePattern(2, 0x21);
  ASSERT_TRUE(alice.Create("/shared/flaky.txt", fmode).ok());
  ASSERT_TRUE(alice.Write("/shared/flaky.txt", content).ok());

  ScriptedInjector inject_one({Fault(ssp::FaultAction::Kind::kFailRequest)});
  world.server().set_fault_injector(&inject_one);
  Status s = alice.Close("/shared/flaky.txt");
  world.server().set_fault_injector(nullptr);
  ASSERT_FALSE(s.ok()) << "the injected fault never surfaced";
  EXPECT_TRUE(s.IsUnavailable()) << s;

  // The stage survived: the next flush ships everything and the write is
  // intact — verified through a cache-free second client.
  ASSERT_TRUE(alice.Fsync().ok());
  auto got = world.client(kBob).Read("/shared/flaky.txt");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, content);
}

/// Forwards to a real in-process connection and, when armed, rewrites one
/// sub-response of the next mutating batch to kError (the per-sub-op
/// transient fault shape).
class SubFaultChannel : public ssp::SspChannel {
 public:
  explicit SubFaultChannel(ssp::SspChannel* inner) : inner_(inner) {}
  void Arm() { armed_ = true; }
  size_t tampered_index() const { return tampered_index_; }
  ssp::OpCode tampered_op() const { return tampered_op_; }

  Result<ssp::Response> Call(const ssp::Request& req) override {
    auto resp = inner_->Call(req);
    if (!resp.ok() || !armed_ || req.op != ssp::OpCode::kBatch) return resp;
    bool mutates = false;
    for (const ssp::Request& sub : req.batch) {
      if (ssp::IsMutatingOp(sub.op)) mutates = true;
    }
    if (!mutates || resp->batch.empty()) return resp;
    armed_ = false;
    tampered_index_ = resp->batch.size() - 1;
    tampered_op_ = req.batch[tampered_index_].op;
    resp->batch[tampered_index_].status = ssp::RespStatus::kError;
    return resp;
  }

 private:
  ssp::SspChannel* inner_;  // Not owned.
  bool armed_ = false;
  size_t tampered_index_ = 0;
  ssp::OpCode tampered_op_ = ssp::OpCode::kBatch;
};

TEST(BatchedWriteTest, SubOpFaultIsDiagnosableAndKept) {
  // Per-sub-op error surfacing through the write-behind flush: the error
  // names the failing sub-op (index, opcode, verdict), classifies as
  // transient, and the stage is kept for the retry.
  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());

  crypto::CryptoEngineOptions eng_opts;
  eng_opts.cost_model = crypto::CryptoCostModel::Zero();
  eng_opts.signing_key_bits = 512;
  eng_opts.rng_seed = 0x57;
  crypto::CryptoEngine engine(&world.clock(), eng_opts);
  net::Transport transport(&world.clock(), net::NetworkModel::Zero());
  ssp::SspConnection real(&world.server(), &transport);
  SubFaultChannel flaky(&real);
  ClientOptions copts;
  copts.scheme = Scheme::kScheme2;
  copts.default_group = kEng;
  copts.write_batch_ops = 64;
  SharoesClient alice(kAlice, world.user_key(kAlice), &world.identity(),
                      &flaky, &engine, copts);
  ASSERT_TRUE(alice.Mount().ok());

  CreateOptions fmode;
  fmode.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(alice.Create("/shared/tampered.txt", fmode).ok());

  flaky.Arm();
  Status s = alice.Fsync();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnavailable()) << s;
  const std::string want_index =
      "sub-op " + std::to_string(flaky.tampered_index()) + "/";
  EXPECT_NE(s.message().find(want_index), std::string::npos) << s;
  EXPECT_NE(s.message().find(ssp::OpCodeName(flaky.tampered_op())),
            std::string::npos)
      << s;

  // Kept + retried: the second flush succeeds and the file is durable.
  ASSERT_TRUE(alice.Fsync().ok());
  alice.DropCaches();
  EXPECT_TRUE(alice.Getattr("/shared/tampered.txt").ok());
}

TEST(BatchedWriteTest, RenameAndCloseOrderAgainstTheStage) {
  // Rename's table renders stage BEFORE the renamed file's data blocks
  // (which Close stages later), and the flush preserves that order — the
  // dirty buffer written under the old name lands under the new one, and
  // the old name stays gone, exactly as in the per-op world.
  for (size_t write_batch_ops : {size_t{0}, size_t{32}}) {
    World world(StagingOpts(write_batch_ops));
    ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
    auto& alice = world.client(kAlice);

    Bytes plan = FilePattern(1, 0x66);
    ASSERT_TRUE(alice.Write("/shared/plan.md", plan).ok());
    ASSERT_TRUE(alice.Rename("/shared/plan.md", "/shared/plan-v2.md").ok());
    ASSERT_TRUE(alice.Close("/shared/plan-v2.md").ok());
    ASSERT_TRUE(alice.Fsync().ok());

    // A cache-free second client sees the post-rename world.
    auto got = world.client(kBob).Read("/shared/plan-v2.md");
    ASSERT_TRUE(got.ok()) << "write_batch_ops=" << write_batch_ops << ": "
                          << got.status();
    EXPECT_EQ(*got, plan);
    EXPECT_TRUE(
        world.client(kBob).Getattr("/shared/plan.md").status().IsNotFound())
        << "write_batch_ops=" << write_batch_ops;
  }
}

TEST(BatchedWriteTest, CloseIsADurabilityPoint) {
  // Close returning OK means the SSP holds the bytes — nothing may linger
  // in the stage. A second client (separate caches) must read the new
  // content immediately after Close, with no Fsync.
  World world(StagingOpts(16));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  Bytes v = FilePattern(1, 0x11);
  ASSERT_TRUE(alice.Write("/shared/plan.md", v).ok());
  ASSERT_TRUE(alice.Close("/shared/plan.md").ok());
  auto got = world.client(kBob).Read("/shared/plan.md");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, v);
}

TEST(BatchedWriteTest, ReadBarrierPreservesReadYourWrites) {
  // A read that reaches the wire while mutations sit in the stage must
  // flush them first: the SSP's answer has to reflect this client's own
  // staged writes, batched or not.
  World world(StagingOpts(1u << 20));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  CreateOptions fmode;
  fmode.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(alice.Create("/shared/barrier.txt", fmode).ok());
  // Force the next lookup onto the wire: without the barrier the SSP
  // would answer from a world where the staged create never happened.
  alice.DropCaches();
  auto attrs = alice.Getattr("/shared/barrier.txt");
  EXPECT_TRUE(attrs.ok()) << attrs.status();
}

}  // namespace
}  // namespace sharoes::core
