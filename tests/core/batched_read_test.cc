// The batched read path (DESIGN.md §11): coalesced path resolution,
// readahead windows, the negative dentry cache, and the read-path error
// taxonomy. The invariant everything here defends: batching changes
// round-trip counts and nothing else — every byte a batched client
// returns matches the per-block wire behaviour, under faults included.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/retrying_connection.h"
#include "obs/metrics.h"
#include "ssp/message.h"
#include "testing/fault.h"
#include "testing/world.h"

namespace sharoes::core {
namespace {

using sharoes::testing::Fault;
using sharoes::testing::kAlice;
using sharoes::testing::kBob;
using sharoes::testing::kCarol;
using sharoes::testing::kEng;
using sharoes::testing::ScriptedInjector;
using sharoes::testing::World;

Bytes BlocksOfPattern(uint32_t blocks, uint8_t salt) {
  Bytes b(static_cast<size_t>(blocks) * 4096);
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<uint8_t>((i * 37 + salt) & 0xFF);
  }
  return b;
}

World::Options BatchedOpts(bool batch_reads, size_t readahead = 32) {
  World::Options opts;
  opts.batch_reads = batch_reads;
  opts.readahead_blocks = readahead;
  return opts;
}

uint64_t ColdRead(World& world, fs::UserId uid, const std::string& path,
                  Bytes* out) {
  world.client(uid).DropCaches();
  uint64_t before = world.transport(uid).counters().round_trips;
  auto content = world.client(uid).Read(path);
  EXPECT_TRUE(content.ok()) << content.status();
  if (content.ok()) *out = std::move(*content);
  return world.transport(uid).counters().round_trips - before;
}

TEST(BatchedReadTest, ColdReadsAreByteIdenticalAndCheaper) {
  // The same tree and 18-block file in a batched and an unbatched world;
  // every cold read must return identical bytes, and the batched world
  // must spend strictly fewer wire round trips doing it.
  Bytes big = BlocksOfPattern(18, 3);
  World batched(BatchedOpts(true));
  World unbatched(BatchedOpts(false));
  for (World* w : {&batched, &unbatched}) {
    ASSERT_TRUE(w->MigrateAndMountAll(World::DefaultTree()).ok());
    CreateOptions fopts;
    fopts.mode = World::ParseMode("rw-rw----");
    ASSERT_TRUE(w->client(kAlice).Create("/shared/big.bin", fopts).ok());
    ASSERT_TRUE(w->client(kAlice).WriteFile("/shared/big.bin", big).ok());
  }

  for (const char* path : {"/shared/big.bin", "/home/alice/notes.txt",
                           "/home/alice/public.txt", "/shared/plan.md"}) {
    Bytes got_batched, got_unbatched;
    uint64_t trips_batched = ColdRead(batched, kAlice, path, &got_batched);
    uint64_t trips_unbatched =
        ColdRead(unbatched, kAlice, path, &got_unbatched);
    EXPECT_EQ(got_batched, got_unbatched) << path;
    EXPECT_LT(trips_batched, trips_unbatched) << path;
  }
  // The big sequential read is where readahead pays: at least 4x fewer
  // round trips (18 data gets + descent collapse into a handful of
  // batches).
  Bytes got;
  uint64_t tb = ColdRead(batched, kAlice, "/shared/big.bin", &got);
  uint64_t tu = ColdRead(unbatched, kAlice, "/shared/big.bin", &got);
  EXPECT_GE(tu, 4 * tb) << "batched=" << tb << " unbatched=" << tu;
}

/// One cold pass of reads over a tree, the wire and crypto work it cost.
struct ReadPass {
  std::vector<Bytes> contents;
  uint64_t round_trips = 0;
  uint64_t bytes_down = 0;
  uint64_t sym_decrypts = 0;
  uint64_t verifies = 0;
};

/// Builds a nested tree of empty, 1-, 2- and 40-block files plus a
/// lazily revoked then rewritten file (blocks under dek_next), then reads
/// every file cold: alice everything, carol a file behind an exec-only
/// directory (/home/alice is rwxr-x--x).
ReadPass ColdReadPass(bool batch_reads, size_t cache_bytes) {
  World::Options opts = BatchedOpts(batch_reads);
  opts.cache_bytes = cache_bytes;
  opts.revocation = RevocationMode::kLazy;
  World world(opts);
  EXPECT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  CreateOptions dopts;
  dopts.mode = World::ParseMode("rwxrwxr-x");
  CreateOptions fopts;
  fopts.mode = World::ParseMode("rw-rw-r--");
  EXPECT_TRUE(alice.Mkdir("/shared/deep", dopts).ok());
  EXPECT_TRUE(alice.Mkdir("/shared/deep/er", dopts).ok());
  const std::vector<std::pair<std::string, uint32_t>> files = {
      {"/shared/deep/er/empty.bin", 0},
      {"/shared/deep/er/one.bin", 1},
      {"/shared/deep/er/two.bin", 2},
      {"/shared/deep/er/forty.bin", 40},
      {"/shared/lazy.bin", 3}};
  uint8_t salt = 11;
  for (const auto& [path, blocks] : files) {
    EXPECT_TRUE(alice.Create(path, fopts).ok()) << path;
    if (blocks > 0) {
      EXPECT_TRUE(alice.WriteFile(path, BlocksOfPattern(blocks, salt++)).ok());
    }
  }
  // Lazy revocation: others lose read, the next write rotates the key.
  EXPECT_TRUE(alice.Chmod("/shared/lazy.bin", World::ParseMode("rw-rw----"))
                  .ok());
  EXPECT_TRUE(alice.WriteFile("/shared/lazy.bin", BlocksOfPattern(3, 99)).ok());

  // Wire and crypto totals of both readers so far.
  auto totals = [&] {
    ReadPass t;
    for (fs::UserId uid : {kAlice, kCarol}) {
      t.round_trips += world.transport(uid).counters().round_trips;
      t.bytes_down += world.transport(uid).counters().bytes_down;
      t.sym_decrypts += world.engine(uid).op_counts().sym_decrypt;
      t.verifies += world.engine(uid).op_counts().verify;
    }
    return t;
  };
  alice.DropCaches();
  world.client(kCarol).DropCaches();
  const ReadPass before = totals();
  ReadPass pass;
  for (const auto& [path, blocks] : files) {
    auto got = alice.Read(path);
    EXPECT_TRUE(got.ok()) << path << ": " << got.status();
    pass.contents.push_back(got.ok() ? *got : Bytes{});
  }
  auto exec_only = world.client(kCarol).Read("/home/alice/public.txt");
  EXPECT_TRUE(exec_only.ok()) << exec_only.status();
  pass.contents.push_back(exec_only.ok() ? *exec_only : Bytes{});
  const ReadPass after = totals();
  pass.round_trips = after.round_trips - before.round_trips;
  pass.bytes_down = after.bytes_down - before.bytes_down;
  pass.sym_decrypts = after.sym_decrypts - before.sym_decrypts;
  pass.verifies = after.verifies - before.verifies;
  return pass;
}

TEST(BatchedReadTest, EachFetchedObjectIsDecodedOnce) {
  // Batching changes how objects travel, never how many are decoded: at
  // a zero-byte cache (nothing survives between fetch and use) and at a
  // warm-sized one, the batched reads decrypt and verify exactly what
  // the unbatched ones do, in no more round trips and about the same
  // bytes (a prefetched object must never be fetched a second time).
  for (size_t cache_bytes : {size_t{0}, size_t{64} << 20}) {
    ReadPass batched = ColdReadPass(true, cache_bytes);
    ReadPass unbatched = ColdReadPass(false, cache_bytes);
    SCOPED_TRACE("cache_bytes=" + std::to_string(cache_bytes));
    EXPECT_EQ(batched.contents, unbatched.contents);
    ASSERT_EQ(batched.contents.size(), 6u);
    EXPECT_TRUE(batched.contents[0].empty());
    EXPECT_EQ(batched.contents[3].size(), 40u * 4096);
    EXPECT_EQ(batched.contents[4], BlocksOfPattern(3, 99));
    EXPECT_EQ(batched.contents[5], ToBytes("hello world"));
    EXPECT_LE(batched.round_trips, unbatched.round_trips);
    EXPECT_EQ(batched.sym_decrypts, unbatched.sym_decrypts);
    EXPECT_EQ(batched.verifies, unbatched.verifies);
    // Speculative gets past EOF (tiny kNotFound answers) and batch
    // framing cost the batched client a few bytes per batch; fetching
    // any object twice would cost whole blocks and tables.
    EXPECT_LE(batched.bytes_down, unbatched.bytes_down * 21 / 20);
  }
}

TEST(BatchedReadTest, ReadaheadWindowBoundsBatchSize) {
  // A smaller window means more (but smaller) batches: the 18-block file
  // needs strictly more round trips at readahead 4 than at 32, and both
  // stay below the per-block count. The window is a request-size bound,
  // not a correctness knob.
  Bytes big = BlocksOfPattern(18, 9);
  uint64_t trips[2];
  size_t idx = 0;
  for (size_t readahead : {size_t{4}, size_t{32}}) {
    World world(BatchedOpts(true, readahead));
    ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
    CreateOptions fopts;
    fopts.mode = World::ParseMode("rw-rw----");
    ASSERT_TRUE(world.client(kAlice).Create("/shared/big.bin", fopts).ok());
    ASSERT_TRUE(world.client(kAlice).WriteFile("/shared/big.bin", big).ok());
    Bytes got;
    trips[idx++] = ColdRead(world, kAlice, "/shared/big.bin", &got);
    EXPECT_EQ(got, big);
  }
  EXPECT_GT(trips[0], trips[1]);  // window 4 pays more trips than 32...
  EXPECT_LT(trips[0], 18u);       // ...but far fewer than one per block.
}

TEST(BatchedReadTest, EmptyFileStaysEmptyUnderBatching) {
  // A created-but-never-written file has no block 0; the batched path
  // must preserve the kNotFound => empty-file semantics exactly.
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  CreateOptions fopts;
  fopts.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(world.client(kAlice).Create("/shared/empty.txt", fopts).ok());
  world.client(kAlice).DropCaches();
  auto content = world.client(kAlice).Read("/shared/empty.txt");
  ASSERT_TRUE(content.ok()) << content.status();
  EXPECT_TRUE(content->empty());
}

TEST(BatchedReadTest, NegativeDentryShortCircuitsRepeatMisses) {
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);

  // First miss: pays the descent, caches the negative dentry.
  auto miss = alice.Getattr("/shared/later.txt");
  EXPECT_TRUE(miss.status().IsNotFound());
  // Second miss: everything (views, tables, the absence itself) is
  // cached — zero wire round trips.
  uint64_t before = world.transport(kAlice).counters().round_trips;
  miss = alice.Getattr("/shared/later.txt");
  EXPECT_TRUE(miss.status().IsNotFound());
  EXPECT_EQ(world.transport(kAlice).counters().round_trips, before);

  // Creating the file invalidates the directory's negative dentries: the
  // lookup must succeed immediately, not serve the stale absence.
  CreateOptions fopts;
  fopts.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(alice.Create("/shared/later.txt", fopts).ok());
  EXPECT_TRUE(alice.Getattr("/shared/later.txt").ok());

  // DropCaches clears negatives too.
  alice.DropCaches();
  EXPECT_TRUE(alice.Getattr("/shared/later.txt").ok());
}

TEST(BatchedReadTest, NegativeDentryCacheCanBeDisabled) {
  World::Options opts = BatchedOpts(true);
  opts.negative_dentry_bytes = 0;
  World world(opts);
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  EXPECT_TRUE(alice.Getattr("/shared/nope.txt").status().IsNotFound());
  // Without the cache the repeat miss re-asks the SSP nothing — the
  // *table* is still positively cached, so the lookup fails locally.
  // The knob's contract is only that no negative entries are stored.
  EXPECT_TRUE(alice.Getattr("/shared/nope.txt").status().IsNotFound());
}

TEST(BatchedReadTest, MultiGetValidatesSubOps) {
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);

  // Mutations may not ride MultiGet (they would bypass ExecuteBatch's
  // failure reporting), and neither may admin ops.
  auto r = alice.MultiGet({ssp::Request::Put(ssp::ObjectKey::Data(1, 0), {1})});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status();
  r = alice.MultiGet({ssp::Request::GetStats()});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status();

  // A well-formed get batch answers per-sub-op, misses included.
  r = alice.MultiGet(
      {ssp::Request::Get(ssp::ObjectKey::Data(999999, 0)),
       ssp::Request::Get(ssp::ObjectKey::Data(999999, 1))});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].status, ssp::RespStatus::kNotFound);
  EXPECT_EQ((*r)[1].status, ssp::RespStatus::kNotFound);
}

TEST(BatchedReadTest, TransientFaultIsUnavailableNotNotFound) {
  // Regression (the PR 5 bugfix): FetchFileContent used to treat *any*
  // non-ok data-block get as "data block missing" — an injected kError on
  // block 0 silently read back as an EMPTY FILE. A transient fault must
  // surface as Unavailable (retryable), never as NotFound or truncation.
  for (bool batch_reads : {false, true}) {
    World world(BatchedOpts(batch_reads));
    ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
    auto& alice = world.client(kAlice);
    // Warm the metadata descent so the next wire request is the data get.
    ASSERT_TRUE(alice.Getattr("/home/alice/notes.txt").ok());

    ScriptedInjector inject_one(
        {Fault(ssp::FaultAction::Kind::kFailRequest)});
    world.server().set_fault_injector(&inject_one);
    auto content = alice.Read("/home/alice/notes.txt");
    world.server().set_fault_injector(nullptr);

    ASSERT_FALSE(content.ok()) << "batch_reads=" << batch_reads;
    EXPECT_TRUE(content.status().IsUnavailable())
        << "batch_reads=" << batch_reads << ": " << content.status();

    // And with the fault gone the same client reads the real bytes.
    auto healed = alice.Read("/home/alice/notes.txt");
    ASSERT_TRUE(healed.ok()) << healed.status();
    EXPECT_EQ(*healed, ToBytes("alice's notes"));
  }
}

/// Runs `op` with the world's server failing its next request with a
/// transient kError (the in-process connection does not retry).
template <typename Op>
auto WithOneFailedRequest(World& world, Op op) {
  ScriptedInjector inject_one({Fault(ssp::FaultAction::Kind::kFailRequest)});
  world.server().set_fault_injector(&inject_one);
  auto result = op();
  world.server().set_fault_injector(nullptr);
  EXPECT_EQ(inject_one.consumed(), 1u);
  return result;
}

TEST(BatchedReadTest, TransientFaultOnASingleGetIsNeverAbsence) {
  // Regression: the single-Get reads outside the data path turned every
  // non-ok answer into a verdict: a table copy "not at SSP", a user
  // split block "absent" (so PermissionDenied), no superblock. One
  // injected kError on that Get must surface as Unavailable instead.
  World world(BatchedOpts(false));
  core::LocalNode root = core::LocalNode::Dir("", kAlice, kEng,
                                              World::ParseMode("rwxr-xr-x"));
  core::LocalNode shared = core::LocalNode::Dir(
      "shared", kAlice, kEng, World::ParseMode("rwxrwx---"));
  core::LocalNode acl_file = core::LocalNode::File(
      "for-carol.txt", kAlice, kEng, World::ParseMode("rw-r-----"),
      ToBytes("named in the ACL"));
  acl_file.acl.push_back(fs::AclEntry{fs::AclEntry::Kind::kUser, kCarol, 4});
  root.children.push_back(std::move(shared));
  root.children.push_back(std::move(acl_file));
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());

  // The table copy: /shared's view is warm, so Readdir's next request is
  // the table Get.
  auto& alice = world.client(kAlice);
  ASSERT_TRUE(alice.Getattr("/shared").ok());
  auto listed = WithOneFailedRequest(world, [&] {
    return alice.Readdir("/shared");
  });
  EXPECT_TRUE(listed.status().IsUnavailable()) << listed.status();
  EXPECT_TRUE(alice.Readdir("/shared").ok());

  // The user split block: the root table is warm, so carol's next
  // request is the Get of her split block for the ACL'd file.
  auto& carol = world.client(kCarol);
  ASSERT_TRUE(carol.Readdir("/").ok());
  auto read = WithOneFailedRequest(world, [&] {
    return carol.Read("/for-carol.txt");
  });
  EXPECT_TRUE(read.status().IsUnavailable()) << read.status();
  auto healed = carol.Read("/for-carol.txt");
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(*healed, ToBytes("named in the ACL"));

  // The superblock: Mount's first request.
  Status mounted = WithOneFailedRequest(world, [&] {
    return world.Mount(kBob);
  });
  EXPECT_TRUE(mounted.IsUnavailable()) << mounted;
  EXPECT_TRUE(world.Mount(kBob).ok());
}

TEST(BatchedReadTest, PrefetchedTransientFaultIsAMiss) {
  // A prefetched sub-response that failed transiently is not an answer:
  // its consumer fetches the object itself.
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  ASSERT_TRUE(alice.Getattr("/shared").ok());
  auto listed = WithOneFailedRequest(world, [&] {
    return alice.Readdir("/shared");
  });
  ASSERT_TRUE(listed.ok()) << listed.status();
  EXPECT_EQ(*listed, std::vector<std::string>{"plan.md"});
}

/// Wraps a channel and, when armed, rewrites one sub-response of the next
/// pure-read batch to kError — the per-sub-op transient fault shape the
/// retry layer must absorb for side-effect-free batches.
class SubErrorChannel : public ssp::SspChannel {
 public:
  explicit SubErrorChannel(ssp::SspChannel* inner) : inner_(inner) {}
  void Arm() { armed_ = true; }
  bool armed() const { return armed_; }

  Result<ssp::Response> Call(const ssp::Request& req) override {
    auto resp = inner_->Call(req);
    if (!resp.ok() || !armed_ || req.op != ssp::OpCode::kBatch) return resp;
    for (const ssp::Request& sub : req.batch) {
      if (ssp::IsMutatingOp(sub.op)) return resp;
    }
    if (!resp->batch.empty()) {
      armed_ = false;
      resp->batch.back().status = ssp::RespStatus::kError;
      resp->batch.back().payload.clear();
    }
    return resp;
  }

 private:
  ssp::SspChannel* inner_;  // Not owned.
  bool armed_ = false;
};

TEST(BatchedReadTest, ReadOnlyBatchSubErrorIsRetriedInPlace) {
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());

  // A hand-built alice over RetryingConnection -> SubErrorChannel ->
  // the world's in-process server.
  crypto::CryptoEngineOptions eng_opts;
  eng_opts.cost_model = crypto::CryptoCostModel::Zero();
  eng_opts.signing_key_bits = 512;
  eng_opts.rng_seed = 0x5B5B;
  crypto::CryptoEngine engine(&world.clock(), eng_opts);
  net::Transport transport(&world.clock(), net::NetworkModel::Zero());
  ssp::SspConnection real(&world.server(), &transport);
  SubErrorChannel flaky(&real);
  RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff_ms = 0;
  retry.jitter = 0;
  RetryingConnection conn(
      [&flaky]() -> Result<std::unique_ptr<ssp::SspChannel>> {
        // Non-owning pass-through: the retry layer may "reconnect", but
        // it always lands back on the same armed wrapper.
        struct Fwd : ssp::SspChannel {
          explicit Fwd(ssp::SspChannel* c) : c_(c) {}
          Result<ssp::Response> Call(const ssp::Request& req) override {
            return c_->Call(req);
          }
          ssp::SspChannel* c_;
        };
        return std::unique_ptr<ssp::SspChannel>(new Fwd(&flaky));
      },
      retry);
  ClientOptions copts;
  copts.scheme = Scheme::kScheme2;
  copts.default_group = kEng;
  SharoesClient alice(kAlice, world.user_key(kAlice), &world.identity(),
                      &conn, &engine, copts);
  ASSERT_TRUE(alice.Mount().ok());

  Bytes big = BlocksOfPattern(6, 5);
  CreateOptions fopts;
  fopts.mode = World::ParseMode("rw-rw----");
  ASSERT_TRUE(alice.Create("/shared/flaky.bin", fopts).ok());
  ASSERT_TRUE(alice.WriteFile("/shared/flaky.bin", big).ok());
  alice.DropCaches();

  auto* sub_retries = obs::MetricsRegistry::Global().counter(
      "client.retry.batch_sub_retries");
  uint64_t before = sub_retries->Value();
  flaky.Arm();
  auto content = alice.Read("/shared/flaky.bin");
  ASSERT_TRUE(content.ok()) << content.status();
  EXPECT_EQ(*content, big);
  EXPECT_FALSE(flaky.armed()) << "the fault was never injected";
  EXPECT_GT(sub_retries->Value(), before);
}

TEST(BatchedReadTest, WriteBufferKeysAreCanonical) {
  // Regression (the PR 5 bugfix): write_buffers_ used to key by the raw
  // path string, so "/shared//plan.md" and "/shared/plan.md" addressed
  // DIFFERENT buffers for the same file — a read through one spelling
  // missed dirty bytes written through the other.
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);

  Bytes v1 = ToBytes("spelled one way");
  ASSERT_TRUE(alice.Write("/shared//plan.md", v1).ok());
  // The buffer is visible through every spelling.
  auto got = alice.Read("/shared/plan.md");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, v1);
  auto attrs = alice.Getattr("/shared/plan.md/");
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, v1.size());

  // A second Write through another alias updates the SAME buffer, and a
  // Close through a third flushes it.
  Bytes v2 = ToBytes("spelled another way entirely");
  ASSERT_TRUE(alice.Write("/shared/plan.md/", v2).ok());
  ASSERT_TRUE(alice.Close("//shared/plan.md").ok());
  alice.DropCaches();
  got = alice.Read("/shared/plan.md");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, v2);
}

TEST(BatchedReadTest, RenameCarriesWriteBuffersAlong) {
  // Regression (the PR 5 bugfix): Rename left dirty buffers keyed by the
  // old path. A later Close of the new path flushed nothing, and a
  // recreate at the old path could inherit the stranded bytes.
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);

  // File rename: the buffer follows.
  Bytes plan = ToBytes("the moved plan");
  ASSERT_TRUE(alice.Write("/shared/plan.md", plan).ok());
  ASSERT_TRUE(alice.Rename("/shared/plan.md", "/shared/plan-v2.md").ok());
  ASSERT_TRUE(alice.Close("/shared/plan-v2.md").ok());
  alice.DropCaches();
  auto got = alice.Read("/shared/plan-v2.md");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, plan);

  // Directory rename: buffers for everything under it are re-keyed too.
  Bytes notes = ToBytes("buffered under a moving directory");
  ASSERT_TRUE(alice.Write("/home/alice/notes.txt", notes).ok());
  ASSERT_TRUE(alice.Rename("/home/alice", "/home/alice-new").ok());
  ASSERT_TRUE(alice.Close("/home/alice-new/notes.txt").ok());
  alice.DropCaches();
  got = alice.Read("/home/alice-new/notes.txt");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, notes);
}

TEST(BatchedReadTest, RoundTripAccountingMatchesTheWire) {
  // client.rpc.round_trips (the counter behind --rpc-stats and the
  // per-op histograms) must agree with what the transport actually saw.
  World world(BatchedOpts(true));
  ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
  auto& alice = world.client(kAlice);
  uint64_t wire_before = world.transport(kAlice).counters().round_trips;
  uint64_t client_before = alice.rpc_round_trips();
  alice.DropCaches();
  ASSERT_TRUE(alice.Read("/home/alice/notes.txt").ok());
  ASSERT_TRUE(alice.Readdir("/shared").ok());
  uint64_t wire_delta =
      world.transport(kAlice).counters().round_trips - wire_before;
  uint64_t client_delta = alice.rpc_round_trips() - client_before;
  EXPECT_EQ(client_delta, wire_delta);
  EXPECT_GT(client_delta, 0u);
}

}  // namespace
}  // namespace sharoes::core
