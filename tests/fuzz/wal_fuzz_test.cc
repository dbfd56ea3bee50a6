// Hostile-input coverage for WAL replay (mirrors deserialize_fuzz_test's
// posture): torn tails at every byte offset, bit-flips over every byte
// of a valid segment, length-field lies, garbage frames, CRC-valid but
// semantically invalid records, and directory-level chain violations.
//
// The invariants, from DESIGN.md §10:
//   1. Replay never crashes, whatever the bytes.
//   2. A record that fails validation is never applied to the store —
//      on any non-OK return the caller discards the store, and on an OK
//      return the store holds exactly a prefix of the original ops.
//   3. Damage consistent with a torn append (short header, body past
//      EOF, bad CRC on the final record) truncates silently — but only
//      in the final segment. Anything else is Status::Corruption, never
//      a silent truncation.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "ssp/object_store.h"
#include "ssp/wal.h"
#include "testing/scratch_dir.h"
#include "util/random.h"

namespace sharoes::ssp {
namespace {

using sharoes::testing::ScratchDir;

Status WriteFile(const std::string& path, const Bytes& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  size_t n = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  return n == data.size() ? Status::OK() : Status::IoError("short write");
}

/// A small, varied corpus of valid mutating ops.
std::vector<Request> CorpusOps() {
  std::vector<Request> ops;
  ops.push_back(Request::Put(ObjectKey::Metadata(7, 3), {1, 2, 3, 4}));
  ops.push_back(Request::Put(ObjectKey::Data(7, 0), Bytes(100, 0xAB)));
  ops.push_back(Request::Put(ObjectKey::Superblock(42), {9}));
  ops.push_back(Request::Delete(ObjectKey::Metadata(7, 3)));
  ops.push_back(Request::Put(ObjectKey::GroupKey(500, 42), {5, 6}));
  ops.push_back(Request::Put(ObjectKey::UserMetadata(7, 42), {7, 7, 7}));
  ops.push_back(Request::DeleteRange(ObjectFamily::kData, 9));
  // Cluster mutations: the writer-assigned version rides in the record.
  for (Request op : {Request::Put(ObjectKey::Data(8, 1), {4, 4}),
                     Request::Delete(ObjectKey::Data(8, 1)),
                     Request::DeleteRange(ObjectFamily::kData, 7)}) {
    op.version = {1000 + ops.size(), 3};
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Header + the given ops framed as records base_seq+1, base_seq+2, ...
Bytes BuildSegment(uint64_t base_seq, const std::vector<Request>& ops) {
  Bytes out = EncodeWalSegmentHeader(base_seq);
  uint64_t seq = base_seq;
  for (const Request& op : ops) {
    Bytes record = EncodeWalRecord(++seq, op.Serialize());
    out.insert(out.end(), record.begin(), record.end());
  }
  return out;
}

/// Serialized store states after applying each prefix of `ops` — the
/// complete set of legal post-replay states for any truncation of the
/// segment built from them.
std::vector<Bytes> PrefixStates(const std::vector<Request>& ops) {
  std::vector<Bytes> states;
  ObjectStore store;
  states.push_back(store.Serialize());
  for (const Request& op : ops) {
    EXPECT_TRUE(ApplyWalOp(op, &store).ok());
    states.push_back(store.Serialize());
  }
  return states;
}

bool IsPrefixState(const std::vector<Bytes>& states, const Bytes& got) {
  for (const Bytes& s : states) {
    if (s == got) return true;
  }
  return false;
}

TEST(WalFuzz, TornTailAtEveryByteOffset) {
  std::vector<Request> ops = CorpusOps();
  Bytes segment = BuildSegment(0, ops);
  std::vector<Bytes> legal = PrefixStates(ops);

  // Record boundaries (offsets where a truncation leaves only whole
  // records) — truncating there is a shorter but undamaged log.
  std::set<size_t> boundaries;
  {
    size_t off = kWalSegmentHeaderSize;
    boundaries.insert(off);
    uint64_t seq = 0;
    for (const Request& op : ops) {
      off += EncodeWalRecord(++seq, op.Serialize()).size();
      boundaries.insert(off);
    }
  }

  for (size_t cut = 0; cut <= segment.size(); ++cut) {
    Bytes torn(segment.begin(), segment.begin() + cut);
    ObjectStore store;
    auto replay = ReplayWalSegment(torn, 0, /*allow_torn_tail=*/true, &store);
    ASSERT_TRUE(replay.ok())
        << "cut at " << cut << ": " << replay.status()
        << " — a torn tail must truncate, not fail";
    EXPECT_EQ(replay->tail_truncated, boundaries.count(cut) == 0)
        << "cut at " << cut;
    EXPECT_LE(replay->valid_bytes, cut);
    EXPECT_TRUE(IsPrefixState(legal, store.Serialize()))
        << "cut at " << cut << " produced a non-prefix store";

    // The same damage mid-log (not the final segment) must refuse.
    if (boundaries.count(cut) == 0) {
      ObjectStore strict;
      auto mid = ReplayWalSegment(torn, 0, /*allow_torn_tail=*/false,
                                  &strict);
      EXPECT_FALSE(mid.ok()) << "cut at " << cut;
    }
  }
}

TEST(WalFuzz, BitFlipEveryByteNeverCrashesNeverAppliesCorrupt) {
  std::vector<Request> ops = CorpusOps();
  Bytes segment = BuildSegment(0, ops);
  std::vector<Bytes> legal = PrefixStates(ops);

  for (size_t pos = 0; pos < segment.size(); ++pos) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      Bytes mutated = segment;
      mutated[pos] ^= mask;
      for (bool allow_torn : {true, false}) {
        ObjectStore store;
        auto replay = ReplayWalSegment(mutated, 0, allow_torn, &store);
        if (replay.ok()) {
          // Whatever survived validation must be a clean prefix — a
          // flipped record that sneaked into the store would show up as
          // a state outside the prefix set.
          EXPECT_TRUE(IsPrefixState(legal, store.Serialize()))
              << "flip " << int(mask) << " at " << pos
              << " applied a corrupt record";
        } else {
          EXPECT_EQ(replay.status().code(), StatusCode::kCorruption)
              << "flip " << int(mask) << " at " << pos << ": "
              << replay.status();
        }
      }
    }
  }
}

TEST(WalFuzz, MidLogCrcDamageIsCorruptionNotTruncation) {
  std::vector<Request> ops = CorpusOps();
  Bytes segment = BuildSegment(0, ops);
  // Flip one payload byte of the FIRST record: its CRC fails but valid
  // bytes follow, which no torn append can produce. Even with torn
  // tails allowed this must be Corruption — silently truncating here
  // would discard every later (acknowledged) record.
  Bytes mutated = segment;
  mutated[kWalSegmentHeaderSize + kWalRecordHeaderSize + 4] ^= 0x01;
  ObjectStore store;
  auto replay = ReplayWalSegment(mutated, 0, /*allow_torn_tail=*/true,
                                 &store);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);
}

TEST(WalFuzz, BadCrcOnFinalRecordIsATornTail) {
  std::vector<Request> ops = CorpusOps();
  Bytes segment = BuildSegment(0, ops);
  Bytes mutated = segment;
  mutated.back() ^= 0x40;  // Damage inside the final record's payload.
  ObjectStore store;
  auto replay = ReplayWalSegment(mutated, 0, /*allow_torn_tail=*/true,
                                 &store);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay->tail_truncated);
  EXPECT_EQ(replay->applied, ops.size() - 1);
  // Mid-log position for the same bytes: refuse.
  ObjectStore strict;
  EXPECT_FALSE(
      ReplayWalSegment(mutated, 0, /*allow_torn_tail=*/false, &strict).ok());
}

TEST(WalFuzz, LengthLies) {
  Bytes header = EncodeWalSegmentHeader(0);
  // len < 8 can't even hold the sequence number: structural lie.
  for (uint32_t lie : {0u, 1u, 7u}) {
    Bytes frame = header;
    for (int i = 0; i < 4; ++i) frame.push_back((lie >> (8 * i)) & 0xFF);
    for (int i = 0; i < 4; ++i) frame.push_back(0);  // CRC, irrelevant.
    frame.insert(frame.end(), 16, 0xEE);
    for (bool allow_torn : {true, false}) {
      ObjectStore store;
      auto replay = ReplayWalSegment(frame, 0, allow_torn, &store);
      ASSERT_FALSE(replay.ok()) << "len=" << lie;
      EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);
    }
  }
  // len > the frame cap is a lie even when it points past EOF — a real
  // torn append can't have written a length the writer never produces.
  {
    uint32_t lie = kMaxWalRecordLen + 1;
    Bytes frame = header;
    for (int i = 0; i < 4; ++i) frame.push_back((lie >> (8 * i)) & 0xFF);
    for (int i = 0; i < 4; ++i) frame.push_back(0);
    ObjectStore store;
    auto replay = ReplayWalSegment(frame, 0, /*allow_torn_tail=*/true,
                                   &store);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);
  }
  // A *plausible* length that points past EOF is the classic torn
  // append: truncate when allowed, Corruption when not.
  {
    uint32_t lie = 1000;
    Bytes frame = header;
    for (int i = 0; i < 4; ++i) frame.push_back((lie >> (8 * i)) & 0xFF);
    for (int i = 0; i < 4; ++i) frame.push_back(0);
    frame.insert(frame.end(), 10, 0xEE);  // Far fewer than 1000 bytes.
    ObjectStore store;
    auto torn = ReplayWalSegment(frame, 0, /*allow_torn_tail=*/true, &store);
    ASSERT_TRUE(torn.ok()) << torn.status();
    EXPECT_TRUE(torn->tail_truncated);
    EXPECT_EQ(torn->applied, 0u);
    ObjectStore strict;
    EXPECT_FALSE(
        ReplayWalSegment(frame, 0, /*allow_torn_tail=*/false, &strict).ok());
  }
}

TEST(WalFuzz, CrcValidButSemanticallyInvalidRecordsRefuse) {
  // A correctly-framed record whose payload is garbage, or parses as a
  // non-mutating op, passed the CRC — this is not bit rot but a log that
  // was never written by our appender. Never apply, always Corruption,
  // even as the final record.
  for (const Bytes& payload :
       {Bytes{0xDE, 0xAD, 0xBE, 0xEF},                 // Unparseable.
        Request::Get(ObjectKey::Metadata(7, 3)).Serialize(),  // A read.
        Request::GetStats().Serialize(),               // Valid but admin.
        Request::Batch({Request::Put(ObjectKey::Metadata(1, 0), {1})})
            .Serialize()}) {                     // Batch wrapper.
    Bytes segment = EncodeWalSegmentHeader(0);
    Bytes record = EncodeWalRecord(1, payload);
    segment.insert(segment.end(), record.begin(), record.end());
    for (bool allow_torn : {true, false}) {
      ObjectStore store;
      auto replay = ReplayWalSegment(segment, 0, allow_torn, &store);
      ASSERT_FALSE(replay.ok());
      EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);
      EXPECT_EQ(store.Serialize(), ObjectStore().Serialize())
          << "a rejected record leaked into the store";
    }
  }
}

TEST(WalFuzz, SequenceDiscontinuityIsCorruption) {
  Bytes segment = EncodeWalSegmentHeader(0);
  Bytes r1 = EncodeWalRecord(
      1, Request::Put(ObjectKey::Metadata(1, 0), {1}).Serialize());
  Bytes r3 = EncodeWalRecord(
      3, Request::Put(ObjectKey::Metadata(2, 0), {2}).Serialize());
  segment.insert(segment.end(), r1.begin(), r1.end());
  segment.insert(segment.end(), r3.begin(), r3.end());  // Skips seq 2.
  ObjectStore store;
  auto replay = ReplayWalSegment(segment, 0, /*allow_torn_tail=*/true,
                                 &store);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);
}

TEST(WalFuzz, GarbageSegmentsNeverCrash) {
  // Pure noise, with and without a valid header prefix, across seeds.
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    size_t len = rng.NextBelow(4096);
    Bytes noise = rng.NextBytes(len);
    for (bool with_header : {false, true}) {
      Bytes input;
      if (with_header) input = EncodeWalSegmentHeader(rng.NextBelow(100));
      input.insert(input.end(), noise.begin(), noise.end());
      for (bool allow_torn : {true, false}) {
        ObjectStore store;
        auto replay = ReplayWalSegment(input, 0, allow_torn, &store);
        if (!replay.ok()) {
          EXPECT_EQ(replay.status().code(), StatusCode::kCorruption)
              << "seed " << seed;
        }
      }
    }
  }
}

// --- Directory-level recovery (Wal::Open) ----------------------------

TEST(WalFuzz, OpenRefusesTornTailInNonFinalSegment) {
  ScratchDir scratch("walfuzz_chain_torn");
  const std::string& dir = scratch.path();
  std::vector<Request> ops = CorpusOps();
  Bytes seg1 = BuildSegment(0, ops);
  seg1.resize(seg1.size() - 3);  // Torn — but a later segment exists.
  Bytes seg2 = BuildSegment(ops.size(),
                            {Request::Put(ObjectKey::Metadata(99, 0), {1})});
  ASSERT_TRUE(WriteFile(dir + "/wal-00000000000000000000.log", seg1).ok());
  ASSERT_TRUE(
      WriteFile(dir + "/wal-00000000000000000007.log", seg2).ok());
  ObjectStore store;
  auto wal = Wal::Open(dir, WalOptions{}, &store);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kCorruption);
}

TEST(WalFuzz, OpenRefusesSequenceGapBetweenSegments) {
  ScratchDir scratch("walfuzz_chain_gap");
  const std::string& dir = scratch.path();
  Bytes seg1 = BuildSegment(0, {Request::Put(ObjectKey::Metadata(1, 0), {1})});
  // Claims to start at 5, but recovery only reached 1: records 2-5 are
  // missing — refusing beats resurrecting a store with silent holes.
  Bytes seg2 = BuildSegment(5, {Request::Put(ObjectKey::Metadata(2, 0), {2})});
  ASSERT_TRUE(WriteFile(dir + "/wal-00000000000000000000.log", seg1).ok());
  ASSERT_TRUE(WriteFile(dir + "/wal-00000000000000000005.log", seg2).ok());
  ObjectStore store;
  auto wal = Wal::Open(dir, WalOptions{}, &store);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kCorruption);
}

TEST(WalFuzz, OpenTruncatesTornFinalSegmentAndKeepsAppending) {
  ScratchDir scratch("walfuzz_torn_continue");
  const std::string& dir = scratch.path();
  std::vector<Request> ops = CorpusOps();
  Bytes seg = BuildSegment(0, ops);
  seg.resize(seg.size() - 5);  // Tear the last record.
  ASSERT_TRUE(WriteFile(dir + "/wal-00000000000000000000.log", seg).ok());

  uint64_t recovered_seq;
  {
    ObjectStore store;
    auto wal = Wal::Open(dir, WalOptions{}, &store);
    ASSERT_TRUE(wal.ok()) << wal.status();
    EXPECT_TRUE((*wal)->recovery().tail_truncated);
    EXPECT_EQ((*wal)->recovery().records_applied, ops.size() - 1);
    recovered_seq = (*wal)->last_sequence();
    EXPECT_EQ(recovered_seq, ops.size() - 1);
    // The log keeps working after the truncation.
    ASSERT_TRUE(
        (*wal)->Append(Request::Put(ObjectKey::Metadata(50, 0), {5})).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // And a second recovery sees the truncated prefix plus the new record.
  ObjectStore store;
  auto wal = Wal::Open(dir, WalOptions{}, &store);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_FALSE((*wal)->recovery().tail_truncated);
  EXPECT_EQ((*wal)->last_sequence(), recovered_seq + 1);
  EXPECT_TRUE(store.Get(ObjectKey::Metadata(50, 0)).has_value());
}

TEST(WalFuzz, OpenRejectsCorruptSnapshot) {
  // Provision a real snapshot via compaction, then flip one byte of the
  // store image: the snapshot CRC must catch it and refuse recovery
  // rather than serve silently damaged objects.
  ScratchDir scratch("walfuzz_snap_flip");
  const std::string& dir = scratch.path();
  {
    ObjectStore store;
    auto wal = Wal::Open(dir, WalOptions{}, &store);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (const Request& op : CorpusOps()) {
      ASSERT_TRUE((*wal)->Append(op).ok());
      ASSERT_TRUE(ApplyWalOp(op, &store).ok());
    }
    ASSERT_TRUE((*wal)->Compact().ok());
  }
  std::string snap_path = dir + "/snapshot";
  std::FILE* f = std::fopen(snap_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  Bytes snap;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    snap.insert(snap.end(), buf, buf + n);
  }
  std::fclose(f);
  ASSERT_GT(snap.size(), 30u);
  snap[snap.size() / 2] ^= 0x10;
  ASSERT_TRUE(WriteFile(snap_path, snap).ok());

  ObjectStore store;
  auto wal = Wal::Open(dir, WalOptions{}, &store);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kCorruption);
}

/// Opens `dir` and expects the refusal an earlier on-disk version gets.
void ExpectUnsupported(const std::string& dir) {
  ObjectStore store;
  auto wal = Wal::Open(dir, WalOptions{}, &store);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kCorruption);
  EXPECT_NE(wal.status().ToString().find("unsupported"), std::string::npos)
      << wal.status();
}

TEST(WalFuzz, RefusesEarlierFormatVersions) {
  // Version-1 segments carried the per-family request encoding and
  // version-2 segments the replica-local store-generation extension;
  // both are refused, never replayed under the new decoder.
  for (uint32_t old_version : {1u, 2u}) {
    BinaryWriter w;
    w.PutU32(kWalMagic);
    w.PutU32(old_version);
    w.PutU64(0);
    Bytes seg = w.Take();
    Bytes record = EncodeWalRecord(
        1, Request::Put(ObjectKey::Metadata(1, 0), {1}).Serialize());
    seg.insert(seg.end(), record.begin(), record.end());
    ObjectStore store;
    auto replay = ReplayWalSegment(seg, 0, /*allow_torn_tail=*/true, &store);
    ASSERT_FALSE(replay.ok());
    EXPECT_NE(replay.status().ToString().find("unsupported"),
              std::string::npos);
    EXPECT_EQ(store.Stats().object_count, 0u);
    ScratchDir scratch("walfuzz_v" + std::to_string(old_version) +
                       "_segment");
    const std::string& dir = scratch.path();
    ASSERT_TRUE(WriteFile(dir + "/wal-00000000000000000000.log", seg).ok());
    ExpectUnsupported(dir);
  }
  // Version-1 and version-2 snapshot headers.
  for (uint8_t old_version : {uint8_t{1}, uint8_t{2}}) {
    ScratchDir scratch("walfuzz_v" + std::to_string(old_version) +
                       "_snapshot");
    const std::string& dir = scratch.path();
    {
      ObjectStore store;
      auto wal = Wal::Open(dir, WalOptions{}, &store);
      ASSERT_TRUE(wal.ok()) << wal.status();
      for (const Request& op : CorpusOps()) {
        ASSERT_TRUE((*wal)->Append(op).ok());
        ASSERT_TRUE(ApplyWalOp(op, &store).ok());
      }
      ASSERT_TRUE((*wal)->Compact().ok());
    }
    std::string snap_path = dir + "/snapshot";
    std::FILE* f = std::fopen(snap_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    // Little-endian version field.
    const uint8_t old[4] = {old_version, 0, 0, 0};
    ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(old, 1, 4, f), 4u);
    std::fclose(f);
    ExpectUnsupported(dir);
  }
  // A current snapshot header whose store image is an earlier format:
  // "SSP2" (five empty per-family sections) or "SSP3" (an empty map of
  // per-entry store generations).
  for (uint32_t image_magic : {0x53535032u, 0x53535033u}) {
    BinaryWriter image;
    image.PutU32(image_magic);
    if (image_magic == 0x53535032u) {
      for (int section = 0; section < 5; ++section) image.PutU32(0);
    } else {
      image.PutU64(0);
    }
    const Bytes body = image.Take();
    BinaryWriter w;
    w.PutU32(kWalSnapshotMagic);
    w.PutU32(kWalVersion);
    w.PutU64(0);
    w.PutU32(WalCrc32(body.data(), body.size()));
    w.PutRaw(body);
    ScratchDir scratch("walfuzz_image_" + std::to_string(image_magic));
    const std::string& dir = scratch.path();
    ASSERT_TRUE(WriteFile(dir + "/snapshot", w.Take()).ok());
    ExpectUnsupported(dir);
  }
}

}  // namespace
}  // namespace sharoes::ssp
