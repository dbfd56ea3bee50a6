// Regression tests of the scrubber's two-phase pass (ssp/scrub.h): one
// version-only kBatch per kProbeChunk keys per replica, then a blob
// fetch only where a live winner must be re-put.
//
//   1. A clean pass makes at most ⌈owned / kProbeChunk⌉ calls per peer
//      and receives no blob bytes (a one-call-per-key, full-blob pass
//      fails both bounds).
//   2. A stale replica gets the winner's exact bytes at the winner's
//      exact version, fetched from a remote winner.
//   3. A winner rewritten between probe and fetch is not repaired at the
//      probed version with the newer bytes; the next pass converges.
//   4. One peer's failed probe batch counts every key in it unreachable
//      and vetoes tombstone GC for all of them.
//   5. The pass counters and the pass-time histogram reach kGetStats.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "obs/metrics.h"
#include "ssp/message.h"
#include "ssp/scrub.h"
#include "testing/mem_cluster.h"

namespace sharoes::ssp {
namespace {

using testing::MemCluster;

constexpr Version kV1{10, 1};
constexpr Version kV2{20, 2};
constexpr Version kV3{30, 3};

Bytes Blob(uint64_t tag, size_t size = 64) {
  Bytes blob(size);
  for (size_t i = 0; i < size; ++i) {
    blob[i] = static_cast<uint8_t>((tag * 131 + i * 17) & 0xFF);
  }
  return blob;
}

/// Blob bytes in a reply: payload beyond the 16-byte version of every
/// versioned shape, summed over batch sub-replies.
uint64_t BlobBytes(const Response& resp) {
  uint64_t bytes = resp.payload.size() > 16 ? resp.payload.size() - 16 : 0;
  for (const Response& sub : resp.batch) bytes += BlobBytes(sub);
  return bytes;
}

TEST(ScrubProbe, CleanPassIsChunkedAndMovesNoBlobBytes) {
  MemCluster cluster;
  // Enough keys for three probe chunks per peer.
  const uint64_t keys = 2 * Scrubber::kProbeChunk + 10;
  for (uint64_t k = 0; k < keys; ++k) {
    for (uint32_t n = 0; n < 3; ++n) {
      cluster.Put(n, ObjectKey::Data(1000 + k, 0), Blob(k), kV1);
    }
  }
  std::map<uint32_t, uint64_t> calls, blob_bytes;
  auto count = [&](uint32_t node, const Request& req,
                   SspChannel* inner) -> Result<Response> {
    auto resp = inner->Call(req);
    ++calls[node];
    if (resp.ok()) blob_bytes[node] += BlobBytes(*resp);
    return resp;
  };
  ScrubPass pass = cluster.MakeScrubber(0, count)->RunOnce();
  EXPECT_EQ(pass.examined, keys);
  EXPECT_EQ(pass.repaired, 0u);
  EXPECT_EQ(pass.unreachable, 0u);
  const uint64_t chunks =
      (keys + Scrubber::kProbeChunk - 1) / Scrubber::kProbeChunk;
  for (uint32_t peer : {1u, 2u}) {
    EXPECT_LE(calls[peer], chunks) << "peer " << peer;
    EXPECT_GT(calls[peer], 0u) << "peer " << peer << " was never probed";
    EXPECT_EQ(blob_bytes[peer], 0u) << "peer " << peer << " shipped blobs";
  }
}

TEST(ScrubProbe, StaleReplicaGetsTheWinnersExactBytesAndVersion) {
  MemCluster cluster;
  const ObjectKey key = ObjectKey::Data(7, 0);
  const Bytes winner = Blob(2, 5000);
  cluster.Put(0, key, winner, kV2);
  cluster.Put(1, key, Blob(1), kV1);
  cluster.Put(2, key, Blob(1), kV1);
  // Node 2 scrubs, so the winning blob lives only on a remote peer.
  ScrubPass pass = cluster.MakeScrubber(2)->RunOnce();
  EXPECT_EQ(pass.repaired, 2u);
  for (uint32_t n = 0; n < 3; ++n) {
    auto copy = cluster.Copy(n, key);
    ASSERT_TRUE(copy.has_value()) << "node " << n;
    EXPECT_FALSE(copy->tombstone);
    EXPECT_EQ(copy->blob, winner) << "node " << n;
    EXPECT_EQ(copy->version, kV2) << "node " << n;
  }
  // Converged: the next pass finds nothing to do.
  EXPECT_EQ(cluster.MakeScrubber(2)->RunOnce().repaired, 0u);
}

TEST(ScrubProbe, WinnerRewrittenBetweenProbeAndFetchIsNotMisrepaired) {
  MemCluster cluster;
  const ObjectKey key = ObjectKey::Data(9, 0);
  const Bytes probed = Blob(2);
  const Bytes rewritten = Blob(3);
  cluster.Put(0, key, Blob(1), kV1);
  cluster.Put(1, key, probed, kV2);
  cluster.Put(2, key, Blob(1), kV1);
  // Node 1 answers its first call (the probe), then takes a write at v3
  // before anything else reaches it.
  int node1_calls = 0;
  auto rewrite = [&](uint32_t node, const Request& req,
                     SspChannel* inner) -> Result<Response> {
    auto resp = inner->Call(req);
    if (node == 1 && ++node1_calls == 1) cluster.Put(1, key, rewritten, kV3);
    return resp;
  };
  ScrubPass pass = cluster.MakeScrubber(0, rewrite)->RunOnce();
  EXPECT_EQ(pass.repaired, 0u) << "repaired from a fetch at another version";
  for (uint32_t n : {0u, 2u}) {
    auto copy = cluster.Copy(n, key);
    ASSERT_TRUE(copy.has_value());
    EXPECT_EQ(copy->version, kV1) << "node " << n;
    EXPECT_EQ(copy->blob, Blob(1)) << "node " << n;
  }
  // The next pass re-judges the key and converges on v3.
  ScrubPass next = cluster.MakeScrubber(0)->RunOnce();
  EXPECT_EQ(next.repaired, 2u);
  for (uint32_t n = 0; n < 3; ++n) {
    auto copy = cluster.Copy(n, key);
    ASSERT_TRUE(copy.has_value());
    EXPECT_EQ(copy->version, kV3) << "node " << n;
    EXPECT_EQ(copy->blob, rewritten) << "node " << n;
  }
}

TEST(ScrubProbe, FailedBatchVetoesGcForEveryKeyInIt) {
  MemCluster cluster;
  constexpr uint64_t kKeys = 5;
  for (uint64_t k = 0; k < kKeys; ++k) {
    for (uint32_t n = 0; n < 3; ++n) {
      cluster.Delete(n, ObjectKey::Data(500 + k, 0), kV2);
    }
  }
  auto node2_down = [](uint32_t node, const Request& req,
                       SspChannel* inner) -> Result<Response> {
    if (node == 2) return Status::IoError("peer down");
    return inner->Call(req);
  };
  ScrubPass pass = cluster.MakeScrubber(0, node2_down)->RunOnce();
  EXPECT_EQ(pass.examined, kKeys);
  EXPECT_EQ(pass.unreachable, kKeys) << "one per (key, replica)";
  EXPECT_EQ(pass.tombstones_gc, 0u) << "GC without a full quorum";
  EXPECT_EQ(cluster.server(0)->store().Stats().tombstone_count, kKeys);

  // A batch answered kError (well-formed but not executed) vetoes too.
  auto node1_errors = [](uint32_t node, const Request& req,
                         SspChannel* inner) -> Result<Response> {
    if (node == 1) return Response::Error();
    return inner->Call(req);
  };
  pass = cluster.MakeScrubber(0, node1_errors)->RunOnce();
  EXPECT_EQ(pass.unreachable, kKeys);
  EXPECT_EQ(pass.tombstones_gc, 0u);

  // Control: with every peer up the same pass GCs all of them.
  pass = cluster.MakeScrubber(0)->RunOnce();
  EXPECT_EQ(pass.unreachable, 0u);
  EXPECT_EQ(pass.tombstones_gc, kKeys);
  EXPECT_EQ(cluster.server(0)->store().Stats().tombstone_count, 0u);
}

TEST(ScrubProbe, PassCountersAndTimeReachGetStats) {
  MemCluster cluster;
  auto stats = [&]() {
    Request req = Request::GetStats("ssp.scrub.");
    req.binary_stats = true;
    Response resp = cluster.server(0)->Handle(req);
    EXPECT_EQ(resp.status, RespStatus::kOk);
    auto snap = obs::RegistrySnapshot::DeserializeBinary(resp.payload);
    EXPECT_TRUE(snap.ok()) << snap.status();
    return snap.ok() ? *snap : obs::RegistrySnapshot{};
  };
  for (uint64_t k = 0; k < 3; ++k) {
    for (uint32_t n = 0; n < 3; ++n) {
      cluster.Put(n, ObjectKey::Data(700 + k, 0), Blob(k), kV1);
    }
  }
  auto node1_down = [](uint32_t node, const Request& req,
                       SspChannel* inner) -> Result<Response> {
    if (node == 1) return Status::IoError("peer down");
    return inner->Call(req);
  };
  const obs::RegistrySnapshot before = stats();
  ScrubPass pass = cluster.MakeScrubber(0, node1_down)->RunOnce();
  const obs::RegistrySnapshot after = stats();
  ASSERT_EQ(pass.examined, 3u);
  ASSERT_EQ(pass.unreachable, 3u);
  auto delta = [&](const char* name) {
    auto counter = [&](const obs::RegistrySnapshot& s) {
      auto it = s.counters.find(name);
      return it == s.counters.end() ? 0 : it->second;
    };
    return counter(after) - counter(before);
  };
  EXPECT_EQ(delta("ssp.scrub.runs"), 1u);
  EXPECT_EQ(delta("ssp.scrub.examined"), 3u);
  EXPECT_EQ(delta("ssp.scrub.unreachable"), 3u);
  EXPECT_EQ(delta("ssp.scrub.repaired"), 0u);
  ASSERT_EQ(after.histograms.count("ssp.scrub.pass_us"), 1u);
  const uint64_t passes_before =
      before.histograms.count("ssp.scrub.pass_us")
          ? before.histograms.at("ssp.scrub.pass_us").count
          : 0;
  EXPECT_EQ(after.histograms.at("ssp.scrub.pass_us").count, passes_before + 1);
}

}  // namespace
}  // namespace sharoes::ssp
