// Anti-entropy scrubber: the background repair loop of a replicated SSP
// cluster (DESIGN.md §16).
//
// Read repair only heals keys that clients happen to read. The scrubber
// closes the gap: each daemon periodically walks its own store
// (tombstones included) and converges every key it owns toward the
// freshest state among ALL K placement replicas (an R=K read: no stale
// copy can hide) — the reply with the greatest version (ssp::Freshest,
// the client's quorum-read rule too).
//
// A pass compares versions, not blobs, in two phases:
//   1. Probe. List the owned keys once and send each replica one kBatch
//      of version-only versioned Gets per kProbeChunk keys (this daemon
//      answers through SspServer::Handle, without the wire). A live hit
//      answers with its bare 16-byte version, so a clean pass moves no
//      blob bytes and costs ⌈owned / kProbeChunk⌉ calls per peer.
//   2. Judge and repair. Each key's probes are settled with Freshest and
//      RepairOp. Tombstone winners are re-deleted onto live stragglers
//      below them with no fetch. A live winner that some replica lacks
//      is fetched once, with a full versioned Get from the winning
//      replica (our own copy on a version tie), and re-put only if the
//      fetched version equals the probed one; otherwise the key changed
//      since the probe and the next pass re-judges it.
// Each repair carries the winner's own version, so the receiving store's
// version gate never lets it clobber a concurrent fresher write, and
// every local repair goes through SspServer::Handle so it is WAL-logged
// and survives restart.
//
// Tombstone GC: a tombstone may only be purged once it is provably
// redundant — when a FULL quorum pass (all K replicas actually replied;
// one unreachable node aborts the decision) shows every replica is
// tombstone-or-missing, i.e. nobody is left to resurrect the key. A
// failed probe batch counts every key in it unreachable, so it vetoes
// GC for all of them. Each daemon purges only its own local tombstone
// on its own pass; the purge is deliberately not WAL-logged (replay
// resurrecting a purged tombstone is harmless — the next full-quorum
// pass re-collects it). Repairs never push tombstones onto replicas
// that answered "missing": absence already agrees with deletion, and
// re-creating the tombstone would fight GC forever.
//
// Threading: RunOnce() is safe against live traffic (the store is
// shard-striped, Handle is thread-safe). Start() spawns one background
// thread running RunOnce() every interval; Stop() (or destruction) joins
// it promptly via an interruptible wait.

#ifndef SHAROES_SSP_SCRUB_H_
#define SHAROES_SSP_SCRUB_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "ssp/placement.h"
#include "ssp/ssp_server.h"

namespace sharoes::ssp {

/// What one anti-entropy pass did (also mirrored into the metrics
/// registry as ssp.scrub.{runs,examined,repaired,tombstones_gc,
/// unreachable}, with the pass's wall time in the ssp.scrub.pass_us
/// histogram).
struct ScrubPass {
  uint64_t examined = 0;       // Owned keys checked against all replicas.
  uint64_t repaired = 0;       // Versioned repair ops issued (local+remote).
  uint64_t tombstones_gc = 0;  // Local tombstones purged after full quorum.
  uint64_t unreachable = 0;    // (key, replica) probes that failed
                               // (each blocks that key's GC).
};

class Scrubber {
 public:
  /// Opens a channel to one peer daemon. Called lazily per pass (a pass
  /// caches its channels); may fail when the peer is down — the pass
  /// counts the replica unreachable and moves on.
  using PeerFactory =
      std::function<Result<std::unique_ptr<SspChannel>>(const ClusterNode&)>;

  /// Keys per version-probe kBatch. A legacy peer ignores the
  /// version-only flag and replies with full blobs; at this chunk that
  /// reply stays under net::kMaxFrame (64 MiB) while blobs average under
  /// 256 KiB, far above the client's 4 KiB data blocks.
  static constexpr size_t kProbeChunk = 256;

  /// `server`, `ring` and `peers` must outlive the scrubber. `node_id`
  /// is this daemon's cluster node id (the scrubber only examines keys
  /// the ring says this node replicates).
  Scrubber(SspServer* server, const PlacementRing* ring, uint32_t node_id,
           PeerFactory peers);
  ~Scrubber() { Stop(); }
  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// One full anti-entropy pass over every owned key, synchronously.
  ScrubPass RunOnce();

  /// Spawns the background loop: one RunOnce() every `interval_s`
  /// seconds (first pass after one interval, not immediately — a
  /// just-started daemon is busy replaying its WAL). No-op if already
  /// started or interval_s == 0.
  void Start(uint32_t interval_s);
  /// Joins the background thread. Safe to call twice; called by the
  /// destructor.
  void Stop();

 private:
  SspServer* server_;         // Not owned.
  const PlacementRing* ring_;  // Not owned.
  uint32_t node_id_;
  PeerFactory peers_;

  obs::Counter* runs_;
  obs::Counter* examined_;
  obs::Counter* repaired_;
  obs::Counter* tombstones_gc_;
  obs::Counter* unreachable_;
  obs::Histogram* pass_us_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace sharoes::ssp

#endif  // SHAROES_SSP_SCRUB_H_
