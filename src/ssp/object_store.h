// The SSP's storage: one hashtable of opaque encrypted blobs under typed
// keys ("it simply maintains a large hashtable for encrypted metadata
// objects and encrypted data blocks", paper §IV). Includes fault
// injection used by the integrity tests and storage accounting used by
// the Scheme-1 / Scheme-2 cost ablation.
//
// Versioning: every entry carries the Version (message.h) of the
// mutation that produced it. In a cluster every mutation is stamped by
// its writer, and a stamped put or delete applies iff its version is
// greater than the entry's; an equal version is the same mutation
// arriving again (a retry, a second quorum round, a repair) and is a
// no-op that reports success. That one gate makes the client's writes,
// read repair and the anti-entropy scrubber convergent and order-free.
// In cluster mode (tombstones enabled) a delete does not erase: it
// leaves a versioned tombstone, so a replica that was down through the
// delete can later be told, with a comparable version, that the key is
// dead (DESIGN.md §16). The single daemon sends unstamped mutations,
// which bump the entry locally to {prev.ts + 1, 0}; it leaves tombstones
// disabled and gets the classic erase semantics.
//
// Thread safety: the store is shard-striped. Keys are hash-partitioned
// by their k1 component over N shards (default 16), each guarded by its
// own std::shared_mutex; reads take shared locks, writes exclusive
// locks, and storage accounting lives in per-shard counters aggregated
// on Stats(). Partitioning by k1 keeps every object of one inode in one
// shard, so the ranged ops (DeleteRange, LiveCount) are single-shard.
// No operation ever holds more than one shard lock, so there is no
// lock-order concern (see DESIGN.md §7).

#ifndef SHAROES_SSP_OBJECT_STORE_H_
#define SHAROES_SSP_OBJECT_STORE_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "ssp/message.h"
#include "util/binary_io.h"
#include "util/bytes.h"
#include "util/result.h"

namespace sharoes::ssp {

/// Storage accounting by object family. Byte counters cover live blobs
/// only; tombstones (empty blobs by construction) are counted separately
/// so GC progress is observable.
struct StorageStats {
  std::array<uint64_t, kNumObjectFamilies> family_bytes{};
  uint64_t object_count = 0;
  uint64_t tombstone_count = 0;

  uint64_t bytes(ObjectFamily family) const {
    return family_bytes[static_cast<size_t>(family)];
  }
  uint64_t total_bytes() const {
    uint64_t total = 0;
    for (uint64_t b : family_bytes) total += b;
    return total;
  }
};

/// One entry as seen by the scrubber's enumeration.
struct ObjectVersion {
  ObjectKey key;
  Version version;
  bool tombstone = false;
};

/// Pure key-value storage; no knowledge of plaintext structure.
/// Safe for concurrent use from any number of threads.
class ObjectStore {
 public:
  static constexpr size_t kDefaultShards = 16;

  /// A versioned read result: live blob or tombstone, plus version.
  struct Versioned {
    Bytes blob;  // Empty for tombstones.
    Version version;
    bool tombstone = false;
  };

  /// `num_shards` == 1 degrades to a single global lock (the baseline
  /// measured by bench_concurrent_ssp).
  explicit ObjectStore(size_t num_shards = kDefaultShards);

  // Movable (needed by Result<ObjectStore>); not copyable. Moving is only
  // safe while no other thread is using either store.
  ObjectStore(ObjectStore&&) noexcept = default;
  ObjectStore& operator=(ObjectStore&&) noexcept = default;
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Cluster mode switch: deletes leave versioned tombstones instead of
  /// erasing. Flip before the store starts serving (plain bool, not
  /// atomic: it is configuration, set once at daemon startup / test
  /// setup, never mid-traffic).
  void set_tombstones_enabled(bool on) { tombstones_enabled_ = on; }
  bool tombstones_enabled() const { return tombstones_enabled_; }

  // Put, Delete and DeleteRange take the mutation's version. A stamped
  // version applies iff it is greater than the entry's (equal: already
  // applied, a no-op). The zero version is the single daemon's local
  // bump to {prev.ts + 1, 0}, which skips an op that would change
  // nothing so that replay leaves the store byte-identical. The bool
  // return is false only when a stamped op lost to a newer entry;
  // ordinary callers ignore it.
  bool Put(const ObjectKey& key, Bytes blob, Version version = {});
  /// The live blob; tombstones read as absent.
  std::optional<Bytes> Get(const ObjectKey& key) const;
  bool Delete(const ObjectKey& key, Version version = {});
  /// Deletes every object of `family` whose k1 is `k1` (every metadata
  /// replica, or every data block, of one inode). With tombstones on,
  /// each entry older than `version` becomes a tombstone at it (unstamped:
  /// each live entry at its own bump); keys this store never held get no
  /// tombstone.
  void DeleteRange(ObjectFamily family, uint64_t k1, Version version = {});
  /// Number of live (non-tombstone) objects of `family` under `k1`.
  size_t LiveCount(ObjectFamily family, uint64_t k1) const;

  /// Versioned read for the wire's want_version path and the scrubber:
  /// the entry (tombstones included, with their version) or nullopt if
  /// the key is absent entirely. `with_blob` false leaves the blob empty
  /// (a version-only probe copies no bytes).
  std::optional<Versioned> GetVersioned(const ObjectKey& key,
                                        bool with_blob = true) const;

  /// Every entry in the store, tombstones included, with versions.
  /// Snapshot-consistent per shard, not across shards — exactly what the
  /// scrubber needs for an anti-entropy pass (it re-checks each key
  /// against live replicas anyway).
  std::vector<ObjectVersion> ListVersions() const;

  /// Tombstone GC: removes the entry iff it is still a tombstone at
  /// exactly `version` (a concurrent re-create or newer delete aborts
  /// the purge). Returns whether it was removed. Deliberately NOT
  /// WAL-logged by callers: replay may resurrect a purged tombstone,
  /// which is harmless — the next full-quorum scrub pass re-collects it.
  bool RemoveTombstone(const ObjectKey& key, Version version);

  /// Aggregates the per-shard counters (shared-locking one shard at a
  /// time, so the result is a consistent per-shard but not cross-shard
  /// snapshot — fine for accounting).
  StorageStats Stats() const;

  size_t shard_count() const { return shards_.size(); }

  /// Whole-store snapshot/restore (the WAL's compaction image). The
  /// store only ever holds ciphertext, so the snapshot is as opaque to
  /// its holder as the live store is to the SSP. The snapshot is
  /// byte-deterministic (globally key-sorted) regardless of shard count,
  /// and carries every entry's version and tombstone flag.
  Bytes Serialize() const;
  static Result<ObjectStore> Deserialize(const Bytes& data);

  // --- Fault injection (the "malicious SSP" of the threat model) ---
  /// XORs `mask` into one byte of a stored blob. Returns false if the
  /// key is absent or holds no bytes.
  bool Corrupt(const ObjectKey& key, size_t offset, uint8_t mask = 0xFF);
  /// Replaces a live blob wholesale (rollback / substitution attack),
  /// keeping its version.
  bool Replace(const ObjectKey& key, Bytes blob);

 private:
  /// One stored value: blob + version + liveness. Tombstones keep an
  /// empty blob so the byte accounting needs no special cases.
  struct Entry {
    Bytes blob;
    Version version;
    bool tombstone = false;
  };

  // One stripe of the store. The map and the accounting counters are
  // guarded by `mu` (no atomics needed).
  struct Shard {
    mutable std::shared_mutex mu;
    std::map<ObjectKey, Entry> entries;
    StorageStats stats;
  };

  Shard& ShardFor(uint64_t k1) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  bool tombstones_enabled_ = false;
};

}  // namespace sharoes::ssp

#endif  // SHAROES_SSP_OBJECT_STORE_H_
