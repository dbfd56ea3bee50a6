#include "ssp/object_store.h"

#include <mutex>
#include <utility>

#include "obs/span.h"

namespace sharoes::ssp {

namespace {

// splitmix64 finalizer: cheap, well-distributed shard partitioning even
// for sequential inode / user ids.
uint64_t MixKey(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Shard lock helpers: time blocked acquiring the shard lock is charged
// to the kLockWait span phase (no-op without an active timeline); time
// spent *holding* it accrues to the enclosing phase, normally kStore.
// The PhaseScope outlives the return-value construction, so the scope
// brackets exactly the mutex acquisition.
std::unique_lock<std::shared_mutex> AcquireUnique(std::shared_mutex& mu) {
  obs::PhaseScope wait(obs::Phase::kLockWait);
  return std::unique_lock<std::shared_mutex>(mu);
}

std::shared_lock<std::shared_mutex> AcquireShared(std::shared_mutex& mu) {
  obs::PhaseScope wait(obs::Phase::kLockWait);
  return std::shared_lock<std::shared_mutex>(mu);
}

}  // namespace

namespace {

// The version an op gives the entry it applies to: its own when stamped,
// else the single daemon's local bump of the entry's current version.
Version Applied(Version version, const Version& current) {
  return version.stamped() ? version : Version{current.ts + 1, 0};
}

// Applies a put. A stamped put applies iff its version is greater than
// the entry's; an equal version is the same put arriving again. Returns
// false only when a stamped put lost to a newer entry. Caller holds the
// shard's exclusive lock.
template <typename Map>
bool PutEntry(Map& m, const ObjectKey& k, Bytes blob, Version version,
              StorageStats& st) {
  uint64_t& family_bytes = st.family_bytes[static_cast<size_t>(k.family)];
  auto [it, inserted] = m.try_emplace(k);
  auto& e = it->second;
  if (inserted) {
    ++st.object_count;
  } else {
    if (version.stamped()) {
      if (version <= e.version) return version == e.version;
    } else if (!e.tombstone && e.blob == blob) {
      // A local-bump put that changes nothing is a no-op: replaying an
      // already-applied op (client retry, WAL replay) must leave the
      // store — versions included — byte-identical.
      return true;
    }
    if (e.tombstone) {
      --st.tombstone_count;
      ++st.object_count;
    } else {
      family_bytes -= e.blob.size();
    }
  }
  family_bytes += blob.size();
  e.version = Applied(version, e.version);
  e.blob = std::move(blob);
  e.tombstone = false;
  return true;
}

// Turns a live entry into a tombstone at `version`, keeping the
// accounting.
template <typename EntryT>
void Entomb(EntryT& e, Version version, uint64_t& family_bytes,
            StorageStats& st) {
  family_bytes -= e.blob.size();
  --st.object_count;
  ++st.tombstone_count;
  e.blob = Bytes();
  e.tombstone = true;
  e.version = version;
}

// Applies a delete, gated exactly like PutEntry. With tombstones off this
// is the classic erase; with them on, the entry becomes (or stays) a
// tombstone at the delete's version. Caller holds the shard's exclusive
// lock.
template <typename Map>
bool DeleteEntry(Map& m, const ObjectKey& k, Version version, bool tombstones,
                 StorageStats& st) {
  uint64_t& family_bytes = st.family_bytes[static_cast<size_t>(k.family)];
  auto it = m.find(k);
  if (it == m.end()) {
    if (tombstones) {
      // Deleting an absent key still records the death: a repair delete
      // must land even on a replica that never saw the value, or the
      // scrubber could not converge the quorum.
      typename Map::mapped_type e;
      e.version = Applied(version, Version{});
      e.tombstone = true;
      m.emplace(k, std::move(e));
      ++st.tombstone_count;
    }
    return true;
  }
  auto& e = it->second;
  if (version.stamped() && version <= e.version) return version == e.version;
  if (!tombstones) {
    if (e.tombstone) {
      --st.tombstone_count;
    } else {
      family_bytes -= e.blob.size();
      --st.object_count;
    }
    m.erase(it);
    return true;
  }
  if (!e.tombstone) {
    Entomb(e, Applied(version, e.version), family_bytes, st);
  } else if (version.stamped()) {
    e.version = version;
  }  // A local-bump delete of a dead key changes nothing.
  return true;
}

}  // namespace

ObjectStore::ObjectStore(size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ObjectStore::Shard& ObjectStore::ShardFor(uint64_t k1) const {
  return *shards_[MixKey(k1) % shards_.size()];
}

bool ObjectStore::Put(const ObjectKey& key, Bytes blob, Version version) {
  Shard& s = ShardFor(key.k1);
  auto lock = AcquireUnique(s.mu);
  return PutEntry(s.entries, key, std::move(blob), version, s.stats);
}

std::optional<Bytes> ObjectStore::Get(const ObjectKey& key) const {
  Shard& s = ShardFor(key.k1);
  auto lock = AcquireShared(s.mu);
  auto it = s.entries.find(key);
  if (it == s.entries.end() || it->second.tombstone) return std::nullopt;
  return it->second.blob;
}

bool ObjectStore::Delete(const ObjectKey& key, Version version) {
  Shard& s = ShardFor(key.k1);
  auto lock = AcquireUnique(s.mu);
  return DeleteEntry(s.entries, key, version, tombstones_enabled_, s.stats);
}

void ObjectStore::DeleteRange(ObjectFamily family, uint64_t k1,
                              Version version) {
  // With tombstones on, every entry in the range older than a stamped
  // `version` becomes a tombstone at it; newer entries (a re-create
  // that outran this delete) are spared. Unstamped, every live entry is
  // entombed at its own bump. A key this node never stored gets no
  // tombstone — quorum intersection covers that case: any quorum-acked
  // write of the missing key shares at least one node with this delete's
  // quorum (DESIGN.md §16).
  Shard& s = ShardFor(k1);
  auto lock = AcquireUnique(s.mu);
  uint64_t& family_bytes = s.stats.family_bytes[static_cast<size_t>(family)];
  auto it = s.entries.lower_bound({family, k1, 0});
  while (it != s.entries.end() && it->first.family == family &&
         it->first.k1 == k1) {
    Entry& e = it->second;
    if (version.stamped() && version <= e.version) {
      ++it;
    } else if (!tombstones_enabled_) {
      family_bytes -= e.blob.size();
      --s.stats.object_count;
      it = s.entries.erase(it);
    } else {
      if (!e.tombstone) {
        Entomb(e, Applied(version, e.version), family_bytes, s.stats);
      } else if (version.stamped()) {
        e.version = version;
      }
      ++it;
    }
  }
}

size_t ObjectStore::LiveCount(ObjectFamily family, uint64_t k1) const {
  Shard& s = ShardFor(k1);
  auto lock = AcquireShared(s.mu);
  size_t n = 0;
  for (auto it = s.entries.lower_bound({family, k1, 0});
       it != s.entries.end() && it->first.family == family &&
       it->first.k1 == k1;
       ++it) {
    if (!it->second.tombstone) ++n;
  }
  return n;
}

std::optional<ObjectStore::Versioned> ObjectStore::GetVersioned(
    const ObjectKey& key, bool with_blob) const {
  Shard& s = ShardFor(key.k1);
  auto lock = AcquireShared(s.mu);
  auto it = s.entries.find(key);
  if (it == s.entries.end()) return std::nullopt;
  return Versioned{with_blob ? it->second.blob : Bytes{}, it->second.version,
                   it->second.tombstone};
}

std::vector<ObjectVersion> ObjectStore::ListVersions() const {
  std::vector<ObjectVersion> out;
  for (const auto& shard : shards_) {
    auto lock = AcquireShared(shard->mu);
    for (const auto& [key, e] : shard->entries) {
      out.push_back({key, e.version, e.tombstone});
    }
  }
  return out;
}

bool ObjectStore::RemoveTombstone(const ObjectKey& key, Version version) {
  Shard& s = ShardFor(key.k1);
  auto lock = AcquireUnique(s.mu);
  auto it = s.entries.find(key);
  if (it == s.entries.end() || !it->second.tombstone ||
      it->second.version != version) {
    return false;
  }
  --s.stats.tombstone_count;
  s.entries.erase(it);
  return true;
}

StorageStats ObjectStore::Stats() const {
  StorageStats total;
  for (const auto& shard : shards_) {
    auto lock = AcquireShared(shard->mu);
    const StorageStats& s = shard->stats;
    for (size_t f = 0; f < kNumObjectFamilies; ++f) {
      total.family_bytes[f] += s.family_bytes[f];
    }
    total.object_count += s.object_count;
    total.tombstone_count += s.tombstone_count;
  }
  return total;
}

namespace {

// Snapshot image: magic, entry count, then per entry in key order
// `family u8 | k1 u64 | k2 u64 | ts u64 | writer u64 | tombstone u8 |
// blob`. Earlier images are refused: "SSP1"/"SSP2" had one section per
// family, "SSP3" a replica-local u64 generation per entry.
constexpr uint32_t kStoreMagic = 0x53535034;  // "SSP4".
constexpr uint32_t kStoreMagicFirst = 0x53535031;  // "SSP1".
// family + k1 + k2 + ts + writer + tombstone + blob length.
constexpr size_t kMinEntryWire = 1 + 8 + 8 + 8 + 8 + 1 + 4;

}  // namespace

Bytes ObjectStore::Serialize() const {
  std::map<ObjectKey, Entry> sorted;
  for (const auto& shard : shards_) {
    auto lock = AcquireShared(shard->mu);
    sorted.insert(shard->entries.begin(), shard->entries.end());
  }
  BinaryWriter w;
  w.PutU32(kStoreMagic);
  w.PutU64(sorted.size());
  for (const auto& [key, e] : sorted) {
    w.PutU8(static_cast<uint8_t>(key.family));
    w.PutU64(key.k1);
    w.PutU64(key.k2);
    w.PutU64(e.version.ts);
    w.PutU64(e.version.writer);
    w.PutU8(e.tombstone ? 1 : 0);
    w.PutBytes(e.blob);
  }
  return w.Take();
}

Result<ObjectStore> ObjectStore::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  uint32_t magic = r.GetU32();
  if (magic >= kStoreMagicFirst && magic < kStoreMagic) {
    return Status::Corruption("unsupported store snapshot version");
  }
  if (!r.ok() || magic != kStoreMagic) {
    return Status::Corruption("not an SSP store snapshot");
  }
  uint64_t n = r.GetU64();
  if (!r.ok() || n > r.remaining() / kMinEntryWire) {
    return Status::Corruption("truncated store snapshot");
  }
  ObjectStore store;
  for (uint64_t i = 0; i < n; ++i) {
    ObjectKey key;
    key.family = static_cast<ObjectFamily>(r.GetU8());
    key.k1 = r.GetU64();
    key.k2 = r.GetU64();
    Entry e;
    e.version.ts = r.GetU64();
    e.version.writer = r.GetU64();
    e.tombstone = r.GetU8() != 0;
    e.blob = r.GetBytes();
    if (!r.ok()) return Status::Corruption("truncated store snapshot");
    if (!key.Valid()) return Status::Corruption("invalid key in snapshot");
    Shard& s = store.ShardFor(key.k1);
    if (e.tombstone) {
      ++s.stats.tombstone_count;
    } else {
      ++s.stats.object_count;
      s.stats.family_bytes[static_cast<size_t>(key.family)] += e.blob.size();
    }
    s.entries[key] = std::move(e);
  }
  SHAROES_RETURN_IF_ERROR(r.Finish("store snapshot"));
  return store;
}

bool ObjectStore::Corrupt(const ObjectKey& key, size_t offset, uint8_t mask) {
  Shard& s = ShardFor(key.k1);
  auto lock = AcquireUnique(s.mu);
  auto it = s.entries.find(key);
  if (it == s.entries.end() || it->second.blob.empty()) return false;
  it->second.blob[offset % it->second.blob.size()] ^= mask;
  return true;
}

bool ObjectStore::Replace(const ObjectKey& key, Bytes blob) {
  Shard& s = ShardFor(key.k1);
  auto lock = AcquireUnique(s.mu);
  auto it = s.entries.find(key);
  if (it == s.entries.end() || it->second.tombstone) return false;
  uint64_t& family_bytes = s.stats.family_bytes[static_cast<size_t>(
      key.family)];
  family_bytes -= it->second.blob.size();
  family_bytes += blob.size();
  it->second.blob = std::move(blob);
  return true;
}

}  // namespace sharoes::ssp
