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

// Applies a put at `gen` (0 = bump the local generation). Returns false
// only on a gen-gated loss: the local entry is newer, or is a tombstone
// at the same generation (ties go to the tombstone — the property that
// keeps repair from resurrecting a freshly-deleted key). Caller holds
// the shard's exclusive lock.
template <typename Map>
bool PutEntry(Map& m, const ObjectKey& k, Bytes blob, uint64_t gen,
              StorageStats& st) {
  uint64_t& family_bytes = st.family_bytes[static_cast<size_t>(k.family)];
  auto [it, inserted] = m.try_emplace(k);
  auto& e = it->second;
  uint64_t new_gen;
  if (inserted) {
    new_gen = (gen == 0) ? 1 : gen;
    ++st.object_count;
  } else {
    if (gen == 0) {
      // A local-bump put that changes nothing is a no-op: replaying an
      // already-applied op (client retry, WAL replay) must leave the
      // store — generations included — byte-identical.
      if (!e.tombstone && e.blob == blob) return true;
      new_gen = e.gen + 1;
    } else {
      bool wins = e.tombstone ? (gen > e.gen) : (gen >= e.gen);
      if (!wins) return false;
      new_gen = gen;
    }
    if (e.tombstone) {
      --st.tombstone_count;
      ++st.object_count;
    } else {
      family_bytes -= e.blob.size();
    }
  }
  family_bytes += blob.size();
  e.blob = std::move(blob);
  e.gen = new_gen;
  e.tombstone = false;
  return true;
}

// Turns a live entry into a tombstone at `gen`, keeping the accounting.
template <typename EntryT>
void Entomb(EntryT& e, uint64_t gen, uint64_t& family_bytes,
            StorageStats& st) {
  family_bytes -= e.blob.size();
  --st.object_count;
  ++st.tombstone_count;
  e.blob = Bytes();
  e.tombstone = true;
  e.gen = gen;
}

// Applies a delete at `gen` (0 = bump). With tombstones off this is the
// classic erase; with them on, the entry becomes (or stays) a tombstone
// carrying the winning generation. Returns false only on a gen-gated
// loss (the local entry is strictly newer — a delete wins its tie, the
// mirror of PutEntry). Caller holds the shard's exclusive lock.
template <typename Map>
bool DeleteEntry(Map& m, const ObjectKey& k, uint64_t gen, bool tombstones,
                 StorageStats& st) {
  uint64_t& family_bytes = st.family_bytes[static_cast<size_t>(k.family)];
  auto it = m.find(k);
  if (it == m.end()) {
    if (tombstones) {
      // Deleting an absent key still records the death: a gen-gated
      // repair delete must land even on a replica that never saw the
      // value, or the scrubber could not converge the quorum.
      typename Map::mapped_type e;
      e.gen = (gen == 0) ? 1 : gen;
      e.tombstone = true;
      m.emplace(k, std::move(e));
      ++st.tombstone_count;
    }
    return true;
  }
  auto& e = it->second;
  if (gen != 0 && gen < e.gen) return false;
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
  uint64_t new_gen = (gen == 0) ? (e.tombstone ? e.gen : e.gen + 1) : gen;
  if (e.tombstone) {
    e.gen = new_gen;
  } else {
    Entomb(e, new_gen, family_bytes, st);
  }
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

bool ObjectStore::Put(const ObjectKey& key, Bytes blob, uint64_t gen) {
  Shard& s = ShardFor(key.k1);
  auto lock = AcquireUnique(s.mu);
  return PutEntry(s.entries, key, std::move(blob), gen, s.stats);
}

std::optional<Bytes> ObjectStore::Get(const ObjectKey& key) const {
  Shard& s = ShardFor(key.k1);
  auto lock = AcquireShared(s.mu);
  auto it = s.entries.find(key);
  if (it == s.entries.end() || it->second.tombstone) return std::nullopt;
  return it->second.blob;
}

bool ObjectStore::Delete(const ObjectKey& key, uint64_t gen) {
  Shard& s = ShardFor(key.k1);
  auto lock = AcquireUnique(s.mu);
  return DeleteEntry(s.entries, key, gen, tombstones_enabled_, s.stats);
}

void ObjectStore::DeleteRange(ObjectFamily family, uint64_t k1) {
  // With tombstones on, every live entry in the range becomes a
  // tombstone at its own bumped generation (existing tombstones are left
  // untouched). A key this node never stored gets no tombstone — quorum
  // intersection covers that case: any quorum-acked write of the missing
  // key shares at least one node with this delete's quorum (DESIGN.md
  // §16).
  Shard& s = ShardFor(k1);
  auto lock = AcquireUnique(s.mu);
  uint64_t& family_bytes = s.stats.family_bytes[static_cast<size_t>(family)];
  auto it = s.entries.lower_bound({family, k1, 0});
  while (it != s.entries.end() && it->first.family == family &&
         it->first.k1 == k1) {
    Entry& e = it->second;
    if (tombstones_enabled_) {
      if (!e.tombstone) Entomb(e, e.gen + 1, family_bytes, s.stats);
      ++it;
    } else {
      family_bytes -= e.blob.size();
      --s.stats.object_count;
      it = s.entries.erase(it);
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
    const ObjectKey& key) const {
  Shard& s = ShardFor(key.k1);
  auto lock = AcquireShared(s.mu);
  auto it = s.entries.find(key);
  if (it == s.entries.end()) return std::nullopt;
  return Versioned{it->second.blob, it->second.gen, it->second.tombstone};
}

std::vector<ObjectVersion> ObjectStore::ListVersions() const {
  std::vector<ObjectVersion> out;
  for (const auto& shard : shards_) {
    auto lock = AcquireShared(shard->mu);
    for (const auto& [key, e] : shard->entries) {
      out.push_back({key, e.gen, e.tombstone});
    }
  }
  return out;
}

bool ObjectStore::RemoveTombstone(const ObjectKey& key, uint64_t gen) {
  Shard& s = ShardFor(key.k1);
  auto lock = AcquireUnique(s.mu);
  auto it = s.entries.find(key);
  if (it == s.entries.end() || !it->second.tombstone ||
      it->second.gen != gen) {
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
// `family u8 | k1 u64 | k2 u64 | gen u64 | tombstone u8 | blob`.
// Earlier images (one section per family, "SSP1"/"SSP2") are refused.
constexpr uint32_t kStoreMagic = 0x53535033;     // "SSP3".
constexpr uint32_t kStoreMagicV1 = 0x53535031;   // "SSP1".
constexpr uint32_t kStoreMagicV2 = 0x53535032;   // "SSP2".
// family + k1 + k2 + gen + tombstone + blob length.
constexpr size_t kMinEntryWire = 1 + 8 + 8 + 8 + 1 + 4;

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
    w.PutU64(e.gen);
    w.PutU8(e.tombstone ? 1 : 0);
    w.PutBytes(e.blob);
  }
  return w.Take();
}

Result<ObjectStore> ObjectStore::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  uint32_t magic = r.GetU32();
  if (magic == kStoreMagicV1 || magic == kStoreMagicV2) {
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
    e.gen = r.GetU64();
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
