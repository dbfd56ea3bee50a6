// The client <-> SSP wire protocol.
//
// The SSP performs no computation on data (paper §IV): it is one
// hashtable of encrypted blobs. Every blob sits under a typed ObjectKey
// (an object family plus two integer components), and the protocol has
// only get/put/delete verbs on such keys, a ranged delete, a batch
// wrapper that lets a client combine the multiple replica writes of one
// logical operation into one round trip ("metadata send" / "parent-dir
// send" in the paper's Figure 8), and two read-only admin verbs.
//
// In a replicated cluster every mutation carries a writer-assigned
// Version (a hybrid-logical-clock timestamp plus the writer's id), and
// the freshest copy of a key is simply the reply with the greatest
// version (Freshest below). A single daemon never sees versions: an
// unstamped request serializes byte-identically to the pre-version wire.

#ifndef SHAROES_SSP_MESSAGE_H_
#define SHAROES_SSP_MESSAGE_H_

#include <algorithm>
#include <compare>
#include <optional>
#include <string>
#include <vector>

#include "fs/types.h"
#include "util/binary_io.h"
#include "util/result.h"

namespace sharoes::ssp {

/// Replica selector: which copy of an inode's metadata. Scheme-2 uses a
/// CAP id, Scheme-1 a hash of the user id; the baselines use selector 0.
using Selector = uint64_t;

/// The object families. The store treats every family alike; the family
/// only fixes how wide each key component may be (ObjectKey::Valid) and
/// which placement domain the key routes in (RoutingKeyOf).
enum class ObjectFamily : uint8_t {
  kSuperblock = 0,    // k1 = user (u32),  k2 = 0.
  kMetadata = 1,      // k1 = inode,       k2 = selector.
  kUserMetadata = 2,  // k1 = inode,       k2 = user (u32; split points).
  kData = 3,          // k1 = inode,       k2 = block (u32).
  kGroupKey = 4,      // k1 = group (u32), k2 = user (u32).
};
inline constexpr size_t kNumObjectFamilies = 5;

/// The key of one stored object. Keys order by (family, k1, k2), so all
/// of one inode's objects of one family are contiguous — the property
/// the ranged delete and the store's inode-colocated shards rest on.
struct ObjectKey {
  ObjectFamily family = ObjectFamily::kData;
  uint64_t k1 = 0;
  uint64_t k2 = 0;

  static ObjectKey Superblock(uint32_t user) {
    return {ObjectFamily::kSuperblock, user, 0};
  }
  static ObjectKey Metadata(fs::InodeNum inode, Selector sel) {
    return {ObjectFamily::kMetadata, inode, sel};
  }
  static ObjectKey UserMetadata(fs::InodeNum inode, uint32_t user) {
    return {ObjectFamily::kUserMetadata, inode, user};
  }
  static ObjectKey Data(fs::InodeNum inode, uint32_t block) {
    return {ObjectFamily::kData, inode, block};
  }
  static ObjectKey GroupKey(uint32_t group, uint32_t user) {
    return {ObjectFamily::kGroupKey, group, user};
  }

  /// True iff the family is known and every component fits its slot:
  /// u32 slots (users, groups, blocks) stay below 2^32 and a superblock
  /// has k2 == 0. Deserialize rejects any other key, so a 64-bit k1 can
  /// never reach the placement domain bits RoutingKeyOf sets.
  bool Valid() const;

  auto operator<=>(const ObjectKey&) const = default;
};

/// The writer-assigned version of one mutation, ordered
/// lexicographically: `ts` from the writer's hybrid logical clock, then
/// the writer's id to break the tie between two writers that stamped
/// the same tick. Versions are unique per mutation, so two copies at the
/// same version hold the same state. The zero version means "unstamped"
/// on a request and "never stored" on a reply; a single daemon's local
/// bumps produce {prev.ts + 1, 0}.
struct Version {
  uint64_t ts = 0;
  uint64_t writer = 0;

  bool stamped() const { return ts != 0 || writer != 0; }
  auto operator<=>(const Version&) const = default;
};

enum class OpCode : uint8_t {
  kGet = 0,
  kPut = 1,
  kDelete = 2,
  kDeleteRange = 3,  // Every object of (key.family, key.k1); k2 unused.
  kBatch = 4,
  kGetStats = 5,   // Admin: metrics-registry snapshot (JSON). An optional
                   // payload is a metric-name prefix filter ("ssp.wal").
  kGetTraces = 6,  // Admin: captured slow-request span timelines (JSON,
                   // see obs/span.h). Read-only, like kGetStats.
};

/// One past the largest valid OpCode (array sizing, validity checks).
inline constexpr size_t kNumOpCodes =
    static_cast<size_t>(OpCode::kGetTraces) + 1;

/// Stable metric-label name for an opcode ("Get", "Batch", ...).
const char* OpCodeName(OpCode op);

/// True iff the opcode mutates the store (put, delete, ranged delete).
/// Exactly these ops go through the write-ahead log (ssp/wal.h); gets,
/// admin ops, and the batch wrapper (whose sub-ops are logged
/// individually) do not.
bool IsMutatingOp(OpCode op);

/// True iff the opcode may appear as a kBatch sub-op: the store verbs.
/// Nesting (kBatch) and admin ops are excluded — sub-ops must be
/// individually WAL-loggable and store-scoped, and the server rejects
/// anything else with kBadRequest.
bool IsBatchableOp(OpCode op);

/// True iff executing the op twice leaves the store in the state of
/// executing it once — the property that makes transparent transport
/// retry (core::RetryingConnection) safe for it. Every verb qualifies:
/// puts and deletes are absolute assignments to fixed keys, with no
/// appends, counters, or compare-and-swaps. kBatch itself returns false
/// — batch idempotence is the AND over sub-ops and is decided per
/// request by the retry layer.
bool IsIdempotentOp(OpCode op);

// --- Request header extension (observability) -------------------------
// A top-level Request may carry a trailing extension block after the
// base encoding: a magic u32, a u8 entry count, then tag/length/value
// entries (u8 tag, u8 length, `length` bytes). Receivers skip entries
// with unknown tags, so new extensions deploy without a protocol
// version bump; requests with no extension serialize byte-identically
// to the pre-extension format, so a non-tracing client is
// indistinguishable from a legacy one. Batch sub-requests never carry
// extensions (the top-level frame's context covers them). Tag 2 is
// retired: older clients may still send it, so it must not be reused.
inline constexpr uint32_t kRequestExtensionMagic = 0x4F425331;  // "OBS1".
inline constexpr uint8_t kExtensionTagTrace = 1;  // u64 trace id, u8 attempt.
// Zero-length flag on reads: the caller wants versioned replies. Live hits
// come back as kOk with the entry's 16-byte Version (ts u64, writer u64)
// appended to the payload; tombstones come back as kDeleted (payload =
// the 16-byte Version) instead of masquerading as kNotFound. On a kBatch
// the flag covers every sub-read. Legacy readers never set it and see
// the pre-tombstone wire shapes byte-for-byte.
inline constexpr uint8_t kExtensionTagWantVersion = 3;
// Zero-length flag honoured only together with kExtensionTagWantVersion:
// a live hit answers kOk with the bare 16-byte Version and no blob, so a
// version probe (the anti-entropy scrubber's) costs no blob bytes.
// Tombstones and misses answer as without it. A legacy daemon skips the
// unknown tag and sends full versioned blobs, which DecodeVersionedReply
// reads the same way; requests without the flag are byte-identical to
// the pre-flag wire.
inline constexpr uint8_t kExtensionTagVersionOnly = 5;
// Zero-length flag on kGetStats: the caller wants the registry snapshot
// in the mergeable binary form (obs::RegistrySnapshot::SerializeBinary)
// instead of JSON, so a fan-out client can fold per-node snapshots into
// one cluster-wide view before rendering. Legacy/JSON callers never set
// it and keep the JSON payload byte-for-byte.
inline constexpr uint8_t kExtensionTagBinaryStats = 4;

// A stamped mutation sets this bit on its verb byte, and the 16-byte
// Version (ts u64, writer u64) follows the key. It is part of the base
// encoding, so it rides on every kBatch sub-op and into the WAL.
// Deserialize refuses it on a non-mutating verb and refuses a zero
// version behind it.
inline constexpr uint8_t kOpVersionFlag = 0x80;

struct Request {
  OpCode op = OpCode::kGet;
  ObjectKey key;
  // Writer-assigned version of a mutation (zero = unstamped: the single
  // daemon's local-bump path).
  Version version;
  Bytes payload;
  std::vector<Request> batch;  // Only for kBatch.

  // Observability extension (not part of the base encoding): the client
  // op's trace id (0 = untraced) and the 0-based transport retry
  // attempt. Filled by Deserialize when the frame carries a trace
  // entry; emitted by Serialize only when trace_id != 0.
  uint64_t trace_id = 0;
  uint8_t attempt = 0;

  // Versioned-read flags (TLV-carried; a kBatch's flags cover its
  // sub-reads). `version_only` drops live blobs from versioned replies
  // and means nothing without `want_version`.
  bool want_version = false;
  bool version_only = false;

  // Admin extension: kGetStats replies with a binary RegistrySnapshot
  // instead of JSON (the stats fan-out's mergeable form).
  bool binary_stats = false;

  Bytes Serialize() const;
  /// Serializes with the given trace stamped, regardless of the struct's
  /// own trace fields (the channel layer's ambient-trace path).
  Bytes SerializeWithTrace(uint64_t trace_id, uint8_t attempt) const;
  static Result<Request> Deserialize(const Bytes& data);

  static Request Get(ObjectKey key);
  static Request Put(ObjectKey key, Bytes payload);
  static Request Delete(ObjectKey key);
  /// Deletes every object of `family` whose k1 is `k1` (all metadata
  /// replicas, or all data blocks, of one inode).
  static Request DeleteRange(ObjectFamily family, uint64_t k1);
  static Request Batch(std::vector<Request> requests);
  /// `prefix` filters the snapshot to metrics whose name starts with it
  /// (empty = full registry); it rides in the payload.
  static Request GetStats(std::string prefix = {});
  static Request GetTraces();

 private:
  void AppendTo(BinaryWriter* w) const;
  static Result<Request> ReadFrom(BinaryReader* r, int depth);
  static Status ReadExtensions(BinaryReader* r, Request* req);
};

enum class RespStatus : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kBadRequest = 2,
  kError = 3,       // Transient server-side failure (fault injection,
                    // overload). Unlike kBadRequest the request was
                    // well-formed and was *not* executed; retrying it is
                    // the expected reaction.
  kWrongShard = 4,  // This daemon is not a placement replica for the
                    // op's routing key (ssp/placement.h): the client's
                    // cluster config is stale. Not executed. The sharded
                    // channel refreshes placement and retries once;
                    // anything else treats it as a definitive routing
                    // error, never a blind-retry target.
  kDeleted = 5,     // Versioned read hit a delete tombstone; the payload
                    // is the tombstone's 16-byte Version. Only emitted
                    // when the request carried kExtensionTagWantVersion —
                    // legacy readers still get plain kNotFound, so this
                    // status never reaches a pre-tombstone client.
};

/// One past the largest valid RespStatus (array sizing, metric labels).
inline constexpr size_t kNumRespStatuses =
    static_cast<size_t>(RespStatus::kDeleted) + 1;

/// Stable metric-label name for a response status ("kNotFound", ...).
const char* RespStatusName(RespStatus status);

struct Response {
  RespStatus status = RespStatus::kOk;
  Bytes payload;
  std::vector<Response> batch;

  bool ok() const { return status == RespStatus::kOk; }

  Bytes Serialize() const;
  static Result<Response> Deserialize(const Bytes& data);

  static Response Ok(Bytes payload = {}) {
    return Response{RespStatus::kOk, std::move(payload), {}};
  }
  static Response NotFound() { return Response{RespStatus::kNotFound, {}, {}}; }
  static Response BadRequest() {
    return Response{RespStatus::kBadRequest, {}, {}};
  }
  static Response Error() { return Response{RespStatus::kError, {}, {}}; }
  static Response WrongShard() {
    return Response{RespStatus::kWrongShard, {}, {}};
  }
  /// Live reply for a versioned read: the blob, then its Version as a
  /// 16-byte suffix.
  static Response Versioned(Bytes blob, Version version);
  /// Tombstone reply for a versioned read; payload is the Version.
  static Response Deleted(Version version);

 private:
  void AppendTo(BinaryWriter* w) const;
  static Result<Response> ReadFrom(BinaryReader* r, int depth);
};

/// One replica's answer to a versioned read, decoded from the wire shape:
/// the version suffix is stripped off kOk payloads, a kDeleted reply
/// keeps its tombstone's version, and kNotFound has the zero version.
struct VersionedReply {
  RespStatus status = RespStatus::kNotFound;  // kOk, kNotFound or kDeleted.
  Bytes payload;  // Object bytes (kOk only), suffix-free.
  Version version;
};

/// Decodes `resp` into `out`. False for replies that say nothing about
/// the key (kError, kWrongShard, kBadRequest) and for versioned shapes
/// too short to hold their version.
bool DecodeVersionedReply(const Response& resp, VersionedReply* out);

/// The freshest of the replies in [first, last): the one with the
/// greatest version, a kNotFound reply counting as version zero. A
/// tombstone is just a versioned entry, so there is no tie rule: equal
/// versions are the same mutation. `last` iff the range is empty. The
/// one freshness rule of the cluster: the sharded channel's quorum read
/// and the anti-entropy scrubber both settle on it (elements may be any
/// type derived from VersionedReply).
template <typename It>
It Freshest(It first, It last) {
  auto rank = [](const VersionedReply& r) {
    return r.status == RespStatus::kNotFound ? Version{} : r.version;
  };
  return std::max_element(first, last,
                          [&](const VersionedReply& a,
                              const VersionedReply& b) {
                            return rank(a) < rank(b);
                          });
}

/// The repair that brings one replica's `reply` up to the freshest
/// `winner` for `key`, or nullopt when it needs none. A live winner is
/// re-put onto every replica below it; a tombstone winner is re-deleted
/// onto LIVE replicas below it only — kNotFound already agrees with
/// deleted, and re-creating the tombstone there would fight the
/// scrubber's GC forever. The op carries the winner's version, so the
/// receiving store never lets it clobber a fresher write.
std::optional<Request> RepairOp(const ObjectKey& key,
                                const VersionedReply& winner,
                                const VersionedReply& reply);

}  // namespace sharoes::ssp

#endif  // SHAROES_SSP_MESSAGE_H_
