#include "ssp/message.h"

#include <iterator>

namespace sharoes::ssp {

namespace {
constexpr int kMaxBatchDepth = 2;  // A batch may not contain batches.

// Smallest possible wire encodings, used to bound attacker-controlled
// batch counts before reserve(): a count claiming more sub-messages than
// the remaining bytes could possibly hold is a lie, and trusting it would
// let a ~40-byte frame demand gigabytes of vector reservation.
//   Request:  op(1) + family(1) + k1(8) + k2(8) + payload length(4) +
//             batch count(4).
constexpr size_t kMinRequestWire = 26;
//   Response: status(1) + payload length(4) + batch count(4).
constexpr size_t kMinResponseWire = 9;

// Trace extension entry payload: trace id (8) + attempt (1).
constexpr uint8_t kTraceEntryLen = 9;
// A Version on the wire: ts (8) + writer (8).
constexpr size_t kVersionWire = 16;

// Appends the extension block for whichever entries `req` carries, with
// the given trace stamped. A request with no extensions gets no block at
// all, preserving the byte-identical-to-legacy property the protocol
// promises.
void AppendExtensions(BinaryWriter* w, const Request& req, uint64_t trace_id,
                      uint8_t attempt) {
  const bool flags[] = {req.want_version, req.version_only, req.binary_stats};
  const uint8_t tags[] = {kExtensionTagWantVersion, kExtensionTagVersionOnly,
                          kExtensionTagBinaryStats};
  uint8_t entries = trace_id != 0 ? 1 : 0;
  for (bool flag : flags) entries += flag ? 1 : 0;
  if (entries == 0) return;
  w->PutU32(kRequestExtensionMagic);
  w->PutU8(entries);
  if (trace_id != 0) {
    w->PutU8(kExtensionTagTrace);
    w->PutU8(kTraceEntryLen);
    w->PutU64(trace_id);
    w->PutU8(attempt);
  }
  for (size_t i = 0; i < std::size(flags); ++i) {
    if (!flags[i]) continue;
    w->PutU8(tags[i]);
    w->PutU8(0);  // Flag entry: presence is the value.
  }
}
}  // namespace

bool ObjectKey::Valid() const {
  constexpr uint64_t kU32Max = UINT32_MAX;
  switch (family) {
    case ObjectFamily::kSuperblock:
      return k1 <= kU32Max && k2 == 0;
    case ObjectFamily::kMetadata:
      return true;
    case ObjectFamily::kUserMetadata:
    case ObjectFamily::kData:
      return k2 <= kU32Max;
    case ObjectFamily::kGroupKey:
      return k1 <= kU32Max && k2 <= kU32Max;
  }
  return false;  // Unknown family (a cast from wire bytes).
}

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kGet: return "Get";
    case OpCode::kPut: return "Put";
    case OpCode::kDelete: return "Delete";
    case OpCode::kDeleteRange: return "DeleteRange";
    case OpCode::kBatch: return "Batch";
    case OpCode::kGetStats: return "GetStats";
    case OpCode::kGetTraces: return "GetTraces";
  }
  return "Unknown";
}

bool IsMutatingOp(OpCode op) {
  return op == OpCode::kPut || op == OpCode::kDelete ||
         op == OpCode::kDeleteRange;
}

bool IsBatchableOp(OpCode op) {
  return op == OpCode::kGet || IsMutatingOp(op);
}

bool IsIdempotentOp(OpCode op) {
  return op != OpCode::kBatch && static_cast<size_t>(op) < kNumOpCodes;
}

const char* RespStatusName(RespStatus status) {
  switch (status) {
    case RespStatus::kOk: return "kOk";
    case RespStatus::kNotFound: return "kNotFound";
    case RespStatus::kBadRequest: return "kBadRequest";
    case RespStatus::kError: return "kError";
    case RespStatus::kWrongShard: return "kWrongShard";
    case RespStatus::kDeleted: return "kDeleted";
  }
  return "kUnknown";
}

void Request::AppendTo(BinaryWriter* w) const {
  const bool stamped = version.stamped();
  w->PutU8(static_cast<uint8_t>(op) | (stamped ? kOpVersionFlag : 0));
  w->PutU8(static_cast<uint8_t>(key.family));
  w->PutU64(key.k1);
  w->PutU64(key.k2);
  if (stamped) {
    w->PutU64(version.ts);
    w->PutU64(version.writer);
  }
  w->PutBytes(payload);
  w->PutU32(static_cast<uint32_t>(batch.size()));
  for (const Request& r : batch) r.AppendTo(w);
}

Bytes Request::Serialize() const {
  BinaryWriter w;
  AppendTo(&w);
  AppendExtensions(&w, *this, trace_id, attempt);
  return w.Take();
}

Bytes Request::SerializeWithTrace(uint64_t trace, uint8_t att) const {
  BinaryWriter w;
  AppendTo(&w);
  AppendExtensions(&w, *this, trace, att);
  return w.Take();
}

Status Request::ReadExtensions(BinaryReader* r, Request* req) {
  uint32_t magic = r->GetU32();
  if (!r->ok() || magic != kRequestExtensionMagic) {
    return Status::Corruption("trailing bytes in request");
  }
  uint8_t entries = r->GetU8();
  for (uint8_t i = 0; r->ok() && i < entries; ++i) {
    uint8_t tag = r->GetU8();
    uint8_t len = r->GetU8();
    if (tag == kExtensionTagTrace && len == kTraceEntryLen) {
      req->trace_id = r->GetU64();
      req->attempt = r->GetU8();
    } else if (tag == kExtensionTagWantVersion && len == 0) {
      req->want_version = true;
    } else if (tag == kExtensionTagVersionOnly && len == 0) {
      req->version_only = true;
    } else if (tag == kExtensionTagBinaryStats && len == 0) {
      req->binary_stats = true;
    } else {
      // Unknown (future) extension, or a known tag with an unexpected
      // length: skip the entry wholesale. This is what lets an old
      // server ignore a new client's extensions gracefully.
      r->GetRaw(len);
    }
  }
  if (!r->ok()) return Status::Corruption("truncated request extension");
  return Status::OK();
}

Result<Request> Request::ReadFrom(BinaryReader* r, int depth) {
  if (depth >= kMaxBatchDepth) {
    return Status::Corruption("nested batch in request");
  }
  Request req;
  const uint8_t verb = r->GetU8();
  const bool stamped = (verb & kOpVersionFlag) != 0;
  const uint8_t op = verb & static_cast<uint8_t>(~kOpVersionFlag);
  if (r->ok() && op >= kNumOpCodes) {
    return Status::Corruption("unknown opcode");
  }
  req.op = static_cast<OpCode>(op);
  if (stamped && !IsMutatingOp(req.op)) {
    return Status::Corruption("version on a non-mutating op");
  }
  req.key.family = static_cast<ObjectFamily>(r->GetU8());
  req.key.k1 = r->GetU64();
  req.key.k2 = r->GetU64();
  if (r->ok() && !req.key.Valid()) {
    return Status::Corruption("invalid object key");
  }
  if (stamped) {
    req.version.ts = r->GetU64();
    req.version.writer = r->GetU64();
    // The flag is the only "stamped" marker: a zero version behind it
    // would not survive a re-serialize, so it is not a valid encoding.
    if (r->ok() && !req.version.stamped()) {
      return Status::Corruption("zero version on a stamped op");
    }
  }
  req.payload = r->GetBytes();
  uint32_t n = r->GetU32();
  if (!r->ok() || n > r->remaining() / kMinRequestWire) {
    return Status::Corruption("truncated request");
  }
  if (n > 0 && req.op != OpCode::kBatch) {
    return Status::Corruption("sub-requests on non-batch opcode");
  }
  req.batch.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SHAROES_ASSIGN_OR_RETURN(Request sub, ReadFrom(r, depth + 1));
    req.batch.push_back(std::move(sub));
  }
  return req;
}

Result<Request> Request::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  SHAROES_ASSIGN_OR_RETURN(Request req, ReadFrom(&r, 0));
  // A top-level request may be followed by an extension block (trace
  // propagation etc.); anything else trailing is corruption, as before.
  if (r.remaining() > 0) {
    SHAROES_RETURN_IF_ERROR(ReadExtensions(&r, &req));
  }
  SHAROES_RETURN_IF_ERROR(r.Finish("request"));
  return req;
}

Request Request::Get(ObjectKey key) {
  Request r;
  r.op = OpCode::kGet;
  r.key = key;
  return r;
}

Request Request::Put(ObjectKey key, Bytes payload) {
  Request r;
  r.op = OpCode::kPut;
  r.key = key;
  r.payload = std::move(payload);
  return r;
}

Request Request::Delete(ObjectKey key) {
  Request r;
  r.op = OpCode::kDelete;
  r.key = key;
  return r;
}

Request Request::DeleteRange(ObjectFamily family, uint64_t k1) {
  Request r;
  r.op = OpCode::kDeleteRange;
  r.key = {family, k1, 0};
  return r;
}

Request Request::Batch(std::vector<Request> requests) {
  Request r;
  r.op = OpCode::kBatch;
  r.batch = std::move(requests);
  return r;
}

Request Request::GetStats(std::string prefix) {
  Request r;
  r.op = OpCode::kGetStats;
  r.payload.assign(prefix.begin(), prefix.end());
  return r;
}

Request Request::GetTraces() {
  Request r;
  r.op = OpCode::kGetTraces;
  return r;
}

void Response::AppendTo(BinaryWriter* w) const {
  w->PutU8(static_cast<uint8_t>(status));
  w->PutBytes(payload);
  w->PutU32(static_cast<uint32_t>(batch.size()));
  for (const Response& r : batch) r.AppendTo(w);
}

Bytes Response::Serialize() const {
  BinaryWriter w;
  AppendTo(&w);
  return w.Take();
}

Response Response::Versioned(Bytes blob, Version version) {
  BinaryWriter w;
  w.PutRaw(blob);
  w.PutU64(version.ts);
  w.PutU64(version.writer);
  return Response{RespStatus::kOk, w.Take(), {}};
}

Response Response::Deleted(Version version) {
  BinaryWriter w;
  w.PutU64(version.ts);
  w.PutU64(version.writer);
  return Response{RespStatus::kDeleted, w.Take(), {}};
}

Result<Response> Response::ReadFrom(BinaryReader* r, int depth) {
  if (depth >= kMaxBatchDepth) {
    return Status::Corruption("nested batch in response");
  }
  Response resp;
  uint8_t status = r->GetU8();
  if (r->ok() && status >= kNumRespStatuses) {
    return Status::Corruption("unknown response status");
  }
  resp.status = static_cast<RespStatus>(status);
  resp.payload = r->GetBytes();
  uint32_t n = r->GetU32();
  if (!r->ok() || n > r->remaining() / kMinResponseWire) {
    return Status::Corruption("truncated response");
  }
  resp.batch.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SHAROES_ASSIGN_OR_RETURN(Response sub, ReadFrom(r, depth + 1));
    resp.batch.push_back(std::move(sub));
  }
  return resp;
}

Result<Response> Response::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  SHAROES_ASSIGN_OR_RETURN(Response resp, ReadFrom(&r, 0));
  SHAROES_RETURN_IF_ERROR(r.Finish("response"));
  return resp;
}

bool DecodeVersionedReply(const Response& resp, VersionedReply* out) {
  if (resp.status != RespStatus::kOk && resp.status != RespStatus::kNotFound &&
      resp.status != RespStatus::kDeleted) {
    return false;
  }
  out->status = resp.status;
  out->payload.clear();
  out->version = Version{};
  if (resp.status == RespStatus::kNotFound) return true;
  // Both versioned shapes end in the 16-byte version: the suffix of a
  // live blob, the whole payload of a tombstone reply.
  if (resp.payload.size() < kVersionWire) return false;
  const size_t body = resp.payload.size() - kVersionWire;
  BinaryReader r(resp.payload.data() + body, kVersionWire);
  out->version.ts = r.GetU64();
  out->version.writer = r.GetU64();
  if (resp.status == RespStatus::kOk) {
    out->payload.assign(resp.payload.begin(), resp.payload.begin() + body);
  }
  return true;
}

std::optional<Request> RepairOp(const ObjectKey& key,
                                const VersionedReply& winner,
                                const VersionedReply& reply) {
  if (!(reply.version < winner.version)) return std::nullopt;
  Request fix;
  if (winner.status == RespStatus::kOk) {
    fix = Request::Put(key, winner.payload);
  } else if (reply.status == RespStatus::kOk) {
    fix = Request::Delete(key);
  } else {
    return std::nullopt;
  }
  fix.version = winner.version;
  return fix;
}

}  // namespace sharoes::ssp
