#include "core/client.h"

#include <algorithm>

#include "crypto/merkle.h"
#include "fs/path.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace sharoes::core {

namespace {

/// Maps a non-ok read sub-response to the caller-facing Status: kNotFound
/// stays NotFound (the object genuinely is not at the SSP), kError means
/// the sub-op was *not executed* and becomes Unavailable (transient,
/// retryable), and anything else from a well-formed get is an I/O error.
Status ReadSubError(const std::string& what, ssp::RespStatus status) {
  switch (status) {
    case ssp::RespStatus::kNotFound:
      return Status::NotFound(what + " not at SSP");
    case ssp::RespStatus::kError:
      return Status::Unavailable(what + ": SSP reported transient error");
    default:
      return Status::IoError(what + ": SSP answered " +
                             ssp::RespStatusName(status));
  }
}

/// Moves a rendered object set onto the end of a batch.
void AppendRequests(std::vector<ssp::Request> more,
                    std::vector<ssp::Request>* out) {
  for (ssp::Request& r : more) out->push_back(std::move(r));
}

/// Builds the partial bundle a directory writer holds (table keys + data
/// signing pair); owners use MetadataView::ToBundle for the full bundle.
Result<ObjectKeyBundle> BundleForWriter(const MetadataView& view) {
  if (!view.dsk.has_value() || !view.dvk.has_value() ||
      view.table_keys.empty()) {
    return Status::PermissionDenied("no writer CAP on directory");
  }
  ObjectKeyBundle b;
  b.data = crypto::SigningKeyPair{*view.dsk, *view.dvk};
  b.table_keys = view.table_keys;
  if (view.msk.has_value() && view.mvk.has_value()) {
    b.meta = crypto::SigningKeyPair{*view.msk, *view.mvk};
    b.meks = view.meks;
  }
  if (view.dek.has_value()) b.dek = *view.dek;
  return b;
}

}  // namespace

SharoesClient::SharoesClient(fs::UserId uid,
                             crypto::RsaPrivateKey user_private_key,
                             const IdentityDirectory* identity,
                             ssp::SspChannel* conn,
                             crypto::CryptoEngine* engine,
                             const ClientOptions& options)
    : uid_(uid),
      principal_(identity->PrincipalOf(uid)),
      user_priv_(std::move(user_private_key)),
      identity_(identity),
      conn_(conn),
      engine_(engine),
      codec_(engine, identity, options.scheme),
      options_(options),
      cache_(options.cache_bytes),
      neg_cache_(kNegativeDentryBytes, nullptr, "client.dentry.neg"),
      rpc_trips_counter_(
          obs::MetricsRegistry::Global().counter("client.rpc.round_trips")),
      inode_counter_(engine->rng().NextU64() & 0xFFFFFFFFULL) {}

SharoesClient::OpScope::OpScope(SharoesClient* client, const char* op)
    : client_(client),
      span_(op),
      start_trips_(client->rpc_round_trips_),
      trips_hist_(obs::MetricsRegistry::Global().histogram(
          std::string("client.rpc.round_trips.") + op)) {}

SharoesClient::OpScope::~OpScope() {
  trips_hist_->Record(client_->rpc_round_trips_ - start_trips_);
}

namespace {
/// True iff the request would mutate the store — the shapes that may
/// bypass the read barrier below (a flush's own kBatch is all-mutating).
bool RequestMutates(const ssp::Request& req) {
  if (req.op == ssp::OpCode::kBatch) {
    for (const ssp::Request& sub : req.batch) {
      if (ssp::IsMutatingOp(sub.op)) return true;
    }
    return false;
  }
  return ssp::IsMutatingOp(req.op);
}
}  // namespace

Result<ssp::Response> SharoesClient::Rpc(const ssp::Request& req) {
  // Read barrier for the write-behind stage: before any read reaches the
  // wire, staged mutations must land so the SSP answers reflect this
  // client's own writes (read-your-writes). Mutating requests skip it —
  // ordering relative to the stage is preserved by staging them too (or,
  // for the flush batch itself, by flushing_pending_).
  if (!flushing_pending_ && !pending_writes_.empty() &&
      !RequestMutates(req)) {
    SHAROES_RETURN_IF_ERROR(FlushPendingWrites());
  }
  ++rpc_round_trips_;
  rpc_trips_counter_->Increment();
  // Everything inside Call — serialization onto the socket, the server,
  // the network, transport retries/backoff — is "waiting on the wire"
  // from this op's point of view.
  obs::PhaseScope wire_phase(obs::Phase::kWireWait);
  return conn_->Call(req);
}

uint32_t SharoesClient::InitialWindowBlocks() const {
  // Before the descriptor is fetched the block count is unknown, so the
  // speculative first window stays small: big enough to cover most files
  // in one round trip, small enough that a one-block file wastes only a
  // few tiny kNotFound sub-responses.
  constexpr uint32_t kInitialReadWindow = 4;
  size_t window = std::max<size_t>(options_.readahead_blocks, 1);
  return static_cast<uint32_t>(
      std::min<size_t>(window, kInitialReadWindow));
}

void SharoesClient::ChargeClientOverhead() {
  if (engine_->clock() != nullptr) {
    engine_->clock()->AdvanceMs(options_.client_overhead_ms,
                                CostCategory::kOther);
  }
}

std::string SharoesClient::ViewCacheKey(fs::InodeNum inode,
                                        Selector sel) const {
  return "m|" + std::to_string(inode) + "|" + std::to_string(sel);
}

std::string SharoesClient::DataCacheKey(fs::InodeNum inode, uint32_t block) {
  return "d|" + std::to_string(inode) + "|" + std::to_string(block);
}

std::string SharoesClient::TagCacheKey(fs::InodeNum inode, uint32_t block) {
  return "e|" + std::to_string(inode) + "|" + std::to_string(block);
}

std::string SharoesClient::TableCacheKey(fs::InodeNum inode, Selector sel) {
  return "t|" + std::to_string(inode) + "|" + std::to_string(sel);
}

std::string SharoesClient::MasterCacheKey(fs::InodeNum inode) {
  return "M|" + std::to_string(inode);
}

std::string SharoesClient::UserSplitCacheKey(fs::InodeNum inode,
                                             fs::UserId uid) {
  return "u|" + std::to_string(inode) + "|" + std::to_string(uid);
}

std::string SharoesClient::GroupSplitCacheKey(fs::InodeNum inode,
                                              uint32_t id) {
  return "g|" + std::to_string(inode) + "|" + std::to_string(id);
}

std::string SharoesClient::NegDentryCacheKey(fs::InodeNum dir_inode,
                                             const std::string& name) {
  return "n|" + std::to_string(dir_inode) + "|" + name;
}

void SharoesClient::InvalidateInode(fs::InodeNum inode) {
  std::string id = std::to_string(inode);
  cache_.ErasePrefix("m|" + id + "|");
  cache_.ErasePrefix("t|" + id + "|");
  cache_.ErasePrefix("d|" + id + "|");
  cache_.ErasePrefix("e|" + id + "|");
  cache_.ErasePrefix("u|" + id + "|");
  cache_.ErasePrefix("g|" + id + "|");
  neg_cache_.ErasePrefix("n|" + id + "|");
}

void SharoesClient::DropCaches() {
  cache_.Clear();
  neg_cache_.Clear();
  group_secrets_.clear();
}

Status SharoesClient::EvictPath(const std::string& path) {
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(path));
  InvalidateInode(node.ref.inode);
  return Status::OK();
}

fs::InodeNum SharoesClient::AllocateInode() {
  // Partitioned allocation: the high bits carry the creator's uid, so
  // clients never contend on a shared counter (the SSP performs no
  // computation and cannot allocate).
  return (static_cast<uint64_t>(uid_) + 2) << 40 |
         (inode_counter_++ & 0xFFFFFFFFFFull);
}

Status SharoesClient::Mount() {
  OpScope span(this, "Mount");
  principal_ = identity_->PrincipalOf(uid_);
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(
      ssp::Response resp,
      Rpc(ssp::Request::Get(ssp::ObjectKey::Superblock(uid_))));
  if (!resp.ok()) {
    return ReadSubError("superblock for user " + std::to_string(uid_),
                        resp.status);
  }
  SHAROES_ASSIGN_OR_RETURN(superblock_,
                           codec_.DecodeSuperblock(user_priv_, resp.payload));
  mounted_ = true;
  return Status::OK();
}

Result<std::vector<ssp::Response>> SharoesClient::MultiGet(
    std::vector<ssp::Request> gets) {
  if (gets.empty()) return std::vector<ssp::Response>{};
  for (const ssp::Request& r : gets) {
    if (ssp::IsMutatingOp(r.op) || !ssp::IsBatchableOp(r.op)) {
      return Status::InvalidArgument(
          std::string("MultiGet sub-op must be a read, got ") +
          ssp::OpCodeName(r.op));
    }
  }
  if (gets.size() == 1) {
    // A batch of one would round-trip identically; skip the wrapper so
    // single fetches keep the legacy wire shape.
    SHAROES_ASSIGN_OR_RETURN(ssp::Response resp, Rpc(gets[0]));
    return std::vector<ssp::Response>{std::move(resp)};
  }
  size_t n = gets.size();
  SHAROES_ASSIGN_OR_RETURN(ssp::Response resp,
                           Rpc(ssp::Request::Batch(std::move(gets))));
  if (resp.status == ssp::RespStatus::kError) {
    // The batch was not executed; all sub-ops are idempotent reads, so
    // re-issuing is always safe (RetryingConnection does exactly that).
    return Status::Unavailable("SSP reported transient error for read batch");
  }
  if (!resp.ok()) {
    return Status::IoError(std::string("SSP rejected read batch of ") +
                           std::to_string(n) + " gets (" +
                           ssp::RespStatusName(resp.status) + ")");
  }
  if (resp.batch.size() != n) {
    return Status::IoError("SSP answered " +
                           std::to_string(resp.batch.size()) +
                           " sub-responses to a read batch of " +
                           std::to_string(n));
  }
  return std::move(resp.batch);
}

Result<SharoesClient::Node> SharoesClient::FetchNode(const PlainRef& ref,
                                                    bool want_table,
                                                    bool want_data,
                                                    Prefetched* ahead) {
  std::string view_key = ViewCacheKey(ref.inode, ref.selector);
  auto cached_view = cache_.Get<MetadataView>(view_key);
  std::vector<ssp::Request> gets;
  if (cached_view == nullptr) {
    gets.push_back(ssp::Request::Get(ssp::ObjectKey::Metadata(ref.inode,
                                                              ref.selector)));
  }
  // Unbatched, a level asks for its view alone.
  bool fetch_table = options_.batch_reads && want_table &&
                     !cache_.Contains(TableCacheKey(ref.inode, ref.selector));
  if (fetch_table) {
    gets.push_back(ssp::Request::Get(ssp::ObjectKey::Metadata(
        ref.inode, TableSelector(ref.selector))));
  }
  std::vector<uint32_t> blocks;
  if (options_.batch_reads && want_data) {
    for (uint32_t i = 0; i < InitialWindowBlocks(); ++i) {
      if (!cache_.Contains(DataCacheKey(ref.inode, i)) ||
          (i > 0 && !cache_.Contains(TagCacheKey(ref.inode, i)))) {
        blocks.push_back(i);
        gets.push_back(ssp::Request::Get(ssp::ObjectKey::Data(ref.inode, i)));
      }
    }
  }
  std::vector<ssp::Response> resps;
  if (!gets.empty()) {
    SHAROES_ASSIGN_OR_RETURN(resps, MultiGet(std::move(gets)));
  }
  size_t next = 0;
  Node node{ref, {}};
  if (cached_view != nullptr) {
    node.view = *cached_view;
  } else {
    const ssp::Response& r = resps[next++];
    if (!r.ok()) {
      return ReadSubError("metadata " + std::to_string(ref.inode) +
                              " replica " + std::to_string(ref.selector),
                          r.status);
    }
    SHAROES_ASSIGN_OR_RETURN(
        node.view, codec_.DecodeMetadataReplica(ref.inode, ref.selector,
                                                r.payload, ref.mek, ref.mvk));
    cache_.Put(view_key, node.view, r.payload.size());
  }
  if (fetch_table) ahead->table = std::move(resps[next++]);
  for (uint32_t b : blocks) ahead->data[b] = std::move(resps[next++]);
  return node;
}

Result<std::shared_ptr<const DecodedTable>> SharoesClient::FetchTable(
    const Node& dir, const ssp::Response* ahead) {
  if (!dir.view.attrs.is_dir()) {
    return Status::InvalidArgument("not a directory");
  }
  if (!dir.view.dek.has_value() || !dir.view.dvk.has_value()) {
    return Status::PermissionDenied("no table access on directory");
  }
  std::string key = TableCacheKey(dir.ref.inode, dir.ref.selector);
  if (auto cached = cache_.Get<DecodedTable>(key)) return cached;
  ssp::Response fetched;
  if (ahead == nullptr || ahead->status == ssp::RespStatus::kError) {
    SHAROES_ASSIGN_OR_RETURN(
        fetched, Rpc(ssp::Request::Get(ssp::ObjectKey::Metadata(
                     dir.ref.inode, TableSelector(dir.ref.selector)))));
    ahead = &fetched;
  }
  if (!ahead->ok()) return ReadSubError("table copy", ahead->status);
  SHAROES_ASSIGN_OR_RETURN(
      DecodedTable table,
      codec_.DecodeTableCopy(dir.ref.inode, dir.ref.selector, ahead->payload,
                             *dir.view.dek, *dir.view.dvk));
  auto sp = std::make_shared<const DecodedTable>(std::move(table));
  cache_.PutPtr(key, sp, ahead->payload.size());
  return sp;
}

Result<GroupSecret> SharoesClient::FetchGroupSecret(fs::GroupId gid) {
  auto it = group_secrets_.find(gid);
  if (it != group_secrets_.end()) return it->second;
  SHAROES_ASSIGN_OR_RETURN(
      ssp::Response resp,
      Rpc(ssp::Request::Get(ssp::ObjectKey::GroupKey(gid, uid_))));
  if (resp.status == ssp::RespStatus::kNotFound) {
    return Status::PermissionDenied("no group key block for group " +
                                    std::to_string(gid) + " user " +
                                    std::to_string(uid_));
  }
  if (!resp.ok()) return ReadSubError("group key block", resp.status);
  SHAROES_ASSIGN_OR_RETURN(
      GroupSecret secret, codec_.DecodeGroupKeyBlock(user_priv_,
                                                     resp.payload));
  group_secrets_[gid] = secret;
  return secret;
}

Result<PlainRef> SharoesClient::ResolveRowRef(const RowRef& row) {
  if (row.kind == RowRef::Kind::kPlain) return row.plain;
  // Split point. A per-user block takes precedence (it exists exactly for
  // readers whose class diverges from the shared group block — e.g. the
  // child's owner, who may also be a group member); group members without
  // one fall back to the shared group block.
  std::string ukey = UserSplitCacheKey(row.inode, uid_);
  if (auto cached = cache_.Get<PlainRef>(ukey)) return *cached;
  std::string gkey = GroupSplitCacheKey(row.inode, row.gid);
  if (row.has_group_block && principal_.MemberOf(row.gid)) {
    if (auto cached = cache_.Get<PlainRef>(gkey)) return *cached;
  }
  SHAROES_ASSIGN_OR_RETURN(
      ssp::Response resp,
      Rpc(ssp::Request::Get(ssp::ObjectKey::UserMetadata(row.inode, uid_))));
  if (resp.ok()) {
    SHAROES_ASSIGN_OR_RETURN(
        PlainRef ref, codec_.DecodeUserRefBlock(user_priv_, resp.payload));
    cache_.Put(ukey, ref, resp.payload.size());
    return ref;
  }
  // Only a proven absence falls back; a transient failure is no verdict
  // on whether this user holds a split block.
  if (resp.status != ssp::RespStatus::kNotFound) {
    return ReadSubError("user split block", resp.status);
  }
  if (row.has_group_block && principal_.MemberOf(row.gid)) {
    SHAROES_ASSIGN_OR_RETURN(
        ssp::Response gresp,
        Rpc(ssp::Request::Get(ssp::ObjectKey::UserMetadata(
            row.inode, GroupBlockKey(row.gid)))));
    if (!gresp.ok()) return ReadSubError("group split block", gresp.status);
    SHAROES_ASSIGN_OR_RETURN(GroupSecret secret, FetchGroupSecret(row.gid));
    SHAROES_ASSIGN_OR_RETURN(
        PlainRef ref,
        codec_.DecodeGroupRefBlock(secret.private_key, gresp.payload));
    cache_.Put(gkey, ref, gresp.payload.size());
    return ref;
  }
  return Status::PermissionDenied("no split block for this user");
}

Result<SharoesClient::Node> SharoesClient::ResolvePath(
    const std::string& path, ReadIntent intent, Prefetched* ahead) {
  if (!mounted_) return Status::FailedPrecondition("not mounted");
  SHAROES_ASSIGN_OR_RETURN(std::vector<std::string> comps,
                           fs::SplitPath(path));
  PlainRef ref = superblock_.root_ref;
  Node node;
  for (size_t i = 0;; ++i) {
    const bool last = i == comps.size();
    // A remembered negative dentry short-circuits after the permission
    // checks below — and also tells the coalesced fetch not to pay bytes
    // for a table it will not consult.
    bool neg = false;
    if (!last) {
      neg = neg_cache_.Get<bool>(NegDentryCacheKey(ref.inode, comps[i])) !=
            nullptr;
    }
    bool want_table = !last && !neg;
    bool want_data = last && intent == ReadIntent::kData;
    if (last && intent == ReadIntent::kTable) want_table = true;
    Prefetched level;
    SHAROES_ASSIGN_OR_RETURN(node,
                             FetchNode(ref, want_table, want_data, &level));
    if (last) {
      if (ahead != nullptr) *ahead = std::move(level);
      return node;
    }
    const std::string& comp = comps[i];
    if (!node.view.attrs.is_dir()) {
      return Status::InvalidArgument("'" + comp +
                                     "' parent is not a directory");
    }
    // Traversal needs exec on the directory (*nix semantics; also
    // cryptographically required to obtain the child's keys).
    if (!fs::Allows(node.view.attrs, principal_, fs::Access::kExec)) {
      return Status::PermissionDenied("no exec permission on directory");
    }
    if (neg) {
      return Status::NotFound("no entry named '" + comp + "'");
    }
    SHAROES_ASSIGN_OR_RETURN(
        auto table,
        FetchTable(node, level.table.has_value() ? &*level.table : nullptr));
    RowRef row;
    switch (table->view) {
      case TableView::kFull: {
        auto it = table->refs.find(comp);
        if (it == table->refs.end()) {
          std::string nkey = NegDentryCacheKey(ref.inode, comp);
          neg_cache_.Put(nkey, true, nkey.size() + 1);
          return Status::NotFound("no entry named '" + comp + "'");
        }
        row = it->second;
        break;
      }
      case TableView::kExecOnly: {
        auto looked = codec_.ExecOnlyLookup(*table, *node.view.dek, comp);
        if (!looked.ok()) {
          if (looked.status().IsNotFound()) {
            std::string nkey = NegDentryCacheKey(ref.inode, comp);
            neg_cache_.Put(nkey, true, nkey.size() + 1);
          }
          return looked.status();
        }
        row = *looked;
        break;
      }
      case TableView::kNamesOnly:
      case TableView::kNone:
        return Status::PermissionDenied(
            "directory CAP does not permit traversal");
    }
    SHAROES_ASSIGN_OR_RETURN(ref, ResolveRowRef(row));
  }
}

Result<fs::InodeAttrs> SharoesClient::Getattr(const std::string& path) {
  OpScope span(this, "Getattr");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(path));
  fs::InodeAttrs attrs = node.view.attrs;
  // File sizes live in the signed data descriptor, not in metadata (plain
  // writers hold no MSK — see DESIGN.md §5). Report the freshest size
  // this client can know without extra round trips: a dirty write buffer
  // or the locally cached descriptor.
  if (!attrs.is_dir()) {
    SHAROES_ASSIGN_OR_RETURN(std::string norm, fs::NormalizePath(path));
    auto buf_it = write_buffers_.find(norm);
    if (buf_it != write_buffers_.end()) {
      attrs.size = buf_it->second.content.size();
    } else if (auto cached0 =
                   cache_.Get<Bytes>(DataCacheKey(node.ref.inode, 0))) {
      BinaryReader r(*cached0);
      auto desc = DataDescriptor::ReadFrom(&r);
      if (desc.ok()) attrs.size = desc->size;
    }
  }
  return attrs;
}

Result<std::vector<std::string>> SharoesClient::Readdir(
    const std::string& path) {
  OpScope span(this, "Readdir");
  ChargeClientOverhead();
  Prefetched ahead;
  SHAROES_ASSIGN_OR_RETURN(Node node,
                           ResolvePath(path, ReadIntent::kTable, &ahead));
  if (!node.view.attrs.is_dir()) {
    return Status::InvalidArgument("not a directory");
  }
  if (!fs::Allows(node.view.attrs, principal_, fs::Access::kRead)) {
    return Status::PermissionDenied("no read permission on directory");
  }
  SHAROES_ASSIGN_OR_RETURN(
      auto table,
      FetchTable(node, ahead.table.has_value() ? &*ahead.table : nullptr));
  if (table->view == TableView::kExecOnly ||
      table->view == TableView::kNone) {
    return Status::PermissionDenied("directory CAP does not permit listing");
  }
  return table->names;
}

Status SharoesClient::ExecuteBatch(std::vector<ssp::Request> requests) {
  if (requests.empty()) return Status::OK();
  if (options_.write_batch_ops == 0 || flushing_pending_) {
    return ExecuteBatchNow(requests);
  }
  // Write-behind: stage the sub-ops and ship them at the next flush
  // point. Submission order is preserved, so the flushed batch applies
  // exactly like the immediate path would have.
  for (ssp::Request& r : requests) {
    pending_write_bytes_ += r.payload.size() + 48;  // ~frame overhead.
    pending_writes_.push_back(std::move(r));
  }
  if (pending_writes_.size() >= options_.write_batch_ops ||
      pending_write_bytes_ >= kWriteBatchBytes) {
    return FlushPendingWrites();
  }
  return Status::OK();
}

Status SharoesClient::ExecuteBatchNow(
    const std::vector<ssp::Request>& requests) {
  if (requests.empty()) return Status::OK();
  SHAROES_ASSIGN_OR_RETURN(ssp::Response resp,
                           Rpc(ssp::Request::Batch(requests)));
  if (!resp.ok()) {
    std::string what = std::string("SSP rejected batch of ") +
                       std::to_string(requests.size()) + " ops (" +
                       ssp::RespStatusName(resp.status) + ")";
    // kError = well-formed but not executed with a durability guarantee;
    // the idempotent sub-ops are safe to re-issue. kBadRequest is final.
    return resp.status == ssp::RespStatus::kError ? Status::Unavailable(what)
                                                  : Status::IoError(what);
  }
  if (resp.batch.size() != requests.size()) {
    return Status::IoError("SSP answered " +
                           std::to_string(resp.batch.size()) +
                           " sub-responses to a batch of " +
                           std::to_string(requests.size()));
  }
  for (size_t i = 0; i < resp.batch.size(); ++i) {
    const ssp::Response& sub = resp.batch[i];
    if (sub.status == ssp::RespStatus::kBadRequest ||
        sub.status == ssp::RespStatus::kError) {
      std::string what =
          std::string("SSP rejected batched sub-op ") + std::to_string(i) +
          "/" + std::to_string(requests.size()) + " (" +
          ssp::OpCodeName(requests[i].op) + ": " +
          ssp::RespStatusName(sub.status) + ")";
      return sub.status == ssp::RespStatus::kError ? Status::Unavailable(what)
                                                   : Status::IoError(what);
    }
  }
  return Status::OK();
}

Status SharoesClient::FlushPendingWrites() {
  if (pending_writes_.empty()) return Status::OK();
  obs::PhaseScope flush_phase(obs::Phase::kStageFlush);
  flushing_pending_ = true;
  Status shipped = ExecuteBatchNow(pending_writes_);
  flushing_pending_ = false;
  // Transient outcomes (not executed, or executed without the ack — both
  // replay-safe for these idempotent sub-ops) keep the stage so the next
  // flush point retries; anything else resolves the ops' fate, so the
  // stage clears and the error surfaces exactly once.
  if (shipped.ok() ||
      !(shipped.IsUnavailable() || shipped.IsDeadlineExceeded())) {
    pending_writes_.clear();
    pending_write_bytes_ = 0;
  }
  return shipped;
}

Status SharoesClient::Fsync() {
  OpScope scope(this, "Fsync");
  return FlushPendingWrites();
}

Result<MasterTable> SharoesClient::FetchMaster(const Node& dir,
                                               const ObjectKeyBundle& bundle) {
  auto it = bundle.table_keys.find(kMasterSelector);
  if (it == bundle.table_keys.end()) {
    return Status::PermissionDenied("no master table key");
  }
  std::string key = MasterCacheKey(dir.ref.inode);
  if (auto cached = cache_.Get<MasterTable>(key)) return *cached;
  SHAROES_ASSIGN_OR_RETURN(
      ssp::Response resp,
      Rpc(ssp::Request::Get(ssp::ObjectKey::Metadata(
          dir.ref.inode, TableSelector(kMasterSelector)))));
  if (!resp.ok()) return ReadSubError("master table", resp.status);
  SHAROES_ASSIGN_OR_RETURN(
      MasterTable master,
      codec_.DecodeMasterTable(dir.ref.inode, resp.payload, it->second,
                               bundle.data.verify));
  cache_.Put(key, master, resp.payload.size());
  return master;
}

Result<SharoesClient::WriterDirContext> SharoesClient::LoadDirForWrite(
    const std::string& dir_path) {
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(dir_path));
  if (!node.view.attrs.is_dir()) {
    return Status::InvalidArgument("'" + dir_path + "' is not a directory");
  }
  if (!fs::Allows(node.view.attrs, principal_, fs::Access::kWrite) ||
      !fs::Allows(node.view.attrs, principal_, fs::Access::kExec)) {
    return Status::PermissionDenied("no write permission on directory");
  }
  SHAROES_ASSIGN_OR_RETURN(ObjectKeyBundle bundle, BundleForWriter(node.view));
  SHAROES_ASSIGN_OR_RETURN(MasterTable master, FetchMaster(node, bundle));
  WriterDirContext ctx;
  ctx.ownership = OwnershipInfo::FromAttrs(node.view.attrs);
  ctx.node = std::move(node);
  ctx.master = std::move(master);
  ctx.bundle = std::move(bundle);
  return ctx;
}

Status SharoesClient::RenderDirTables(const WriterDirContext& ctx,
                                      std::vector<ssp::Request>* out) {
  std::vector<ReplicaSpec> specs =
      ReplicasFor(ctx.ownership, options_.scheme, *identity_);
  SHAROES_ASSIGN_OR_RETURN(
      std::vector<ssp::Request> tables,
      codec_.TableSetPuts(ctx.node.ref.inode, ctx.ownership, specs,
                          ctx.master, ctx.bundle));
  // The set opens with one copy per spec, in spec order: find our own.
  size_t my_copy_size = 0;
  bool my_copy_full = false;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].selector == ctx.node.ref.selector) {
      my_copy_size = tables[i].payload.size();
      my_copy_full = specs[i].Fields(fs::FileType::kDirectory).table_view ==
                     TableView::kFull;
    }
  }
  AppendRequests(std::move(tables), out);
  // Refresh our cached view of this directory: stale copies out, the
  // updated master and our own freshly rendered copy in (the paper's
  // client keeps the table it just modified in memory).
  std::string id = std::to_string(ctx.node.ref.inode);
  cache_.ErasePrefix("t|" + id + "|");
  // The directory's membership just changed: names that were absent may
  // exist now, so every negative dentry under it is stale.
  neg_cache_.ErasePrefix("n|" + id + "|");
  cache_.Put(MasterCacheKey(ctx.node.ref.inode), ctx.master,
             ctx.master.Serialize().size());
  if (my_copy_full) {
    auto decoded = codec_.RenderFullTableView(
        ctx.master, UniverseOf(ctx.ownership, ctx.node.ref.selector,
                               options_.scheme, *identity_));
    if (decoded.ok()) {
      cache_.Put(TableCacheKey(ctx.node.ref.inode, ctx.node.ref.selector),
                 std::move(*decoded), my_copy_size);
    }
  }
  return Status::OK();
}

Status SharoesClient::CreateObject(const std::string& path, fs::FileType type,
                                   const CreateOptions& opts) {
  OpScope span(this, type == fs::FileType::kDirectory ? "Mkdir" : "Create");
  ChargeClientOverhead();
  if (!ModeSupported(type, opts.mode)) {
    return Status::Unsupported("mode " + opts.mode.ToString() +
                               " is not representable for a " +
                               fs::FileTypeName(type) +
                               " in the outsourced model");
  }
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent sp, fs::SplitParentName(path));
  SHAROES_ASSIGN_OR_RETURN(WriterDirContext ctx, LoadDirForWrite(sp.parent));
  if (ctx.master.Find(sp.name) != nullptr) {
    return Status::AlreadyExists("'" + path + "' already exists");
  }

  // Build the child object.
  fs::InodeAttrs attrs;
  attrs.inode = AllocateInode();
  attrs.type = type;
  attrs.owner = uid_;
  attrs.group = options_.default_group;
  attrs.mode = opts.mode;
  attrs.acl = opts.acl;
  attrs.mtime = engine_->clock() != nullptr ? engine_->clock()->now_ns() : 0;
  OwnershipInfo info = OwnershipInfo::FromAttrs(attrs);
  std::vector<ReplicaSpec> specs =
      ReplicasFor(info, options_.scheme, *identity_);
  ObjectKeyBundle bundle = codec_.GenerateBundle(type, specs);

  // Batch 1: the child's metadata replicas (and, for directories, its
  // empty table set) — the paper's "metadata send".
  std::vector<ssp::Request> batch1 =
      codec_.MetadataReplicaPuts(specs, attrs, bundle);
  if (type == fs::FileType::kDirectory) {
    SHAROES_ASSIGN_OR_RETURN(
        std::vector<ssp::Request> tables,
        codec_.TableSetPuts(attrs.inode, info, specs, MasterTable{}, bundle));
    AppendRequests(std::move(tables), &batch1);
  }
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch1)));

  // Batch 2: the parent's updated tables — the paper's "parent-dir send".
  SHAROES_RETURN_IF_ERROR(
      ctx.master.Add(MasterEntry::For(sp.name, attrs.inode, info, bundle)));
  std::vector<ssp::Request> batch2;
  SHAROES_RETURN_IF_ERROR(RenderDirTables(ctx, &batch2));
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch2)));
  // The creator keeps its own view of the new object in memory, and
  // knows the file has never been written (write generation 0).
  freshness_[attrs.inode] = FreshnessRecord{0, {}};
  ReplicaSpec my_spec = SpecFor(info, principal_, options_.scheme);
  MetadataView my_view = ObjectCodec::BuildView(my_spec, attrs, bundle);
  cache_.Put(ViewCacheKey(attrs.inode, my_spec.selector), my_view,
             my_view.Serialize().size());
  if (type == fs::FileType::kDirectory) {
    // The creator also knows the new directory is empty: seed the master-
    // table cache so the first create inside it skips the fetch of a
    // table this client rendered moments ago.
    MasterTable empty;
    cache_.Put(MasterCacheKey(attrs.inode), empty,
               empty.Serialize().size());
  }
  return Status::OK();
}

Status SharoesClient::Mkdir(const std::string& path,
                            const CreateOptions& opts) {
  return CreateObject(path, fs::FileType::kDirectory, opts);
}

Status SharoesClient::Create(const std::string& path,
                             const CreateOptions& opts) {
  return CreateObject(path, fs::FileType::kFile, opts);
}

Result<Bytes> SharoesClient::FetchFileContent(
    const Node& node, std::map<uint32_t, ssp::Response> ahead) {
  if (!node.view.CanReadData()) {
    return Status::PermissionDenied("CAP does not expose DEK/DVK");
  }
  fs::InodeNum inode = node.ref.inode;

  // Select the data key for a block's recorded generation.
  auto key_for = [&](uint32_t key_gen) -> Result<crypto::SymmetricKey> {
    if (key_gen == node.view.dek_gen) return *node.view.dek;
    if (key_gen == node.view.dek_gen + 1 && node.view.dek_next.has_value()) {
      return *node.view.dek_next;  // Lazy-revocation rotation happened.
    }
    return Status::PermissionDenied(
        "data re-encrypted under a rotated key (access revoked)");
  };
  // A prefetched answer stands, kNotFound included; a transient kError
  // is a miss and is fetched again.
  auto answered = [&](uint32_t i) {
    auto it = ahead.find(i);
    return it != ahead.end() && it->second.status != ssp::RespStatus::kError;
  };
  // Readahead windows (one batched round trip each), or one RPC per
  // block with batching off — the pre-batching wire behaviour kept as
  // the benchmark comparator.
  size_t window =
      options_.batch_reads ? std::max<size_t>(options_.readahead_blocks, 1) : 1;

  // Block 0 carries the descriptor, so the block count is 1 until it is
  // decoded. Per block: plaintext, AEAD tag (the Merkle leaf; block 0 is
  // covered by its signature instead) and whether it is in hand.
  DataDescriptor desc;
  uint32_t count = 1;
  uint32_t looked_up = 0;
  std::vector<Bytes> chunks(1), tags(1);
  std::vector<bool> have(1, false);
  for (uint32_t i = 0; i < count; ++i) {
    // Look every known block up in the cache before any window fetch, so
    // the fetched blocks' cache fills cannot evict one this read needs.
    // A tail block counts as cached only with its tag alongside: the
    // root check below needs every tail tag.
    for (; looked_up < count; ++looked_up) {
      uint32_t j = looked_up;
      auto plain = cache_.Get<Bytes>(DataCacheKey(inode, j));
      auto tag = j == 0 ? nullptr : cache_.Get<Bytes>(TagCacheKey(inode, j));
      if (plain != nullptr && (j == 0 || tag != nullptr)) {
        chunks[j] = *plain;
        if (tag != nullptr) tags[j] = *tag;
        have[j] = true;
      }
    }
    if (!have[i]) {
      if (!answered(i)) {
        // Fetch a window: this block plus the next ones neither in hand
        // nor answered. Before the descriptor is known the window is the
        // small speculative one (gets past EOF come back as harmless
        // kNotFound sub-responses).
        uint32_t limit = i == 0 ? InitialWindowBlocks() : count;
        std::vector<uint32_t> idx = {i};
        for (uint32_t j = i + 1; j < limit && idx.size() < window; ++j) {
          bool in_hand = j < looked_up
                             ? have[j]
                             : cache_.Contains(DataCacheKey(inode, j)) &&
                                   cache_.Contains(TagCacheKey(inode, j));
          if (!in_hand && !answered(j)) idx.push_back(j);
        }
        std::vector<ssp::Request> gets;
        gets.reserve(idx.size());
        for (uint32_t j : idx) {
          gets.push_back(ssp::Request::Get(ssp::ObjectKey::Data(inode, j)));
        }
        SHAROES_ASSIGN_OR_RETURN(std::vector<ssp::Response> resps,
                                 MultiGet(std::move(gets)));
        for (size_t k = 0; k < idx.size(); ++k) {
          ahead[idx[k]] = std::move(resps[k]);
        }
      }
      const ssp::Response& sub = ahead[i];
      if (i == 0 && sub.status == ssp::RespStatus::kNotFound) {
        return Bytes{};  // Never written: empty file.
      }
      if (!sub.ok()) {
        // A transient kError is NOT a missing block: surfacing it as
        // NotFound (or an empty file) would corrupt reads under fault
        // injection. It maps to Unavailable and is safe to retry.
        return ReadSubError("data block " + std::to_string(i), sub.status);
      }
      const Bytes& wire = sub.payload;
      SHAROES_ASSIGN_OR_RETURN(ObjectCodec::DataBlockHeader h,
                               ObjectCodec::PeekDataHeader(wire));
      if (i > 0 && h.write_gen != desc.GenOfBlock(i)) {
        return Status::Corruption(
            "data block generation does not match the descriptor");
      }
      SHAROES_ASSIGN_OR_RETURN(crypto::SymmetricKey dek, key_for(h.key_gen));
      SHAROES_ASSIGN_OR_RETURN(
          chunks[i],
          codec_.DecodeDataBlock(inode, i, wire, dek, *node.view.dvk));
      if (i > 0) {
        SHAROES_ASSIGN_OR_RETURN(tags[i], ObjectCodec::PeekDataTag(wire));
      }
      cache_.Put(DataCacheKey(inode, i), chunks[i], wire.size());
      if (i > 0) cache_.Put(TagCacheKey(inode, i), tags[i], tags[i].size());
    }
    if (i == 0) {
      BinaryReader r(chunks[0]);
      SHAROES_ASSIGN_OR_RETURN(desc, DataDescriptor::ReadFrom(&r));
      chunks[0] = r.GetRaw(r.remaining());
      // Freshness (SUNDR-style rollback detection, paper §VIII): the
      // write generation this client has observed for an inode must
      // never move backwards. An SSP serving a stale-but-validly-signed
      // version is caught here.
      auto it = freshness_.find(inode);
      if (it != freshness_.end()) {
        if (desc.write_gen < it->second.write_gen) {
          return Status::Corruption(
              "rollback detected: write generation regressed");
        }
        // Same generation but a different tag root is SSP equivocation:
        // two distinct contents presented under one write generation.
        if (desc.write_gen == it->second.write_gen &&
            !it->second.tag_root.empty() &&
            !ConstantTimeEquals(desc.tag_root, it->second.tag_root)) {
          return Status::Corruption(
              "rollback detected: different content presented at the same "
              "write generation");
        }
      }
      freshness_[inode] = FreshnessRecord{desc.write_gen, desc.tag_root};
      count = desc.block_count;
      chunks.resize(std::max<uint32_t>(count, 1));
      tags.resize(chunks.size());
      have.resize(chunks.size(), false);
    }
  }
  std::vector<Bytes> tail_tags(tags.begin() + 1, tags.end());
  // The one signature a reader verifies (block 0) commits to the tail
  // blocks only through the descriptor's Merkle root: re-derive it from
  // the tags actually served and compare. A cross-block splice — valid
  // AEAD blocks lifted from another consistent version of this file —
  // fails here even though every individual tag authenticated, and a
  // reader who forged tail tags with the shared DEK fails here because
  // it cannot re-sign block 0 without the DSK.
  if (!ConstantTimeEquals(crypto::MerkleRoot(tail_tags), desc.tag_root)) {
    return Status::Corruption(
        "block tag root mismatch: tail blocks do not match the signed "
        "descriptor");
  }
  Bytes content = std::move(chunks[0]);
  for (size_t i = 1; i < chunks.size(); ++i) {
    ::sharoes::Append(content, chunks[i]);
  }
  if (content.size() != desc.size) {
    return Status::Corruption("file size mismatch after reassembly");
  }
  return content;
}

Result<Bytes> SharoesClient::Read(const std::string& path) {
  OpScope span(this, "Read");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(std::string norm, fs::NormalizePath(path));
  auto buf_it = write_buffers_.find(norm);
  if (buf_it != write_buffers_.end()) return buf_it->second.content;
  Prefetched ahead;
  SHAROES_ASSIGN_OR_RETURN(Node node,
                           ResolvePath(path, ReadIntent::kData, &ahead));
  if (node.view.attrs.is_dir()) {
    return Status::InvalidArgument("cannot Read a directory");
  }
  if (!fs::Allows(node.view.attrs, principal_, fs::Access::kRead)) {
    return Status::PermissionDenied("no read permission");
  }
  return FetchFileContent(node, std::move(ahead.data));
}

Status SharoesClient::Write(const std::string& path, const Bytes& content) {
  OpScope span(this, "Write");
  // Buffers key by the canonical spelling: "/a//b/" and "/a/b" are the
  // same file and must hit the same dirty buffer.
  SHAROES_ASSIGN_OR_RETURN(std::string norm, fs::NormalizePath(path));
  auto it = write_buffers_.find(norm);
  if (it != write_buffers_.end()) {
    it->second.content = content;
    it->second.dirty = true;
    return Status::OK();
  }
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(path));
  if (node.view.attrs.is_dir()) {
    return Status::InvalidArgument("cannot Write a directory");
  }
  if (!fs::Allows(node.view.attrs, principal_, fs::Access::kWrite)) {
    return Status::PermissionDenied("no write permission");
  }
  if (!node.view.CanWriteData()) {
    return Status::PermissionDenied("CAP does not expose DEK/DSK");
  }
  write_buffers_[norm] = WriteBuffer{node.ref.inode, content, true};
  return Status::OK();
}

Status SharoesClient::FlushBuffer(const std::string& path, WriteBuffer* buf) {
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(path));
  if (!node.view.CanWriteData()) {
    return Status::PermissionDenied("CAP does not expose DEK/DSK");
  }
  // Lazy revocation: a pending key means this writer performs the
  // rotation — new data goes out under dek_next (and every block must be
  // re-encrypted, so block-level diffing is disabled for that flush).
  crypto::SymmetricKey dek = *node.view.dek;
  uint32_t key_gen = node.view.dek_gen;
  bool key_rotated = false;
  if (node.view.dek_next.has_value()) {
    dek = *node.view.dek_next;
    key_gen = node.view.dek_gen + 1;
    key_rotated = true;
  }
  const Bytes& content = buf->content;
  fs::InodeNum inode = buf->inode;
  uint32_t block_count = ObjectCodec::BlockCount(content.size());
  SHAROES_ASSIGN_OR_RETURN(uint64_t write_gen, NextWriteGen(inode));

  // The paper divides files into blocks precisely so a write does not
  // re-encrypt the whole file (§II-B). When the previous version is in
  // the local cache, only changed blocks are re-encrypted and shipped.
  DataDescriptor old_desc;
  bool have_old = false;
  if (auto cached0 = cache_.Get<Bytes>(DataCacheKey(inode, 0))) {
    BinaryReader r(*cached0);
    auto parsed = DataDescriptor::ReadFrom(&r);
    if (parsed.ok()) {
      old_desc = *parsed;
      have_old = true;
    }
  }
  // Diff only when the file did not shrink and keys did not rotate.
  bool diff = have_old && !key_rotated && block_count >= old_desc.block_count;
  std::map<uint32_t, ObjectCodec::KeptBlock> kept;
  if (diff) {
    for (uint32_t i = 1; i < old_desc.block_count; ++i) {
      // Keeping a block also requires its cached AEAD tag: the new
      // descriptor's root must commit to every tail block, kept or
      // rewritten, and an uncached tag would force a read to learn it.
      auto old_chunk = cache_.Get<Bytes>(DataCacheKey(inode, i));
      auto old_tag = cache_.Get<Bytes>(TagCacheKey(inode, i));
      if (old_chunk != nullptr && old_tag != nullptr &&
          *old_chunk == ObjectCodec::BlockChunk(content, i)) {
        kept[i] = ObjectCodec::KeptBlock{*old_tag, old_desc.GenOfBlock(i)};
      }
    }
  }

  ObjectCodec::FileBlockSet set = codec_.FileBlockPuts(
      inode, content, {key_gen, write_gen}, dek, *node.view.dsk, kept);
  // Without a diff basis the stored shape may shrink: clear stale blocks
  // first. A diffed write only grows or keeps the block count.
  std::vector<ssp::Request> puts;
  if (!diff) {
    puts.push_back(ssp::Request::DeleteRange(ssp::ObjectFamily::kData,
                                             inode));
  }
  // Cache what was written: each rewritten tail block with its tag, then
  // block 0 (the set's first put).
  size_t next_put = 1;
  for (uint32_t idx = 1; idx < block_count; ++idx) {
    if (kept.count(idx) != 0) continue;
    cache_.Put(DataCacheKey(inode, idx),
               ObjectCodec::BlockChunk(content, idx),
               set.puts[next_put++].payload.size());
    cache_.Put(TagCacheKey(inode, idx), set.tail_tags[idx - 1],
               set.tail_tags[idx - 1].size());
  }
  cache_.Put(DataCacheKey(inode, 0), set.plain0, set.puts[0].payload.size());
  AppendRequests(std::move(set.puts), &puts);
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(puts)));
  freshness_[inode] = FreshnessRecord{write_gen, set.desc.tag_root};
  return Status::OK();
}

Result<uint64_t> SharoesClient::NextWriteGen(fs::InodeNum inode) {
  auto it = freshness_.find(inode);
  if (it != freshness_.end()) return it->second.write_gen + 1;
  // Unknown history (overwrite of a never-read file): peek the stored
  // header so generations stay monotonic for other clients.
  SHAROES_ASSIGN_OR_RETURN(
      ssp::Response resp,
      Rpc(ssp::Request::Get(ssp::ObjectKey::Data(inode, 0))));
  if (resp.status == ssp::RespStatus::kNotFound) return 1;  // Never written.
  if (!resp.ok()) {
    // A transient failure must not be mistaken for "never written":
    // starting over at generation 1 would trip other clients' rollback
    // detection. Surface it and let the caller retry.
    return ReadSubError("data block 0", resp.status);
  }
  SHAROES_ASSIGN_OR_RETURN(ObjectCodec::DataBlockHeader h,
                           ObjectCodec::PeekDataHeader(resp.payload));
  return h.write_gen + 1;
}

Status SharoesClient::Close(const std::string& path) {
  OpScope span(this, "Close");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(std::string norm, fs::NormalizePath(path));
  auto it = write_buffers_.find(norm);
  Status s = Status::OK();
  if (it != write_buffers_.end()) {
    if (it->second.dirty) s = FlushBuffer(path, &it->second);
    write_buffers_.erase(it);
  }
  // Close is a durability point: whatever the write-behind layer staged
  // (this file's blocks, and any earlier logical ops sharing the batch)
  // ships now, so a Close that returned OK means the SSP acked the data.
  Status flushed = FlushPendingWrites();
  return s.ok() ? flushed : s;
}

Status SharoesClient::Chmod(const std::string& path, fs::Mode mode) {
  OpScope span(this, "Chmod");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(path));
  fs::InodeAttrs attrs = node.view.attrs;
  if (uid_ != attrs.owner) {
    return Status::PermissionDenied("only the owner may chmod");
  }
  if (!ModeSupported(attrs.type, mode)) {
    return Status::Unsupported("mode " + mode.ToString() +
                               " is not representable for a " +
                               fs::FileTypeName(attrs.type));
  }
  SHAROES_ASSIGN_OR_RETURN(ObjectKeyBundle bundle, node.view.ToBundle());

  // Which non-owner CAPs lose access? Their holders may have cached the
  // keys, so revocation requires rotation (paper §IV-A.1).
  OwnershipInfo old_info = OwnershipInfo::FromAttrs(attrs);
  fs::InodeAttrs new_attrs = attrs;
  new_attrs.mode = mode;
  OwnershipInfo new_info = OwnershipInfo::FromAttrs(new_attrs);
  std::vector<ReplicaSpec> old_specs =
      ReplicasFor(old_info, options_.scheme, *identity_);
  std::vector<ReplicaSpec> new_specs =
      ReplicasFor(new_info, options_.scheme, *identity_);
  bool lost_read = false, lost_write = false, dir_weakened = false;
  for (const ReplicaSpec& old_spec : old_specs) {
    if (old_spec.owner) continue;
    CapFields old_fields = old_spec.Fields(attrs.type);
    CapFields new_fields;
    for (const ReplicaSpec& ns : new_specs) {
      if (ns.selector == old_spec.selector) {
        new_fields = ns.Fields(attrs.type);
        break;
      }
    }
    if (old_fields.can_read_data() && !new_fields.can_read_data()) {
      lost_read = true;
    }
    if (old_fields.can_write_data() && !new_fields.can_write_data()) {
      lost_write = true;
    }
    if (static_cast<int>(new_fields.table_view) <
        static_cast<int>(old_fields.table_view)) {
      // Coarse "weaker view" check: kNone < kNamesOnly < kFull; exec-only
      // transitions are handled by the read/write checks above.
      dir_weakened = true;
    }
  }

  // For directories, fetch the master with the *old* keys before any
  // rotation.
  MasterTable master;
  if (attrs.type == fs::FileType::kDirectory) {
    SHAROES_ASSIGN_OR_RETURN(master, FetchMaster(node, bundle));
  }

  std::vector<ssp::Request> batch;
  std::optional<crypto::SymmetricKey> dek_next = node.view.dek_next;
  uint32_t dek_gen = node.view.dek_gen;
  bool revoke = lost_read || lost_write;
  if (revoke && attrs.type == fs::FileType::kFile) {
    if (options_.revocation == RevocationMode::kImmediate) {
      // Re-encrypt the file under fresh keys right now.
      SHAROES_ASSIGN_OR_RETURN(Bytes content, FetchFileContent(node));
      bundle.dek = engine_->NewSymmetricKey();
      if (lost_write) bundle.data = engine_->NewSigningKeyPair();
      dek_gen += 1;
      dek_next.reset();
      SHAROES_ASSIGN_OR_RETURN(uint64_t write_gen, NextWriteGen(attrs.inode));
      ObjectCodec::FileBlockSet set = codec_.FileBlockPuts(
          attrs.inode, content, {dek_gen, write_gen}, bundle.dek,
          bundle.data.sign);
      freshness_[attrs.inode] = FreshnessRecord{write_gen, set.desc.tag_root};
      batch.push_back(ssp::Request::DeleteRange(ssp::ObjectFamily::kData,
                                                attrs.inode));
      AppendRequests(std::move(set.puts), &batch);
    } else if (!dek_next.has_value()) {
      // Lazy: record the next key; the next writer rotates.
      dek_next = engine_->NewSymmetricKey();
    }
  }
  if ((revoke || dir_weakened) && attrs.type == fs::FileType::kDirectory) {
    // Rotate every table key; copies are rebuilt below under new keys
    // (this also rotates the exec-only per-name derivations).
    for (auto& [sel, key] : bundle.table_keys) {
      (void)sel;
      key = engine_->NewSymmetricKey();
    }
  }

  // Rebuild every metadata replica with the new mode (selectors and MEKs
  // are class-stable, so parent rows and superblocks stay valid).
  AppendRequests(codec_.MetadataReplicaPuts(new_specs, new_attrs, bundle,
                                            dek_gen, dek_next),
                 &batch);
  // Directories: re-render the tables (view kinds / keys may have changed).
  if (attrs.type == fs::FileType::kDirectory) {
    WriterDirContext ctx;
    ctx.node = node;
    ctx.node.view.attrs = new_attrs;
    ctx.bundle = bundle;
    ctx.ownership = new_info;
    ctx.master = std::move(master);
    SHAROES_RETURN_IF_ERROR(RenderDirTables(ctx, &batch));
  }
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch)));
  InvalidateInode(attrs.inode);
  return Status::OK();
}

Status SharoesClient::RemoveObject(const std::string& path,
                                   fs::FileType type) {
  OpScope span(this, type == fs::FileType::kDirectory ? "Rmdir" : "Unlink");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent sp, fs::SplitParentName(path));
  SHAROES_ASSIGN_OR_RETURN(WriterDirContext ctx, LoadDirForWrite(sp.parent));
  const MasterEntry* entry = ctx.master.Find(sp.name);
  if (entry == nullptr) return Status::NotFound("'" + path + "' not found");
  if (entry->child.type != type) {
    return type == fs::FileType::kDirectory
               ? Status::InvalidArgument("'" + path + "' is not a directory")
               : Status::InvalidArgument("'" + path + "' is a directory");
  }
  fs::InodeNum child_inode = entry->inode;
  if (type == fs::FileType::kDirectory) {
    // rmdir requires the directory to be empty. We verify through our own
    // CAP on the child; a caller whose CAP hides the table cannot prove
    // emptiness and is refused (documented deviation, DESIGN.md).
    SHAROES_ASSIGN_OR_RETURN(Node child, ResolvePath(path));
    auto table = FetchTable(child);
    if (!table.ok()) {
      return Status::PermissionDenied(
          "cannot verify directory is empty through this CAP");
    }
    size_t entries = (*table)->names.size() + (*table)->exec_rows.size();
    if (entries > 0) {
      return Status::FailedPrecondition("directory not empty");
    }
  }
  SHAROES_RETURN_IF_ERROR(ctx.master.Remove(sp.name));
  std::vector<ssp::Request> batch;
  SHAROES_RETURN_IF_ERROR(RenderDirTables(ctx, &batch));
  batch.push_back(ssp::Request::DeleteRange(ssp::ObjectFamily::kMetadata,
                                            child_inode));
  batch.push_back(ssp::Request::DeleteRange(ssp::ObjectFamily::kData,
                                            child_inode));
  // Remove any split blocks of the child.
  for (fs::UserId uid : identity_->AllUsers()) {
    batch.push_back(ssp::Request::Delete(
        ssp::ObjectKey::UserMetadata(child_inode, uid)));
  }
  for (fs::GroupId gid : identity_->AllGroups()) {
    batch.push_back(ssp::Request::Delete(
        ssp::ObjectKey::UserMetadata(child_inode, GroupBlockKey(gid))));
  }
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch)));
  InvalidateInode(child_inode);
  SHAROES_ASSIGN_OR_RETURN(std::string norm, fs::NormalizePath(path));
  write_buffers_.erase(norm);
  return Status::OK();
}

Status SharoesClient::Rename(const std::string& from,
                             const std::string& to) {
  OpScope span(this, "Rename");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent src, fs::SplitParentName(from));
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent dst, fs::SplitParentName(to));
  // Compare canonical spellings: "/a//b" and "/a/b" are the same path, and
  // the prefix test below only works on canonical forms.
  SHAROES_ASSIGN_OR_RETURN(std::string nfrom, fs::NormalizePath(from));
  SHAROES_ASSIGN_OR_RETURN(std::string nto, fs::NormalizePath(to));
  // Moving a directory under itself would orphan the subtree.
  if (fs::IsBelow(nto, nfrom)) {
    return Status::InvalidArgument("cannot move a directory into itself");
  }
  if (nfrom == nto) return Status::OK();

  SHAROES_ASSIGN_OR_RETURN(WriterDirContext src_ctx,
                           LoadDirForWrite(src.parent));
  MasterEntry* entry = src_ctx.master.Find(src.name);
  if (entry == nullptr) return Status::NotFound("'" + from + "' not found");

  if (src.parent == dst.parent) {
    // Same-directory rename: one master edit, one table render.
    if (src_ctx.master.Find(dst.name) != nullptr) {
      return Status::AlreadyExists("'" + to + "' already exists");
    }
    entry->name = dst.name;
    std::vector<ssp::Request> batch;
    SHAROES_RETURN_IF_ERROR(RenderDirTables(src_ctx, &batch));
    SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch)));
  } else {
    // Cross-directory move. The child's replicas, selectors and MEKs are
    // all parent-independent, so only the two masters (and their rendered
    // copies) change.
    SHAROES_ASSIGN_OR_RETURN(WriterDirContext dst_ctx,
                             LoadDirForWrite(dst.parent));
    if (dst_ctx.node.ref.inode == entry->inode) {
      return Status::InvalidArgument("cannot move a directory into itself");
    }
    if (dst_ctx.master.Find(dst.name) != nullptr) {
      return Status::AlreadyExists("'" + to + "' already exists");
    }
    MasterEntry moved = *entry;
    moved.name = dst.name;
    SHAROES_RETURN_IF_ERROR(src_ctx.master.Remove(src.name));
    SHAROES_RETURN_IF_ERROR(dst_ctx.master.Add(std::move(moved)));
    std::vector<ssp::Request> batch;
    SHAROES_RETURN_IF_ERROR(RenderDirTables(src_ctx, &batch));
    SHAROES_RETURN_IF_ERROR(RenderDirTables(dst_ctx, &batch));
    SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch)));
  }
  // Any buffered writes follow the move — the file itself, and when a
  // directory moves, every buffered file underneath it (their old paths
  // no longer resolve, so a stranded buffer would flush into NotFound or,
  // worse, a recreated file at the old path).
  fs::RekeySubtree(&write_buffers_, nfrom, nto);
  return Status::OK();
}

Status SharoesClient::RefreshDir(const std::string& path) {
  OpScope span(this, "RefreshDir");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(path));
  if (!node.view.attrs.is_dir()) {
    return Status::InvalidArgument("'" + path + "' is not a directory");
  }
  // Owner bundle preferred (full); plain writers can refresh too.
  ObjectKeyBundle bundle;
  if (auto owner_bundle = node.view.ToBundle(); owner_bundle.ok()) {
    bundle = std::move(*owner_bundle);
  } else {
    SHAROES_ASSIGN_OR_RETURN(bundle, BundleForWriter(node.view));
  }
  WriterDirContext ctx;
  ctx.ownership = OwnershipInfo::FromAttrs(node.view.attrs);
  SHAROES_ASSIGN_OR_RETURN(ctx.master, FetchMaster(node, bundle));
  ctx.node = std::move(node);
  ctx.bundle = std::move(bundle);
  std::vector<ssp::Request> batch;
  SHAROES_RETURN_IF_ERROR(RenderDirTables(ctx, &batch));
  return ExecuteBatch(std::move(batch));
}

Status SharoesClient::Unlink(const std::string& path) {
  return RemoveObject(path, fs::FileType::kFile);
}

Status SharoesClient::Rmdir(const std::string& path) {
  return RemoveObject(path, fs::FileType::kDirectory);
}

}  // namespace sharoes::core
