#include "baselines/baseline.h"

#include "crypto/ctr.h"
#include "crypto/merkle.h"
#include "fs/path.h"
#include "fs/superblock.h"

namespace sharoes::baselines {

namespace {
/// Pseudo-user slot holding the shared plaintext superblock.
constexpr uint32_t kSuperblockSlot = 0;
/// Bytes of the pad standing in for signing key material in the
/// public-key modes' records (EXPERIMENTS.md: PUBLIC's Figure 9 list cost
/// implies about 16 RSA blocks per object).
constexpr size_t kMetadataPadBytes = 3700;

// ----- The baseline layout -----
// One encoder per stored object kind. BaselineProvisioner and
// BaselineClient both write through these, so a migrated tree and a
// client-built one are stored alike.

/// A new object's record: `attrs`, a fresh data key (none in
/// NO-ENC-MD-D) and, in the public-key modes, the pad standing in for
/// signing key material.
BaselineRecord NewRecord(const BaselineOptions& opts,
                         crypto::CryptoEngine* engine, fs::InodeAttrs attrs) {
  BaselineRecord rec;
  rec.attrs = std::move(attrs);
  if (opts.mode != SecurityMode::kNoEncMdD) {
    rec.dek = engine->NewSymmetricKey().key;
  }
  if (opts.mode == SecurityMode::kPublic ||
      opts.mode == SecurityMode::kPubOpt) {
    rec.signing_material = Bytes(kMetadataPadBytes, 0x5A);
  }
  return rec;
}

/// Encrypts table or file bytes under the object's data key, except in
/// NO-ENC-MD-D, which stores them in the clear.
Bytes SealData(SecurityMode mode, crypto::CryptoEngine* engine,
               const Bytes& dek, const Bytes& plain) {
  if (mode == SecurityMode::kNoEncMdD) return plain;
  return engine->SymEncrypt(crypto::SymmetricKey{dek}, plain);
}

/// The puts storing a record: one plaintext put (NO-ENC modes), one
/// sealed put plus its key wrapped to every user (PUB-OPT), or one RSA
/// copy per user (PUBLIC).
Status RecordPuts(SecurityMode mode, const core::IdentityDirectory& identity,
                  crypto::CryptoEngine* engine, const BaselineRecord& record,
                  std::vector<ssp::Request>* out) {
  Bytes plain = record.Serialize();
  fs::InodeNum inode = record.attrs.inode;
  switch (mode) {
    case SecurityMode::kNoEncMdD:
    case SecurityMode::kNoEncMd:
      out->push_back(ssp::Request::Put(ssp::ObjectKey::Metadata(inode, 0),
                                       std::move(plain)));
      return Status::OK();
    case SecurityMode::kPubOpt: {
      crypto::SymmetricKey k = engine->NewSymmetricKey();
      out->push_back(ssp::Request::Put(ssp::ObjectKey::Metadata(inode, 0),
                                       engine->SymEncrypt(k, plain)));
      for (fs::UserId uid : identity.AllUsers()) {
        SHAROES_ASSIGN_OR_RETURN(core::UserInfo user, identity.GetUser(uid));
        SHAROES_ASSIGN_OR_RETURN(Bytes wrapped,
                                 engine->PkEncrypt(user.public_key, k.key));
        out->push_back(ssp::Request::Put(
            ssp::ObjectKey::UserMetadata(inode, uid), std::move(wrapped)));
      }
      return Status::OK();
    }
    case SecurityMode::kPublic: {
      for (fs::UserId uid : identity.AllUsers()) {
        SHAROES_ASSIGN_OR_RETURN(core::UserInfo user, identity.GetUser(uid));
        SHAROES_ASSIGN_OR_RETURN(Bytes enc,
                                 engine->PkEncrypt(user.public_key, plain));
        out->push_back(ssp::Request::Put(
            ssp::ObjectKey::UserMetadata(inode, uid), std::move(enc)));
      }
      return Status::OK();
    }
  }
  return Status::Internal("bad mode");
}

/// The put storing a directory's table, in block 0 of its data.
ssp::Request TablePut(SecurityMode mode, crypto::CryptoEngine* engine,
                      const BaselineRecord& dir, const fs::DirTable& table) {
  return ssp::Request::Put(ssp::ObjectKey::Data(dir.attrs.inode, 0),
                           SealData(mode, engine, dir.dek, table.Serialize()));
}

/// The puts storing a file's content: the descriptor and first chunk in
/// block 1, each further chunk in the next block (block 0 is reserved for
/// directory tables). `plains`, when non-null, receives each put's
/// plaintext.
std::vector<ssp::Request> FileBlockPuts(const BaselineOptions& opts,
                                        crypto::CryptoEngine* engine,
                                        const BaselineRecord& file,
                                        const Bytes& content,
                                        std::vector<Bytes>* plains) {
  core::DataDescriptor desc;
  desc.size = content.size();
  desc.block_count = core::ObjectCodec::BlockCount(content.size());
  // Baselines have no per-block AEAD tags; the zero root keeps the
  // descriptor wire shape shared with the SHAROES client.
  desc.tag_root = Bytes(crypto::kMerkleRootSize, 0);
  std::vector<ssp::Request> puts;
  for (uint32_t i = 0; i < desc.block_count; ++i) {
    Bytes plain = core::ObjectCodec::BlockChunk(content, i);
    if (i == 0) {
      BinaryWriter w;
      desc.AppendTo(&w);
      w.PutRaw(plain);
      plain = w.Take();
    }
    puts.push_back(
        ssp::Request::Put(ssp::ObjectKey::Data(file.attrs.inode, i + 1),
                          SealData(opts.mode, engine, file.dek, plain)));
    if (plains != nullptr) plains->push_back(std::move(plain));
  }
  return puts;
}

}  // namespace

std::string SecurityModeName(SecurityMode mode) {
  switch (mode) {
    case SecurityMode::kNoEncMdD:
      return "NO-ENC-MD-D";
    case SecurityMode::kNoEncMd:
      return "NO-ENC-MD";
    case SecurityMode::kPublic:
      return "PUBLIC";
    case SecurityMode::kPubOpt:
      return "PUB-OPT";
  }
  return "?";
}

Bytes BaselineRecord::Serialize() const {
  BinaryWriter w;
  attrs.AppendTo(&w);
  w.PutBytes(dek);
  w.PutBytes(signing_material);
  return w.Take();
}

Result<BaselineRecord> BaselineRecord::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  BaselineRecord rec;
  SHAROES_ASSIGN_OR_RETURN(rec.attrs, fs::InodeAttrs::ReadFrom(&r));
  rec.dek = r.GetBytes();
  rec.signing_material = r.GetBytes();
  SHAROES_RETURN_IF_ERROR(r.Finish("baseline record"));
  return rec;
}

// ---------------------------------------------------------------------------
// Provisioner
// ---------------------------------------------------------------------------

BaselineProvisioner::BaselineProvisioner(
    const core::IdentityDirectory* identity, ssp::SspServer* server,
    crypto::CryptoEngine* engine, const BaselineOptions& options)
    : identity_(identity),
      server_(server),
      engine_(engine),
      options_(options) {}

void BaselineProvisioner::Apply(std::vector<ssp::Request> puts) {
  for (ssp::Request& req : puts) {
    server_->store().Put(req.key, std::move(req.payload));
  }
}

Status BaselineProvisioner::MigrateNode(const core::LocalNode& spec,
                                        fs::InodeNum inode) {
  fs::InodeAttrs attrs;
  attrs.inode = inode;
  attrs.type = spec.type;
  attrs.owner = spec.owner;
  attrs.group = spec.group;
  attrs.mode = spec.mode;
  attrs.acl = spec.acl;
  attrs.size = spec.content.size();
  BaselineRecord rec = NewRecord(options_, engine_, std::move(attrs));
  if (spec.type == fs::FileType::kDirectory) {
    fs::DirTable table;
    for (const core::LocalNode& child : spec.children) {
      fs::InodeNum child_inode = ++next_inode_;
      SHAROES_RETURN_IF_ERROR(table.Add(child.name, child_inode));
      SHAROES_RETURN_IF_ERROR(MigrateNode(child, child_inode));
    }
    Apply({TablePut(options_.mode, engine_, rec, table)});
  } else {
    Apply(FileBlockPuts(options_, engine_, rec, spec.content, nullptr));
  }
  std::vector<ssp::Request> record_puts;
  SHAROES_RETURN_IF_ERROR(
      RecordPuts(options_.mode, *identity_, engine_, rec, &record_puts));
  Apply(std::move(record_puts));
  return Status::OK();
}

Status BaselineProvisioner::Migrate(const core::LocalNode& root) {
  if (root.type != fs::FileType::kDirectory) {
    return Status::InvalidArgument("root must be a directory");
  }
  next_inode_ = fs::kRootInode;
  SHAROES_RETURN_IF_ERROR(MigrateNode(root, fs::kRootInode));
  fs::Superblock sb;
  sb.root_inode = fs::kRootInode;
  server_->store().Put(ssp::ObjectKey::Superblock(kSuperblockSlot),
                       sb.Serialize());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

BaselineClient::BaselineClient(fs::UserId uid,
                               crypto::RsaPrivateKey user_private_key,
                               const core::IdentityDirectory* identity,
                               ssp::SspChannel* conn,
                               crypto::CryptoEngine* engine,
                               const BaselineOptions& options)
    : uid_(uid),
      principal_(identity->PrincipalOf(uid)),
      user_priv_(std::move(user_private_key)),
      identity_(identity),
      conn_(conn),
      engine_(engine),
      options_(options),
      cache_(options.cache_bytes),
      inode_counter_(engine->rng().NextU64() & 0xFFFFFFFFULL) {}

void BaselineClient::ChargeClientOverhead() {
  if (engine_->clock() != nullptr) {
    engine_->clock()->AdvanceMs(options_.client_overhead_ms,
                                CostCategory::kOther);
  }
}

fs::InodeNum BaselineClient::AllocateInode() {
  return (static_cast<uint64_t>(uid_) + 2) << 40 |
         (inode_counter_++ & 0xFFFFFFFFFFull);
}

void BaselineClient::InvalidateInode(fs::InodeNum inode) {
  std::string id = std::to_string(inode);
  cache_.ErasePrefix("m|" + id);
  cache_.ErasePrefix("t|" + id);
  cache_.ErasePrefix("d|" + id);
}

Status BaselineClient::EvictPath(const std::string& path) {
  BaselineRecord rec;
  SHAROES_RETURN_IF_ERROR(ResolveInode(path, &rec).status());
  InvalidateInode(rec.attrs.inode);
  return Status::OK();
}

Status BaselineClient::Mount() {
  principal_ = identity_->PrincipalOf(uid_);
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(
      ssp::Response resp,
      conn_->Call(ssp::Request::Get(ssp::ObjectKey::Superblock(
          kSuperblockSlot))));
  if (!resp.ok()) return Status::NotFound("no superblock");
  SHAROES_ASSIGN_OR_RETURN(fs::Superblock sb,
                           fs::Superblock::Deserialize(resp.payload));
  (void)sb;
  mounted_ = true;
  return Status::OK();
}

Result<BaselineRecord> BaselineClient::FetchRecord(fs::InodeNum inode) {
  std::string key = "m|" + std::to_string(inode);
  if (auto cached = cache_.Get<BaselineRecord>(key)) return *cached;
  switch (options_.mode) {
    case SecurityMode::kNoEncMdD:
    case SecurityMode::kNoEncMd: {
      SHAROES_ASSIGN_OR_RETURN(
          ssp::Response resp,
          conn_->Call(ssp::Request::Get(ssp::ObjectKey::Metadata(inode, 0))));
      if (!resp.ok()) return Status::NotFound("metadata not at SSP");
      SHAROES_ASSIGN_OR_RETURN(BaselineRecord rec,
                               BaselineRecord::Deserialize(resp.payload));
      cache_.Put(key, rec, resp.payload.size());
      return rec;
    }
    case SecurityMode::kPubOpt: {
      // One round trip fetches the sealed record and our wrapped key.
      std::vector<ssp::Request> reqs;
      reqs.push_back(ssp::Request::Get(ssp::ObjectKey::Metadata(inode, 0)));
      reqs.push_back(ssp::Request::Get(ssp::ObjectKey::UserMetadata(inode,
                                                                    uid_)));
      SHAROES_ASSIGN_OR_RETURN(
          ssp::Response resp,
          conn_->Call(ssp::Request::Batch(std::move(reqs))));
      if (resp.batch.size() != 2 || !resp.batch[0].ok() ||
          !resp.batch[1].ok()) {
        return Status::NotFound("metadata or key block not at SSP");
      }
      SHAROES_ASSIGN_OR_RETURN(
          Bytes k, engine_->PkDecrypt(user_priv_, resp.batch[1].payload));
      SHAROES_ASSIGN_OR_RETURN(crypto::SymmetricKey key_obj,
                               crypto::SymmetricKey::Deserialize(k));
      SHAROES_ASSIGN_OR_RETURN(
          Bytes plain, engine_->SymDecrypt(key_obj, resp.batch[0].payload));
      SHAROES_ASSIGN_OR_RETURN(BaselineRecord rec,
                               BaselineRecord::Deserialize(plain));
      cache_.Put(key, rec,
                 resp.batch[0].payload.size() + resp.batch[1].payload.size());
      return rec;
    }
    case SecurityMode::kPublic: {
      SHAROES_ASSIGN_OR_RETURN(
          ssp::Response resp,
          conn_->Call(ssp::Request::Get(ssp::ObjectKey::UserMetadata(inode,
                                                                     uid_))));
      if (!resp.ok()) return Status::NotFound("metadata copy not at SSP");
      SHAROES_ASSIGN_OR_RETURN(Bytes plain,
                               engine_->PkDecrypt(user_priv_, resp.payload));
      SHAROES_ASSIGN_OR_RETURN(BaselineRecord rec,
                               BaselineRecord::Deserialize(plain));
      cache_.Put(key, rec, resp.payload.size());
      return rec;
    }
  }
  return Status::Internal("bad mode");
}

Result<fs::DirTable> BaselineClient::FetchTable(const BaselineRecord& dir) {
  std::string key = "t|" + std::to_string(dir.attrs.inode);
  if (auto cached = cache_.Get<fs::DirTable>(key)) return *cached;
  SHAROES_ASSIGN_OR_RETURN(
      ssp::Response resp,
      conn_->Call(ssp::Request::Get(ssp::ObjectKey::Data(dir.attrs.inode, 0))));
  if (!resp.ok()) return Status::NotFound("dir table not at SSP");
  Bytes plain = resp.payload;
  if (options_.mode != SecurityMode::kNoEncMdD) {
    SHAROES_ASSIGN_OR_RETURN(crypto::SymmetricKey dek,
                             crypto::SymmetricKey::Deserialize(dir.dek));
    SHAROES_ASSIGN_OR_RETURN(plain, engine_->SymDecrypt(dek, resp.payload));
  }
  SHAROES_ASSIGN_OR_RETURN(fs::DirTable table,
                           fs::DirTable::Deserialize(plain));
  cache_.Put(key, table, resp.payload.size());
  return table;
}

Result<fs::InodeNum> BaselineClient::ResolveInode(const std::string& path,
                                                  BaselineRecord* out_record) {
  if (!mounted_) return Status::FailedPrecondition("not mounted");
  SHAROES_ASSIGN_OR_RETURN(std::vector<std::string> comps,
                           fs::SplitPath(path));
  fs::InodeNum inode = fs::kRootInode;
  SHAROES_ASSIGN_OR_RETURN(BaselineRecord rec, FetchRecord(inode));
  for (const std::string& comp : comps) {
    if (!rec.attrs.is_dir()) {
      return Status::InvalidArgument("'" + comp +
                                     "' parent is not a directory");
    }
    SHAROES_ASSIGN_OR_RETURN(fs::DirTable table, FetchTable(rec));
    auto child = table.Lookup(comp);
    if (!child.has_value()) {
      return Status::NotFound("no entry named '" + comp + "'");
    }
    inode = *child;
    SHAROES_ASSIGN_OR_RETURN(rec, FetchRecord(inode));
  }
  if (out_record != nullptr) *out_record = std::move(rec);
  return inode;
}

Result<fs::InodeAttrs> BaselineClient::Getattr(const std::string& path) {
  ChargeClientOverhead();
  BaselineRecord rec;
  SHAROES_RETURN_IF_ERROR(ResolveInode(path, &rec).status());
  return rec.attrs;
}

Result<std::vector<std::string>> BaselineClient::Readdir(
    const std::string& path) {
  ChargeClientOverhead();
  BaselineRecord rec;
  SHAROES_RETURN_IF_ERROR(ResolveInode(path, &rec).status());
  if (!rec.attrs.is_dir()) return Status::InvalidArgument("not a directory");
  SHAROES_ASSIGN_OR_RETURN(fs::DirTable table, FetchTable(rec));
  std::vector<std::string> names;
  names.reserve(table.size());
  for (const fs::DirEntry& e : table.entries()) names.push_back(e.name);
  return names;
}

Status BaselineClient::ExecuteBatch(std::vector<ssp::Request> requests) {
  if (requests.empty()) return Status::OK();
  SHAROES_ASSIGN_OR_RETURN(
      ssp::Response resp,
      conn_->Call(ssp::Request::Batch(std::move(requests))));
  if (!resp.ok()) return Status::IoError("SSP rejected batch");
  return Status::OK();
}

Status BaselineClient::CreateObject(const std::string& path,
                                    fs::FileType type,
                                    const core::CreateOptions& opts) {
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent sp, fs::SplitParentName(path));
  BaselineRecord parent;
  SHAROES_RETURN_IF_ERROR(ResolveInode(sp.parent, &parent).status());
  if (!parent.attrs.is_dir()) {
    return Status::InvalidArgument("parent is not a directory");
  }
  // Baselines implement the related work's file-level model: directory
  // writes are allowed to any user with write on the directory record.
  if (!fs::Allows(parent.attrs, principal_, fs::Access::kWrite)) {
    return Status::PermissionDenied("no write permission on directory");
  }
  SHAROES_ASSIGN_OR_RETURN(fs::DirTable table, FetchTable(parent));
  if (table.Contains(sp.name)) {
    return Status::AlreadyExists("'" + path + "' already exists");
  }

  fs::InodeAttrs attrs;
  attrs.inode = AllocateInode();
  attrs.type = type;
  attrs.owner = uid_;
  attrs.group = parent.attrs.group;
  attrs.mode = opts.mode;
  attrs.acl = opts.acl;
  BaselineRecord rec = NewRecord(options_, engine_, std::move(attrs));

  // Batch 1: the new object's metadata (+ empty table for directories).
  std::vector<ssp::Request> batch1;
  SHAROES_RETURN_IF_ERROR(
      RecordPuts(options_.mode, *identity_, engine_, rec, &batch1));
  if (type == fs::FileType::kDirectory) {
    batch1.push_back(TablePut(options_.mode, engine_, rec, fs::DirTable{}));
  }
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch1)));

  // Batch 2: the parent's updated table.
  SHAROES_RETURN_IF_ERROR(table.Add(sp.name, rec.attrs.inode));
  std::vector<ssp::Request> batch2;
  batch2.push_back(TablePut(options_.mode, engine_, parent, table));
  size_t table_size = batch2.back().payload.size();
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch2)));
  // Keep what we just wrote in cache (the client has it all in memory).
  cache_.Put("t|" + std::to_string(parent.attrs.inode), table, table_size);
  cache_.Put("m|" + std::to_string(rec.attrs.inode), rec,
             rec.Serialize().size());
  return Status::OK();
}

Status BaselineClient::Mkdir(const std::string& path,
                             const core::CreateOptions& opts) {
  return CreateObject(path, fs::FileType::kDirectory, opts);
}

Status BaselineClient::Create(const std::string& path,
                              const core::CreateOptions& opts) {
  return CreateObject(path, fs::FileType::kFile, opts);
}

Result<Bytes> BaselineClient::FetchFileContent(const BaselineRecord& record) {
  fs::InodeNum inode = record.attrs.inode;
  crypto::SymmetricKey dek;
  if (options_.mode != SecurityMode::kNoEncMdD) {
    SHAROES_ASSIGN_OR_RETURN(dek,
                             crypto::SymmetricKey::Deserialize(record.dek));
  }
  auto decode = [&](const Bytes& wire) -> Result<Bytes> {
    if (options_.mode == SecurityMode::kNoEncMdD) return wire;
    return engine_->SymDecrypt(dek, wire);
  };

  Bytes plain0;
  std::string key0 = "d|" + std::to_string(inode) + "|1";
  if (auto cached = cache_.Get<Bytes>(key0)) {
    plain0 = *cached;
  } else {
    SHAROES_ASSIGN_OR_RETURN(
        ssp::Response resp,
        conn_->Call(ssp::Request::Get(ssp::ObjectKey::Data(inode, 1))));
    if (!resp.ok()) return Bytes{};  // Never written.
    SHAROES_ASSIGN_OR_RETURN(plain0, decode(resp.payload));
    cache_.Put(key0, plain0, resp.payload.size());
  }
  BinaryReader r0(plain0);
  SHAROES_ASSIGN_OR_RETURN(core::DataDescriptor desc,
                           core::DataDescriptor::ReadFrom(&r0));
  Bytes content = r0.GetRaw(r0.remaining());
  if (desc.block_count > 1) {
    std::vector<ssp::Request> gets;
    std::vector<uint32_t> missing;
    std::map<uint32_t, Bytes> chunks;
    for (uint32_t i = 1; i < desc.block_count; ++i) {
      std::string key = "d|" + std::to_string(inode) + "|" +
                        std::to_string(i + 1);
      if (auto cached = cache_.Get<Bytes>(key)) {
        chunks[i] = *cached;
        continue;
      }
      missing.push_back(i);
      gets.push_back(ssp::Request::Get(ssp::ObjectKey::Data(inode, i + 1)));
    }
    if (!gets.empty()) {
      SHAROES_ASSIGN_OR_RETURN(
          ssp::Response resp,
          conn_->Call(ssp::Request::Batch(std::move(gets))));
      if (resp.batch.size() != missing.size()) {
        return Status::IoError("short batch response");
      }
      for (size_t i = 0; i < missing.size(); ++i) {
        if (!resp.batch[i].ok()) return Status::IoError("missing block");
        SHAROES_ASSIGN_OR_RETURN(Bytes plain, decode(resp.batch[i].payload));
        cache_.Put("d|" + std::to_string(inode) + "|" +
                       std::to_string(missing[i] + 1),
                   plain, resp.batch[i].payload.size());
        chunks[missing[i]] = std::move(plain);
      }
    }
    for (uint32_t i = 1; i < desc.block_count; ++i) {
      content.insert(content.end(), chunks[i].begin(), chunks[i].end());
    }
  }
  if (content.size() != desc.size) {
    return Status::Corruption("file size mismatch after reassembly");
  }
  return content;
}

Result<Bytes> BaselineClient::Read(const std::string& path) {
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(std::string norm, fs::NormalizePath(path));
  auto buf_it = write_buffers_.find(norm);
  if (buf_it != write_buffers_.end()) return buf_it->second.content;
  BaselineRecord rec;
  SHAROES_RETURN_IF_ERROR(ResolveInode(path, &rec).status());
  if (rec.attrs.is_dir()) {
    return Status::InvalidArgument("cannot Read a directory");
  }
  if (!fs::Allows(rec.attrs, principal_, fs::Access::kRead)) {
    return Status::PermissionDenied("no read permission");
  }
  return FetchFileContent(rec);
}

Status BaselineClient::Write(const std::string& path, const Bytes& content) {
  // Buffers key by the canonical spelling: "/a//b" and "/a/b" are one
  // file and must hit one dirty buffer.
  SHAROES_ASSIGN_OR_RETURN(std::string norm, fs::NormalizePath(path));
  auto it = write_buffers_.find(norm);
  if (it != write_buffers_.end()) {
    it->second.content = content;
    it->second.dirty = true;
    return Status::OK();
  }
  BaselineRecord rec;
  SHAROES_RETURN_IF_ERROR(ResolveInode(path, &rec).status());
  if (rec.attrs.is_dir()) {
    return Status::InvalidArgument("cannot Write a directory");
  }
  if (!fs::Allows(rec.attrs, principal_, fs::Access::kWrite)) {
    return Status::PermissionDenied("no write permission");
  }
  write_buffers_[norm] = WriteBuffer{rec.attrs.inode, content, true};
  return Status::OK();
}

Status BaselineClient::FlushBuffer(WriteBuffer* buf,
                                   const BaselineRecord& record) {
  std::vector<Bytes> plains;
  std::vector<ssp::Request> puts =
      FileBlockPuts(options_, engine_, record, buf->content, &plains);
  for (size_t i = 0; i < puts.size(); ++i) {
    cache_.Put("d|" + std::to_string(buf->inode) + "|" + std::to_string(i + 1),
               std::move(plains[i]), puts[i].payload.size());
  }
  return ExecuteBatch(std::move(puts));
}

Status BaselineClient::Close(const std::string& path) {
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(std::string norm, fs::NormalizePath(path));
  auto it = write_buffers_.find(norm);
  if (it == write_buffers_.end()) return Status::OK();
  Status s = Status::OK();
  if (it->second.dirty) {
    BaselineRecord rec;
    auto r = ResolveInode(path, &rec);
    if (!r.ok()) {
      s = r.status();
    } else {
      s = FlushBuffer(&it->second, rec);
    }
  }
  write_buffers_.erase(it);
  return s;
}

Status BaselineClient::Chmod(const std::string& path, fs::Mode mode) {
  ChargeClientOverhead();
  BaselineRecord rec;
  SHAROES_RETURN_IF_ERROR(ResolveInode(path, &rec).status());
  if (uid_ != rec.attrs.owner) {
    return Status::PermissionDenied("only the owner may chmod");
  }
  rec.attrs.mode = mode;
  std::vector<ssp::Request> batch;
  SHAROES_RETURN_IF_ERROR(
      RecordPuts(options_.mode, *identity_, engine_, rec, &batch));
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch)));
  InvalidateInode(rec.attrs.inode);
  return Status::OK();
}

Status BaselineClient::RemoveObject(const std::string& path,
                                    fs::FileType type) {
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent sp, fs::SplitParentName(path));
  BaselineRecord parent;
  SHAROES_RETURN_IF_ERROR(ResolveInode(sp.parent, &parent).status());
  if (!fs::Allows(parent.attrs, principal_, fs::Access::kWrite)) {
    return Status::PermissionDenied("no write permission on directory");
  }
  SHAROES_ASSIGN_OR_RETURN(fs::DirTable table, FetchTable(parent));
  auto child = table.Lookup(sp.name);
  if (!child.has_value()) return Status::NotFound("'" + path + "' not found");
  BaselineRecord child_rec;
  SHAROES_RETURN_IF_ERROR(ResolveInode(path, &child_rec).status());
  if (child_rec.attrs.type != type) {
    return Status::InvalidArgument("type mismatch for remove");
  }
  if (type == fs::FileType::kDirectory) {
    SHAROES_ASSIGN_OR_RETURN(fs::DirTable child_table,
                             FetchTable(child_rec));
    if (!child_table.empty()) {
      return Status::FailedPrecondition("directory not empty");
    }
  }
  SHAROES_RETURN_IF_ERROR(table.Remove(sp.name));
  std::vector<ssp::Request> batch;
  batch.push_back(TablePut(options_.mode, engine_, parent, table));
  size_t table_size = batch.back().payload.size();
  batch.push_back(ssp::Request::DeleteRange(ssp::ObjectFamily::kMetadata,
                                            *child));
  batch.push_back(ssp::Request::DeleteRange(ssp::ObjectFamily::kData, *child));
  for (fs::UserId uid : identity_->AllUsers()) {
    batch.push_back(ssp::Request::Delete(
        ssp::ObjectKey::UserMetadata(*child, uid)));
  }
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch)));
  cache_.Put("t|" + std::to_string(parent.attrs.inode), table, table_size);
  InvalidateInode(*child);
  SHAROES_ASSIGN_OR_RETURN(std::string norm, fs::NormalizePath(path));
  write_buffers_.erase(norm);
  return Status::OK();
}

Status BaselineClient::Rename(const std::string& from,
                              const std::string& to) {
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent src, fs::SplitParentName(from));
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent dst, fs::SplitParentName(to));
  SHAROES_ASSIGN_OR_RETURN(std::string nfrom, fs::NormalizePath(from));
  SHAROES_ASSIGN_OR_RETURN(std::string nto, fs::NormalizePath(to));
  if (fs::IsBelow(nto, nfrom)) {
    return Status::InvalidArgument("cannot move a directory into itself");
  }
  if (nfrom == nto) return Status::OK();
  BaselineRecord src_parent;
  SHAROES_RETURN_IF_ERROR(ResolveInode(src.parent, &src_parent).status());
  if (!fs::Allows(src_parent.attrs, principal_, fs::Access::kWrite)) {
    return Status::PermissionDenied("no write permission on directory");
  }
  SHAROES_ASSIGN_OR_RETURN(fs::DirTable src_table, FetchTable(src_parent));
  auto child = src_table.Lookup(src.name);
  if (!child.has_value()) return Status::NotFound("'" + from + "' not found");

  std::vector<ssp::Request> batch;
  if (src.parent == dst.parent) {
    if (src_table.Contains(dst.name)) {
      return Status::AlreadyExists("'" + to + "' already exists");
    }
    SHAROES_RETURN_IF_ERROR(src_table.Remove(src.name));
    SHAROES_RETURN_IF_ERROR(src_table.Add(dst.name, *child));
    batch.push_back(TablePut(options_.mode, engine_, src_parent, src_table));
    size_t size = batch.back().payload.size();
    SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch)));
    cache_.Put("t|" + std::to_string(src_parent.attrs.inode), src_table,
               size);
  } else {
    BaselineRecord dst_parent;
    SHAROES_RETURN_IF_ERROR(ResolveInode(dst.parent, &dst_parent).status());
    if (!fs::Allows(dst_parent.attrs, principal_, fs::Access::kWrite)) {
      return Status::PermissionDenied("no write permission on directory");
    }
    if (dst_parent.attrs.inode == *child) {
      return Status::InvalidArgument("cannot move a directory into itself");
    }
    SHAROES_ASSIGN_OR_RETURN(fs::DirTable dst_table, FetchTable(dst_parent));
    if (dst_table.Contains(dst.name)) {
      return Status::AlreadyExists("'" + to + "' already exists");
    }
    SHAROES_RETURN_IF_ERROR(src_table.Remove(src.name));
    SHAROES_RETURN_IF_ERROR(dst_table.Add(dst.name, *child));
    batch.push_back(TablePut(options_.mode, engine_, src_parent, src_table));
    batch.push_back(TablePut(options_.mode, engine_, dst_parent, dst_table));
    size_t src_size = batch[0].payload.size();
    size_t dst_size = batch[1].payload.size();
    SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch)));
    cache_.Put("t|" + std::to_string(src_parent.attrs.inode), src_table,
               src_size);
    cache_.Put("t|" + std::to_string(dst_parent.attrs.inode), dst_table,
               dst_size);
  }
  // Buffered writes follow the move: the file itself, or every buffered
  // file under a moved directory.
  fs::RekeySubtree(&write_buffers_, nfrom, nto);
  return Status::OK();
}

Status BaselineClient::Unlink(const std::string& path) {
  return RemoveObject(path, fs::FileType::kFile);
}

Status BaselineClient::Rmdir(const std::string& path) {
  return RemoveObject(path, fs::FileType::kDirectory);
}

}  // namespace sharoes::baselines
