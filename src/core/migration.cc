#include "core/migration.h"

#include "ssp/wal.h"

namespace sharoes::core {

Provisioner::Provisioner(IdentityDirectory* identity, ssp::SspServer* server,
                         crypto::CryptoEngine* engine, const Options& options)
    : identity_(identity),
      server_(server),
      engine_(engine),
      codec_(engine, identity, options.scheme),
      options_(options) {}

Result<crypto::RsaKeyPair> Provisioner::CreateUser(fs::UserId uid,
                                                   const std::string& name) {
  crypto::RsaKeyPair kp = engine_->NewUserKeyPair(options_.user_key_bits);
  UserInfo info;
  info.id = uid;
  info.name = name;
  info.public_key = kp.pub;
  SHAROES_RETURN_IF_ERROR(identity_->AddUser(std::move(info)));
  return kp;
}

Result<crypto::RsaKeyPair> Provisioner::CreateGroup(
    fs::GroupId gid, const std::string& name,
    const std::vector<fs::UserId>& members) {
  crypto::RsaKeyPair kp = engine_->NewUserKeyPair(options_.user_key_bits);
  GroupInfo info;
  info.id = gid;
  info.name = name;
  info.public_key = kp.pub;
  info.members.insert(members.begin(), members.end());
  SHAROES_RETURN_IF_ERROR(identity_->AddGroup(std::move(info)));
  group_keys_[gid] = kp;
  // Distribute the group key: wrapped to each member's public key and
  // stored at the SSP (paper §II-A).
  GroupSecret secret{gid, kp.priv};
  for (fs::UserId uid : members) {
    SHAROES_ASSIGN_OR_RETURN(UserInfo user, identity_->GetUser(uid));
    SHAROES_ASSIGN_OR_RETURN(
        Bytes block, codec_.EncodeGroupKeyBlock(user.public_key, secret));
    SHAROES_RETURN_IF_ERROR(Put(ssp::Request::Put(
        ssp::ObjectKey::GroupKey(gid, uid), std::move(block))));
  }
  return kp;
}

Status Provisioner::AddGroupMember(fs::GroupId gid, fs::UserId uid) {
  SHAROES_RETURN_IF_ERROR(identity_->AddMember(gid, uid));
  auto it = group_keys_.find(gid);
  if (it == group_keys_.end()) {
    return Status::NotFound("provisioner has no key for group " +
                            std::to_string(gid));
  }
  SHAROES_ASSIGN_OR_RETURN(UserInfo user, identity_->GetUser(uid));
  SHAROES_ASSIGN_OR_RETURN(
      Bytes block, codec_.EncodeGroupKeyBlock(user.public_key,
                                              GroupSecret{gid,
                                                          it->second.priv}));
  return Put(ssp::Request::Put(ssp::ObjectKey::GroupKey(gid, uid),
                               std::move(block)));
}

Status Provisioner::RemoveGroupMember(fs::GroupId gid, fs::UserId uid) {
  SHAROES_RETURN_IF_ERROR(identity_->RemoveMember(gid, uid));
  SHAROES_RETURN_IF_ERROR(Put(ssp::Request::Delete(ssp::ObjectKey::GroupKey(
      gid, uid))));
  // Rotate the group identity so the revoked member's cached private key
  // stops opening *future* wraps; rewrap for remaining members.
  crypto::RsaKeyPair fresh = engine_->NewUserKeyPair(options_.user_key_bits);
  SHAROES_RETURN_IF_ERROR(identity_->SetGroupKey(gid, fresh.pub));
  group_keys_[gid] = fresh;
  SHAROES_ASSIGN_OR_RETURN(GroupInfo info, identity_->GetGroup(gid));
  GroupSecret secret{gid, fresh.priv};
  for (fs::UserId member : info.members) {
    SHAROES_ASSIGN_OR_RETURN(UserInfo user, identity_->GetUser(member));
    SHAROES_ASSIGN_OR_RETURN(
        Bytes block, codec_.EncodeGroupKeyBlock(user.public_key, secret));
    SHAROES_RETURN_IF_ERROR(Put(ssp::Request::Put(
        ssp::ObjectKey::GroupKey(gid, member), std::move(block))));
  }
  return Status::OK();
}

Status Provisioner::Put(ssp::Request req) {
  if (channel_ != nullptr) {
    SHAROES_ASSIGN_OR_RETURN(ssp::Response resp, channel_->Call(req));
    if (resp.status == ssp::RespStatus::kBadRequest ||
        resp.status == ssp::RespStatus::kError) {
      return Status::IoError("SSP rejected provisioning request");
    }
    return Status::OK();
  }
  if (server_ == nullptr) {
    return Status::FailedPrecondition(
        "provisioner has neither a local store nor a remote channel");
  }
  // Local provisioning applies through the server's own apply path.
  return ssp::ApplyWalOp(req, &server_->store());
}

Status Provisioner::PutAll(std::vector<ssp::Request> puts,
                           MigrationStats* stats) {
  for (ssp::Request& req : puts) {
    stats->bytes_transferred += req.payload.size();
    SHAROES_RETURN_IF_ERROR(Put(std::move(req)));
  }
  return Status::OK();
}

Result<Provisioner::MigratedObject> Provisioner::MigrateNode(
    const LocalNode& spec, const std::string& path, fs::InodeNum inode,
    MigrationStats* stats) {
  fs::InodeAttrs attrs;
  attrs.inode = inode;
  attrs.type = spec.type;
  attrs.owner = spec.owner;
  attrs.group = spec.group;
  attrs.mode = spec.mode;
  attrs.acl = spec.acl;
  attrs.size = spec.content.size();
  if (!ModeSupported(spec.type, spec.mode)) {
    if (options_.strict_modes) {
      return Status::Unsupported("unsupported mode " + spec.mode.ToString() +
                                 " at '" + path + "'");
    }
    stats->degraded_paths.push_back(path);
  }
  OwnershipInfo info = OwnershipInfo::FromAttrs(attrs);
  std::vector<ReplicaSpec> specs =
      ReplicasFor(info, options_.scheme, *identity_);

  MigratedObject obj;
  obj.attrs = attrs;
  obj.bundle = codec_.GenerateBundle(spec.type, specs);

  // Recurse into children first (a directory's tables need their MEKs).
  MasterTable master;
  if (spec.type == fs::FileType::kDirectory) {
    for (const LocalNode& child_spec : spec.children) {
      fs::InodeNum child_inode = ++next_inode_;
      SHAROES_ASSIGN_OR_RETURN(
          MigratedObject child,
          MigrateNode(child_spec, path + "/" + child_spec.name, child_inode,
                      stats));
      SHAROES_RETURN_IF_ERROR(master.Add(MasterEntry::For(
          child_spec.name, child_inode,
          OwnershipInfo::FromAttrs(child.attrs), child.bundle)));
    }
  }

  stats->metadata_replicas += specs.size();
  SHAROES_RETURN_IF_ERROR(
      PutAll(codec_.MetadataReplicaPuts(specs, attrs, obj.bundle), stats));
  if (spec.type == fs::FileType::kDirectory) {
    ++stats->directories;
    SHAROES_ASSIGN_OR_RETURN(
        std::vector<ssp::Request> tables,
        codec_.TableSetPuts(inode, info, specs, master, obj.bundle));
    // The set is the copies, the master, then the split blocks.
    stats->table_copies += specs.size();
    stats->split_blocks += tables.size() - specs.size() - 1;
    SHAROES_RETURN_IF_ERROR(PutAll(std::move(tables), stats));
  } else {
    ++stats->files;
    // Migration is the file's first write: key generation 0, write
    // generation 1.
    ObjectCodec::FileBlockSet blocks = codec_.FileBlockPuts(
        inode, spec.content, {0, 1}, obj.bundle.dek, obj.bundle.data.sign);
    stats->data_blocks += blocks.puts.size();
    SHAROES_RETURN_IF_ERROR(PutAll(std::move(blocks.puts), stats));
  }
  return obj;
}

Status Provisioner::WriteSuperblocks(const MigratedObject& root) {
  OwnershipInfo info = OwnershipInfo::FromAttrs(root.attrs);
  for (fs::UserId uid : identity_->AllUsers()) {
    fs::Principal who = identity_->PrincipalOf(uid);
    Selector sel = SelectorFor(info, who, options_.scheme);
    auto mek_it = root.bundle.meks.find(sel);
    if (mek_it == root.bundle.meks.end()) {
      return Status::Internal("no root replica for user " +
                              std::to_string(uid));
    }
    SuperblockPayload payload;
    payload.root_inode = root.attrs.inode;
    payload.root_ref = PlainRef{root.attrs.inode, fs::FileType::kDirectory,
                                sel, mek_it->second,
                                root.bundle.meta.verify};
    SHAROES_ASSIGN_OR_RETURN(UserInfo user, identity_->GetUser(uid));
    SHAROES_ASSIGN_OR_RETURN(
        Bytes wire, codec_.EncodeSuperblock(user.public_key, payload));
    SHAROES_RETURN_IF_ERROR(Put(ssp::Request::Put(
        ssp::ObjectKey::Superblock(uid), std::move(wire))));
  }
  return Status::OK();
}

Result<MigrationStats> Provisioner::Migrate(const LocalNode& root_spec) {
  if (root_spec.type != fs::FileType::kDirectory) {
    return Status::InvalidArgument("root of migration must be a directory");
  }
  MigrationStats stats;
  next_inode_ = fs::kRootInode;
  SHAROES_ASSIGN_OR_RETURN(
      MigratedObject root,
      MigrateNode(root_spec, "", fs::kRootInode, &stats));
  SHAROES_RETURN_IF_ERROR(WriteSuperblocks(root));
  root_ = std::make_unique<MigratedObject>(std::move(root));
  return stats;
}

Status Provisioner::RefreshSuperblocks() {
  if (root_ == nullptr) {
    return Status::FailedPrecondition("no filesystem migrated yet");
  }
  return WriteSuperblocks(*root_);
}

Status Provisioner::InitFilesystem(fs::UserId owner, fs::GroupId group,
                                   fs::Mode mode) {
  LocalNode root = LocalNode::Dir("", owner, group, mode);
  auto r = Migrate(root);
  return r.ok() ? Status::OK() : r.status();
}

}  // namespace sharoes::core
