// The migration tool and enterprise provisioner (paper §IV, component 1).
//
// "Responsible for the initial setup and migration of data from local
//  storage to the outsourced model. It can perform more efficient bulk
//  data transfers and create the cryptographic infrastructure, if
//  required (that is, generating user and group keys)."
//
// The Provisioner:
//   * registers users and groups (generating their RSA identity pairs),
//   * writes group key blocks (group private key wrapped to each member),
//   * initializes the filesystem root and per-user superblocks,
//   * migrates an in-memory local tree (ownership, modes, ACLs, contents)
//     into the SSP,
//   * rotates group keys on membership revocation.
//
// Every object is rendered by ObjectCodec's set-level methods (key
// bundle, metadata replicas, table set, file block set), the same ones
// SharoesClient writes through, so a migrated object has exactly the
// layout a client-created one has.
//
// Bulk transfer happens on the provisioning path (the paper's transition
// phase), so it writes to the SSP store directly and reports byte counts
// instead of charging the benchmark WAN.

#ifndef SHAROES_CORE_MIGRATION_H_
#define SHAROES_CORE_MIGRATION_H_

#include <memory>
#include <string>
#include <vector>

#include "core/object_codec.h"
#include "ssp/ssp_server.h"

namespace sharoes::core {

/// A node of the local filesystem tree to migrate.
struct LocalNode {
  std::string name;  // Ignored for the root.
  fs::FileType type = fs::FileType::kFile;
  fs::UserId owner = fs::kInvalidUser;
  fs::GroupId group = fs::kInvalidGroup;
  fs::Mode mode = fs::Mode::FromOctal(0644);
  std::vector<fs::AclEntry> acl;
  Bytes content;                    // Files only.
  std::vector<LocalNode> children;  // Directories only.

  static LocalNode Dir(std::string name, fs::UserId owner, fs::GroupId group,
                       fs::Mode mode) {
    LocalNode n;
    n.name = std::move(name);
    n.type = fs::FileType::kDirectory;
    n.owner = owner;
    n.group = group;
    n.mode = mode;
    return n;
  }
  static LocalNode File(std::string name, fs::UserId owner, fs::GroupId group,
                        fs::Mode mode, Bytes content) {
    LocalNode n;
    n.name = std::move(name);
    n.type = fs::FileType::kFile;
    n.owner = owner;
    n.group = group;
    n.mode = mode;
    n.content = std::move(content);
    return n;
  }
};

struct MigrationStats {
  uint64_t files = 0;
  uint64_t directories = 0;
  uint64_t metadata_replicas = 0;
  uint64_t table_copies = 0;
  uint64_t split_blocks = 0;
  uint64_t data_blocks = 0;
  uint64_t bytes_transferred = 0;
  /// Files/dirs whose mode had to be degraded (unsupported settings);
  /// empty when everything migrated with exact semantics.
  std::vector<std::string> degraded_paths;
};

class Provisioner {
 public:
  struct Options {
    Scheme scheme = Scheme::kScheme2;
    /// RSA modulus bits for user/group identity keys. 2048 in the paper;
    /// tests may shrink for speed (virtual costs are unaffected).
    size_t user_key_bits = 2048;
    /// Reject trees containing unsupported permission settings instead of
    /// degrading them.
    bool strict_modes = false;
  };

  Provisioner(IdentityDirectory* identity, ssp::SspServer* server,
              crypto::CryptoEngine* engine, const Options& options);

  /// Routes all SSP writes through `channel` instead of the local store —
  /// used to provision a *remote* sharoes_sspd over the wire. May be
  /// combined with a null `server` at construction.
  void set_remote_channel(ssp::SspChannel* channel) { channel_ = channel; }

  /// Registers a user, generating their identity key pair. The private
  /// key is returned to hand to that user's client; the Provisioner does
  /// not retain it.
  Result<crypto::RsaKeyPair> CreateUser(fs::UserId uid,
                                        const std::string& name);
  /// Registers a group with members, generates its key pair, and writes
  /// the per-member group key blocks to the SSP.
  Result<crypto::RsaKeyPair> CreateGroup(
      fs::GroupId gid, const std::string& name,
      const std::vector<fs::UserId>& members);

  /// Migrates `root_spec` (a directory describing "/") into the SSP and
  /// writes per-user superblocks for every registered user. Replaces any
  /// previous filesystem content.
  Result<MigrationStats> Migrate(const LocalNode& root_spec);

  /// Creates an empty filesystem: a root directory owned by `owner`.
  Status InitFilesystem(fs::UserId owner, fs::GroupId group, fs::Mode mode);

  /// Group-membership revocation (paper §II-A / §IV-A.1 footnote):
  /// removes the member, rotates the group key pair and rewraps blocks
  /// for the remaining members. Data/row re-wrapping is lazy — owners
  /// refresh directories via SharoesClient::RefreshDir.
  Status RemoveGroupMember(fs::GroupId gid, fs::UserId uid);
  /// Adds a member and wraps the current group key to them.
  Status AddGroupMember(fs::GroupId gid, fs::UserId uid);

  /// Rewrites every user's superblock against the current registry and
  /// group membership (a user's *class* at the namespace root changes
  /// when their memberships do). Requires a prior Migrate.
  Status RefreshSuperblocks();

 private:
  struct MigratedObject {
    fs::InodeAttrs attrs;
    ObjectKeyBundle bundle;
  };

  Result<MigratedObject> MigrateNode(const LocalNode& spec,
                                     const std::string& path,
                                     fs::InodeNum inode,
                                     MigrationStats* stats);
  Status WriteSuperblocks(const MigratedObject& root);
  /// Store-or-channel write of one request (one Put each, also remotely).
  Status Put(ssp::Request req);
  /// Puts a rendered object set in order, counting its bytes.
  Status PutAll(std::vector<ssp::Request> puts, MigrationStats* stats);

  IdentityDirectory* identity_;
  ssp::SspServer* server_;        // May be null when provisioning remotely.
  ssp::SspChannel* channel_ = nullptr;
  crypto::CryptoEngine* engine_;
  ObjectCodec codec_;
  Options options_;
  fs::InodeNum next_inode_ = fs::kRootInode;
  /// Retained group private keys (the provisioner is the enterprise
  /// admin; it must re-wrap on membership changes).
  std::map<fs::GroupId, crypto::RsaKeyPair> group_keys_;
  /// Retained root object (superblock refreshes need its key bundle).
  std::unique_ptr<MigratedObject> root_;
};

}  // namespace sharoes::core

#endif  // SHAROES_CORE_MIGRATION_H_
