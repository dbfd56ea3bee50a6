// ObjectCodec: every cryptographic transformation between logical
// filesystem state and the encrypted blobs the SSP stores.
//
//   metadata replica  = Sign_MSK( CTR_MEK(serialized CAP view) )
//   table copy        = Sign_DSK( CTR_TK(rendered rows) ), where rendering
//                       follows the copy's TableView (full / names-only /
//                       per-row encryption for exec-only CAPs)
//   data block        = Sign_DSK( CTR_DEK(plaintext block) )
//   superblock,
//   split blocks,
//   group key blocks  = RSA to the recipient's public key
//
// Signatures bind the object identity (kind, inode, selector/block) so a
// malicious SSP cannot swap blobs between locations.
//
// The set-level renderers (GenerateBundle, MetadataReplicaPuts,
// TableSetPuts, FileBlockPuts) are the one definition of the stored
// layout: the provisioner and the client both write objects through
// them, so a migrated tree and a client-built one are byte-identical
// for the same key and nonce draws.

#ifndef SHAROES_CORE_OBJECT_CODEC_H_
#define SHAROES_CORE_OBJECT_CODEC_H_

#include <string>
#include <vector>

#include "core/refs.h"
#include "ssp/message.h"

namespace sharoes::core {

/// A split-point block the table renderer asks the caller to store:
/// either per-user (RSA to the user) or per-group (RSA to the group key).
struct PendingSplitBlock {
  bool is_group = false;
  uint32_t id = 0;  // uid, or GroupBlockKey(gid) for group blocks.
  fs::InodeNum child_inode = fs::kInvalidInode;
  Bytes wire;
};

/// A decoded directory-table copy as seen through one CAP.
struct DecodedTable {
  TableView view = TableView::kNone;
  /// kFull / kNamesOnly: visible names in table order.
  std::vector<std::string> names;
  /// kFull only: refs by name.
  std::map<std::string, RowRef> refs;
  /// kExecOnly only: opaque (row_id, encrypted row) pairs.
  std::vector<std::pair<Bytes, Bytes>> exec_rows;
};

class ObjectCodec {
 public:
  ObjectCodec(crypto::CryptoEngine* engine, const IdentityDirectory* dir,
              Scheme scheme)
      : engine_(engine), dir_(dir), scheme_(scheme) {}

  // ----- Metadata replicas -----

  /// Builds the logical CAP view of a metadata object (no crypto).
  /// `dek_gen` is the current data-key generation; `dek_next` (lazy
  /// revocation) is exposed to every CAP that holds the DEK.
  static MetadataView BuildView(const ReplicaSpec& spec,
                                const fs::InodeAttrs& attrs,
                                const ObjectKeyBundle& bundle,
                                uint32_t dek_gen = 0,
                                const std::optional<crypto::SymmetricKey>&
                                    dek_next = std::nullopt);

  /// Builds and seals one CAP view of a metadata object.
  Bytes EncodeMetadataReplica(const ReplicaSpec& spec,
                              const fs::InodeAttrs& attrs,
                              const ObjectKeyBundle& bundle,
                              uint32_t dek_gen = 0,
                              const std::optional<crypto::SymmetricKey>&
                                  dek_next = std::nullopt);

  /// Verifies (MVK), decrypts (MEK) and parses a metadata replica.
  /// IntegrityError on bad signature; Corruption on undecodable bytes;
  /// also rejects replicas whose embedded inode does not match.
  Result<MetadataView> DecodeMetadataReplica(fs::InodeNum inode,
                                             Selector selector,
                                             const Bytes& wire,
                                             const crypto::SymmetricKey& mek,
                                             const crypto::VerifyKey& mvk);

  // ----- Directory tables -----

  /// Renders, seals and signs one table copy from the master table.
  /// `copy_selector` identifies both the copy and the CAP whose TableView
  /// applies; `universe` is the copy's reader set (decides row splits).
  /// Any split blocks that must be (re)stored are appended to `blocks`.
  Result<Bytes> EncodeTableCopy(fs::InodeNum dir_inode, Selector copy_selector,
                                TableView view, const MasterTable& master,
                                const std::vector<fs::UserId>& universe,
                                const ObjectKeyBundle& bundle,
                                std::vector<PendingSplitBlock>* blocks);

  /// Encodes the writer-only master copy.
  Bytes EncodeMasterTable(fs::InodeNum dir_inode, const MasterTable& master,
                          const ObjectKeyBundle& bundle);

  /// Verifies (DVK), decrypts (table key) and parses a table copy.
  Result<DecodedTable> DecodeTableCopy(fs::InodeNum dir_inode,
                                       Selector copy_selector,
                                       const Bytes& wire,
                                       const crypto::SymmetricKey& table_key,
                                       const crypto::VerifyKey& dvk);

  Result<MasterTable> DecodeMasterTable(fs::InodeNum dir_inode,
                                        const Bytes& wire,
                                        const crypto::SymmetricKey& table_key,
                                        const crypto::VerifyKey& dvk);

  /// Renders the *logical* kFull view of a master table (no encryption,
  /// no cost charges). Used to refresh a writer's own decoded cache after
  /// it has already produced and paid for the encrypted copies.
  Result<DecodedTable> RenderFullTableView(
      const MasterTable& master, const std::vector<fs::UserId>& universe);

  /// Resolves `name` inside an exec-only copy by deriving H_DEK(name)
  /// (paper §III-A). NotFound if no row matches.
  Result<RowRef> ExecOnlyLookup(const DecodedTable& table,
                                const crypto::SymmetricKey& table_key,
                                const std::string& name);

  // ----- File data -----

  /// Cleartext (but AEAD-covered) per-block header: `key_gen` lets
  /// readers pick dek vs. dek_next (lazy revocation) before decrypting;
  /// `write_gen` is the file's write generation for freshness/rollback
  /// detection (SUNDR-style, the paper's §VIII future work). Both are
  /// associated data of the block's AEAD seal, so a block cannot be
  /// replayed across key rotations or write generations.
  struct DataBlockHeader {
    uint32_t key_gen = 0;
    uint64_t write_gen = 0;
  };

  /// Seals one data block (DESIGN.md §13):
  ///   wire = key_gen | write_gen | nonce | GCM ciphertext | tag | sig
  ///   AAD  = SigContext("data", inode, block) | key_gen | write_gen
  /// Block 0 (which carries the signed DataDescriptor, including the
  /// Merkle root over the tail blocks' tags) additionally gets a DSK
  /// signature over AAD || nonce || ciphertext || tag; tail blocks carry
  /// an empty signature field — their integrity anchors through the root.
  /// `tag_out`, when non-null, receives the block's AEAD tag (the Merkle
  /// leaf for tail blocks).
  Bytes EncodeDataBlock(fs::InodeNum inode, uint32_t block,
                        const DataBlockHeader& header, const Bytes& plaintext,
                        const crypto::SymmetricKey& dek,
                        const crypto::SigningKey& dsk,
                        Bytes* tag_out = nullptr);
  /// Every integrity failure — bad framing, bad tag, bad/unexpected
  /// signature — is Status::Corruption; no plaintext is ever returned on
  /// failure.
  Result<Bytes> DecodeDataBlock(fs::InodeNum inode, uint32_t block,
                                const Bytes& wire,
                                const crypto::SymmetricKey& dek,
                                const crypto::VerifyKey& dvk);
  /// Reads the cleartext header of an encoded data block.
  static Result<DataBlockHeader> PeekDataHeader(const Bytes& wire);
  /// Reads the AEAD tag of an encoded data block without decrypting (the
  /// Merkle leaf; readers collect these to check the descriptor's root).
  static Result<Bytes> PeekDataTag(const Bytes& wire);

  // ----- RSA-wrapped bootstrap blocks -----

  Result<Bytes> EncodeUserRefBlock(const crypto::RsaPublicKey& user_pub,
                                   const PlainRef& ref);
  Result<PlainRef> DecodeUserRefBlock(const crypto::RsaPrivateKey& user_priv,
                                      const Bytes& wire);

  Result<Bytes> EncodeGroupRefBlock(const crypto::RsaPublicKey& group_pub,
                                    const PlainRef& ref);
  Result<PlainRef> DecodeGroupRefBlock(
      const crypto::RsaPrivateKey& group_priv, const Bytes& wire);

  Result<Bytes> EncodeSuperblock(const crypto::RsaPublicKey& user_pub,
                                 const SuperblockPayload& payload);
  Result<SuperblockPayload> DecodeSuperblock(
      const crypto::RsaPrivateKey& user_priv, const Bytes& wire);

  Result<Bytes> EncodeGroupKeyBlock(const crypto::RsaPublicKey& member_pub,
                                    const GroupSecret& secret);
  Result<GroupSecret> DecodeGroupKeyBlock(
      const crypto::RsaPrivateKey& member_priv, const Bytes& wire);

  // ----- Object sets: the stored layout -----

  /// Draws a new object's key bundle: the DSK and MSK pairs, one MEK per
  /// replica, then the DEK (files) or one table key per replica plus the
  /// master's (directories). The draw order is part of the layout.
  ObjectKeyBundle GenerateBundle(fs::FileType type,
                                 const std::vector<ReplicaSpec>& specs);

  /// One sealed metadata replica per spec, in spec order.
  std::vector<ssp::Request> MetadataReplicaPuts(
      const std::vector<ReplicaSpec>& specs, const fs::InodeAttrs& attrs,
      const ObjectKeyBundle& bundle, uint32_t dek_gen = 0,
      const std::optional<crypto::SymmetricKey>& dek_next = std::nullopt);

  /// A directory's table set: one copy per spec (in spec order, rendered
  /// in the spec's TableView for its reader universe), then the master,
  /// then the split blocks the copies' rows asked for.
  Result<std::vector<ssp::Request>> TableSetPuts(
      fs::InodeNum dir_inode, const OwnershipInfo& info,
      const std::vector<ReplicaSpec>& specs, const MasterTable& master,
      const ObjectKeyBundle& bundle);

  /// A tail block a rewrite keeps as stored: its AEAD tag (the Merkle
  /// leaf) and the write generation it was sealed at.
  struct KeptBlock {
    Bytes tag;
    uint64_t write_gen = 0;
  };
  /// A file's rendered block set.
  struct FileBlockSet {
    DataDescriptor desc;
    /// Block 0's plaintext: the descriptor, then the first chunk.
    Bytes plain0;
    /// The AEAD tag of every tail block 1..block_count-1, kept or not.
    std::vector<Bytes> tail_tags;
    /// Block 0, then every tail block not kept, in block order.
    std::vector<ssp::Request> puts;
  };
  /// Renders `content` as data blocks under `header`. Tail blocks seal
  /// first, since their tags root the descriptor block 0 carries; block 0
  /// seals last. Blocks in `kept` are not rewritten: their tag and
  /// generation go into the descriptor as given.
  FileBlockSet FileBlockPuts(fs::InodeNum inode, const Bytes& content,
                             size_t block_size, const DataBlockHeader& header,
                             const crypto::SymmetricKey& dek,
                             const crypto::SigningKey& dsk,
                             const std::map<uint32_t, KeptBlock>& kept = {});
  /// The number of blocks a file of `size` bytes occupies (at least one:
  /// block 0 carries the descriptor even for an empty file).
  static uint32_t BlockCount(size_t size, size_t block_size);
  /// The slice of `content` that block `block` stores.
  static Bytes BlockChunk(const Bytes& content, size_t block_size,
                          uint32_t block);

  crypto::CryptoEngine* engine() { return engine_; }
  Scheme scheme() const { return scheme_; }
  const IdentityDirectory* identity() const { return dir_; }

 private:
  Bytes SealAndSign(const Bytes& context, const Bytes& payload,
                    const crypto::SymmetricKey& key,
                    const crypto::SigningKey& signer);
  Result<Bytes> VerifyAndOpen(const Bytes& context, const Bytes& wire,
                              const crypto::SymmetricKey& key,
                              const crypto::VerifyKey& verifier,
                              const std::string& what);
  /// Builds a RowRef for one master entry as seen by `universe`,
  /// emitting split blocks when readers diverge.
  Result<RowRef> RenderRow(const MasterEntry& entry,
                           const std::vector<fs::UserId>& universe,
                           std::vector<PendingSplitBlock>* blocks);

  crypto::CryptoEngine* engine_;    // Not owned.
  const IdentityDirectory* dir_;    // Not owned.
  Scheme scheme_;
};

/// The signing context for an object ("kind | inode | id").
Bytes SigContext(std::string_view kind, fs::InodeNum inode, uint64_t id);

}  // namespace sharoes::core

#endif  // SHAROES_CORE_OBJECT_CODEC_H_
