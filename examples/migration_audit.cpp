// Migration + audit: transition a generated enterprise tree to the SSP,
// verify every byte came through, inspect what the SSP can actually see,
// demonstrate tamper detection, and price the storage under both
// replication schemes.
//
//   ./build/examples/migration_audit

#include <algorithm>
#include <cstdio>
#include <functional>

#include "core/client.h"
#include "core/migration.h"
#include "net/network_model.h"
#include "ssp/ssp_server.h"
#include "workload/tree_gen.h"

using namespace sharoes;

namespace {

constexpr fs::UserId kAdmin = 50;
constexpr fs::GroupId kStaff = 500;

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL: %s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

bool BlobContains(const Bytes& blob, const std::string& needle) {
  return std::search(blob.begin(), blob.end(), needle.begin(),
                     needle.end()) != blob.end();
}

}  // namespace

int main() {
  std::printf("=== SHAROES migration & audit demo ===\n\n");

  SimClock clock;
  crypto::CryptoEngineOptions eng_opts;
  eng_opts.rng_seed = 99;
  eng_opts.cost_model = crypto::CryptoCostModel::Zero();
  crypto::CryptoEngine engine(&clock, eng_opts);
  ssp::SspServer ssp_server;
  net::Transport wan(&clock, net::NetworkModel::Zero());
  ssp::SspConnection conn(&ssp_server, &wan);

  core::IdentityDirectory identity;
  core::Provisioner provisioner(&identity, &ssp_server, &engine,
                                core::Provisioner::Options());
  auto admin_kp = provisioner.CreateUser(kAdmin, "admin");
  Check(admin_kp.status(), "admin");
  Check(provisioner.CreateGroup(kStaff, "staff", {kAdmin}).status(),
        "group");

  // A generated enterprise tree: ~40 dirs/files, 70% exec-only dirs (the
  // distribution the paper's user study reports).
  workload::TreeGenParams tparams;
  tparams.depth = 2;
  tparams.dirs_per_dir = 2;
  tparams.files_per_dir = 4;
  tparams.owner = kAdmin;
  tparams.group = kStaff;
  tparams.exec_only_dir_fraction = 0.7;
  tparams.seed = 1234;
  core::LocalNode tree = workload::GenerateTree(tparams);

  std::printf("Migrating the generated tree to the SSP...\n");
  auto stats = provisioner.Migrate(tree);
  Check(stats.status(), "migrate");
  std::printf("  files %llu, dirs %llu, metadata replicas %llu, table "
              "copies %llu,\n  split blocks %llu, data blocks %llu, bytes "
              "%llu\n\n",
              static_cast<unsigned long long>(stats->files),
              static_cast<unsigned long long>(stats->directories),
              static_cast<unsigned long long>(stats->metadata_replicas),
              static_cast<unsigned long long>(stats->table_copies),
              static_cast<unsigned long long>(stats->split_blocks),
              static_cast<unsigned long long>(stats->data_blocks),
              static_cast<unsigned long long>(stats->bytes_transferred));

  // --- Audit 1: everything reads back byte-identical. ---
  core::ClientOptions copts;
  copts.default_group = kStaff;
  core::SharoesClient admin(kAdmin, admin_kp->priv, &identity, &conn,
                            &engine, copts);
  Check(admin.Mount(), "mount");
  int verified = 0;
  std::function<void(const core::LocalNode&, const std::string&)> verify =
      [&](const core::LocalNode& node, const std::string& path) {
        for (const core::LocalNode& child : node.children) {
          std::string cpath =
              path == "/" ? "/" + child.name : path + "/" + child.name;
          if (child.type == fs::FileType::kFile) {
            auto read = admin.Read(cpath);
            Check(read.status(), cpath.c_str());
            if (*read != child.content) {
              std::fprintf(stderr, "MISMATCH at %s\n", cpath.c_str());
              std::exit(1);
            }
            ++verified;
          } else {
            verify(child, cpath);
          }
        }
      };
  verify(tree, "/");
  std::printf("Audit 1: all %d files read back byte-identical.\n", verified);

  // --- Audit 2: the SSP sees only ciphertext. ---
  // Hunt the first generated file's plaintext in every stored blob.
  const core::LocalNode* first_file = nullptr;
  std::function<void(const core::LocalNode&)> find =
      [&](const core::LocalNode& node) {
        for (const core::LocalNode& child : node.children) {
          if (first_file != nullptr) return;
          if (child.type == fs::FileType::kFile) {
            first_file = &child;
          } else {
            find(child);
          }
        }
      };
  find(tree);
  std::string probe = ToString(first_file->content).substr(0, 24);
  bool leaked = false;
  for (fs::InodeNum inode = 1; inode < 200; ++inode) {
    for (uint32_t blk = 0; blk < 8; ++blk) {
      auto blob = ssp_server.store().Get(ssp::ObjectKey::Data(inode, blk));
      if (blob.has_value() && BlobContains(*blob, probe)) leaked = true;
    }
  }
  std::printf("Audit 2: plaintext probe \"%s...\" found in SSP storage: "
              "%s\n", probe.substr(0, 12).c_str(), leaked ? "YES (BUG!)"
                                                          : "no");

  // --- Audit 3: tamper detection. ---
  auto attrs = admin.Getattr("/file0.dat");
  Check(attrs.status(), "stat probe file");
  ssp_server.store().Corrupt(ssp::ObjectKey::Data(attrs->inode, 0), 17);
  admin.DropCaches();
  auto tampered = admin.Read("/file0.dat");
  std::printf("Audit 3: SSP flips one byte of /file0.dat; client read -> "
              "%s\n", tampered.ok() ? "ACCEPTED (BUG!)"
                                    : tampered.status().ToString().c_str());

  // --- Audit 4: storage pricing, Scheme-1 vs Scheme-2. ---
  std::printf("\nStorage accounting (this tree, %llu registered users):\n",
              static_cast<unsigned long long>(identity.user_count()));
  ssp::StorageStats s2 = ssp_server.store().Stats();
  std::printf("  Scheme-2 (per-CAP replicas): metadata %llu B, data %llu B"
              ", split blocks %llu B\n",
              static_cast<unsigned long long>(
                  s2.bytes(ssp::ObjectFamily::kMetadata)),
              static_cast<unsigned long long>(
                  s2.bytes(ssp::ObjectFamily::kData)),
              static_cast<unsigned long long>(
                  s2.bytes(ssp::ObjectFamily::kUserMetadata)));
  std::printf("  (see bench_schemes for the full Scheme-1 vs Scheme-2 "
              "cost sweep)\n");

  std::printf("\nDone.\n");
  return 0;
}
