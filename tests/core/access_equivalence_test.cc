// The central correctness property of the paper: access mediated purely
// by CAPs over the untrusted SSP is equivalent to the local *nix
// reference monitor — for every operation, every (supported) mode and
// every principal class.
//
// Structure: parameterized sweeps over file and directory modes compare
// SharoesClient outcomes against fs::Allows ground truth for owner /
// group-member / other principals, plus randomized trees as a
// property-style check.

#include <gtest/gtest.h>

#include "fs/path.h"
#include "testing/world.h"
#include "workload/tree_gen.h"

namespace sharoes {
namespace {

using core::CreateOptions;
using core::LocalNode;
using testing::kAlice;
using testing::kBob;
using testing::kCarol;
using testing::kEng;
using testing::World;

// ---------------------------------------------------------------------------
// File-mode sweep: for each supported file mode, reading and writing via
// SHAROES must succeed exactly when the monitor allows it.
// ---------------------------------------------------------------------------

class FileModeSweep : public ::testing::TestWithParam<int> {};

TEST_P(FileModeSweep, ReadWriteMatchesMonitor) {
  uint16_t mode_bits = static_cast<uint16_t>(GetParam());
  fs::Mode mode(mode_bits);
  if (!core::ModeSupported(fs::FileType::kFile, mode)) {
    GTEST_SKIP() << "unsupported mode " << mode.ToString();
  }
  World world;
  LocalNode root =
      LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxrwxrwx"));
  root.children.push_back(LocalNode::File("f", kAlice, kEng, mode,
                                          ToBytes("payload")));
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());

  fs::InodeAttrs attrs;
  attrs.owner = kAlice;
  attrs.group = kEng;
  attrs.mode = mode;
  for (fs::UserId uid : {kAlice, kBob, kCarol}) {
    fs::Principal who = world.identity().PrincipalOf(uid);
    bool want_read = fs::Allows(attrs, who, fs::Access::kRead);
    bool want_write = fs::Allows(attrs, who, fs::Access::kWrite);

    auto read = world.client(uid).Read("/f");
    EXPECT_EQ(read.ok(), want_read)
        << "uid " << uid << " mode " << mode.ToString() << ": "
        << read.status();
    if (read.ok()) {
      EXPECT_EQ(ToString(*read), "payload");
    }
    Status write = world.client(uid).Write("/f", ToBytes("new"));
    if (write.ok()) write = world.client(uid).Close("/f");
    EXPECT_EQ(write.ok(), want_write)
        << "uid " << uid << " mode " << mode.ToString() << ": " << write;
    if (write.ok()) {
      // Restore for the next principal (same writer: they hold write).
      ASSERT_TRUE(world.client(uid)
                      .WriteFile("/f", ToBytes("payload"))
                      .ok());
    }
  }
}

// All 512 modes; unsupported ones are skipped inside the test body.
INSTANTIATE_TEST_SUITE_P(AllFileModes, FileModeSweep,
                         ::testing::Range(0, 512, 3));

// ---------------------------------------------------------------------------
// Directory-mode sweep: listing (r), traversal/stat of children (x) and
// creating children (w&x).
// ---------------------------------------------------------------------------

class DirModeSweep : public ::testing::TestWithParam<int> {};

TEST_P(DirModeSweep, ListTraverseCreateMatchMonitor) {
  uint16_t mode_bits = static_cast<uint16_t>(GetParam());
  fs::Mode mode(mode_bits);
  if (!core::ModeSupported(fs::FileType::kDirectory, mode)) {
    GTEST_SKIP() << "unsupported mode " << mode.ToString();
  }
  World world;
  LocalNode root =
      LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxrwxrwx"));
  LocalNode dir = LocalNode::Dir("d", kAlice, kEng, mode);
  dir.children.push_back(LocalNode::File(
      "inner.txt", kAlice, kEng, World::ParseMode("rw-rw-rw-"),
      ToBytes("inner")));
  root.children.push_back(std::move(dir));
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());

  fs::InodeAttrs attrs;
  attrs.owner = kAlice;
  attrs.group = kEng;
  attrs.mode = mode;
  attrs.type = fs::FileType::kDirectory;
  for (fs::UserId uid : {kAlice, kBob, kCarol}) {
    fs::Principal who = world.identity().PrincipalOf(uid);
    bool want_list = fs::Allows(attrs, who, fs::Access::kRead);
    bool want_traverse = fs::Allows(attrs, who, fs::Access::kExec);
    bool want_create = fs::Allows(attrs, who, fs::Access::kWrite) &&
                       want_traverse;

    auto names = world.client(uid).Readdir("/d");
    EXPECT_EQ(names.ok(), want_list)
        << "readdir uid " << uid << " mode " << mode.ToString() << ": "
        << names.status();

    // Traversal: stat a child by its exact name (works for exec-only).
    auto stat = world.client(uid).Getattr("/d/inner.txt");
    EXPECT_EQ(stat.ok(), want_traverse)
        << "traverse uid " << uid << " mode " << mode.ToString() << ": "
        << stat.status();

    CreateOptions copts;
    copts.mode = World::ParseMode("rw-------");
    std::string path = "/d/u" + std::to_string(uid);
    Status create = world.client(uid).Create(path, copts);
    EXPECT_EQ(create.ok(), want_create)
        << "create uid " << uid << " mode " << mode.ToString() << ": "
        << create;
    if (create.ok()) {
      ASSERT_TRUE(world.client(uid).Unlink(path).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDirModes, DirModeSweep,
                         ::testing::Range(0, 512, 5));

// ---------------------------------------------------------------------------
// Randomized property check: a generated tree with a realistic permission
// mix; every (user, file) read/stat outcome equals the monitor's ruling
// composed along the path.
// ---------------------------------------------------------------------------

struct TreePropertyCase {
  uint64_t seed;
  double exec_fraction;
};

class TreePropertyTest
    : public ::testing::TestWithParam<TreePropertyCase> {};

// Computes the expected outcome of Getattr(path) under pure *nix rules.
bool MonitorAllowsStat(const core::LocalNode& root,
                       const std::vector<std::string>& comps,
                       const fs::Principal& who) {
  const core::LocalNode* cur = &root;
  for (const std::string& comp : comps) {
    fs::InodeAttrs attrs;
    attrs.owner = cur->owner;
    attrs.group = cur->group;
    attrs.mode = cur->mode;
    attrs.acl = cur->acl;
    attrs.type = cur->type;
    if (!fs::Allows(attrs, who, fs::Access::kExec)) return false;
    const core::LocalNode* next = nullptr;
    for (const core::LocalNode& child : cur->children) {
      if (child.name == comp) next = &child;
    }
    if (next == nullptr) return false;
    cur = next;
  }
  return true;
}

void CollectPaths(const core::LocalNode& node,
                  std::vector<std::string> prefix,
                  std::vector<std::vector<std::string>>* out) {
  for (const core::LocalNode& child : node.children) {
    auto comps = prefix;
    comps.push_back(child.name);
    out->push_back(comps);
    CollectPaths(child, comps, out);
  }
}

TEST_P(TreePropertyTest, StatAndReadMatchMonitorEverywhere) {
  const TreePropertyCase& c = GetParam();
  workload::TreeGenParams params;
  params.depth = 2;
  params.dirs_per_dir = 2;
  params.files_per_dir = 2;
  params.min_file_size = 8;
  params.max_file_size = 64;
  params.owner = kAlice;
  params.group = kEng;
  params.exec_only_dir_fraction = c.exec_fraction;
  params.seed = c.seed;
  core::LocalNode root = workload::GenerateTree(params);

  World world;
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());

  std::vector<std::vector<std::string>> paths;
  CollectPaths(root, {}, &paths);
  ASSERT_FALSE(paths.empty());
  int checked = 0;
  for (fs::UserId uid : {kAlice, kBob, kCarol}) {
    fs::Principal who = world.identity().PrincipalOf(uid);
    for (const auto& comps : paths) {
      std::string path = fs::JoinPath(comps);
      bool want = MonitorAllowsStat(root, comps, who);
      auto got = world.client(uid).Getattr(path);
      EXPECT_EQ(got.ok(), want)
          << "stat " << path << " uid " << uid << ": " << got.status();
      ++checked;
    }
  }
  EXPECT_GT(checked, 30);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TreePropertyTest,
    ::testing::Values(TreePropertyCase{11, 0.0}, TreePropertyCase{22, 0.7},
                      TreePropertyCase{33, 1.0}));

}  // namespace
}  // namespace sharoes
