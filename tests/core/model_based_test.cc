// Model-based randomized testing: long random operation sequences are
// executed both against SHAROES (full crypto + simulated SSP) and an
// in-memory reference filesystem with POSIX-monitor semantics. Every
// outcome — success, denial, error — must agree, and file contents must
// match byte for byte.

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "fs/path.h"
#include "testing/world.h"

namespace sharoes {
namespace {

using core::CreateOptions;
using testing::kAlice;
using testing::kBob;
using testing::kCarol;
using testing::kEng;
using testing::World;

// --- The reference model ----------------------------------------------------

struct RefNode {
  bool is_dir = false;
  Bytes content;
  fs::UserId owner = kAlice;
  fs::GroupId group = kEng;
  fs::Mode mode;
  std::map<std::string, RefNode> children;
};

struct Model {
  RefNode root;

  RefNode* Find(const std::vector<std::string>& comps) {
    RefNode* cur = &root;
    for (const std::string& c : comps) {
      auto it = cur->children.find(c);
      if (it == cur->children.end()) return nullptr;
      cur = &it->second;
    }
    return cur;
  }
};

fs::InodeAttrs AttrsOf(const RefNode& n) {
  fs::InodeAttrs a;
  a.owner = n.owner;
  a.group = n.group;
  a.mode = n.mode;
  a.type = n.is_dir ? fs::FileType::kDirectory : fs::FileType::kFile;
  return a;
}

// Does `who` have exec on every directory along `comps` (excluding the
// final component itself)?
bool CanTraverse(Model& model, const std::vector<std::string>& comps,
                 const fs::Principal& who) {
  RefNode* cur = &model.root;
  for (const std::string& c : comps) {
    if (!cur->is_dir) return false;
    if (!fs::Allows(AttrsOf(*cur), who, fs::Access::kExec)) return false;
    auto it = cur->children.find(c);
    if (it == cur->children.end()) return false;
    cur = &it->second;
  }
  return true;
}

std::string JoinComps(const std::vector<std::string>& comps) {
  return fs::JoinPath(comps);
}

// --- The random walk ---------------------------------------------------------

struct ModelCase {
  uint64_t seed;
  int ops;
};

class ModelBasedTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ModelBasedTest, RandomOpsAgreeWithReferenceModel) {
  const ModelCase& c = GetParam();
  Rng rng(c.seed);

  World world;
  core::LocalNode root =
      core::LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxrwxr-x"));
  ASSERT_TRUE(world.MigrateAndMountAll(root).ok());

  Model model;
  model.root.is_dir = true;
  model.root.owner = kAlice;
  model.root.group = kEng;
  model.root.mode = World::ParseMode("rwxrwxr-x");

  const fs::UserId users[] = {kAlice, kBob, kCarol};
  const char* names[] = {"a", "b", "c", "d"};
  // Supported class triples only (no -w-, -wx for dirs handled by
  // ModeSupported checks; file triples avoid w/x without r).
  const uint16_t file_modes[] = {0600, 0640, 0644, 0664, 0666, 0400, 0000};
  const uint16_t dir_modes[] = {0700, 0750, 0755, 0711, 0770, 0500, 0751};

  // Collects every path in the model (as component vectors).
  auto all_paths = [&] {
    std::vector<std::vector<std::string>> out;
    out.push_back({});
    std::function<void(RefNode&, std::vector<std::string>)> walk =
        [&](RefNode& node, std::vector<std::string> prefix) {
          for (auto& [name, child] : node.children) {
            auto comps = prefix;
            comps.push_back(name);
            out.push_back(comps);
            if (child.is_dir) walk(child, comps);
          }
        };
    walk(model.root, {});
    return out;
  };

  int agreements = 0;
  for (int op = 0; op < c.ops; ++op) {
    fs::UserId uid = users[rng.NextBelow(3)];
    fs::Principal who = world.identity().PrincipalOf(uid);
    core::SharoesClient& client = world.client(uid);
    // Clients have no cross-client cache coherence (as in the paper's
    // prototype); revalidate before every operation so the interleaved
    // multi-user walk matches the strongly consistent reference model.
    client.DropCaches();
    auto paths = all_paths();
    auto& target_comps = paths[rng.NextBelow(paths.size())];
    std::string target = JoinComps(target_comps);
    RefNode* target_node = model.Find(target_comps);
    ASSERT_NE(target_node, nullptr);

    switch (rng.NextBelow(8)) {
      case 0: {  // getattr
        bool want = CanTraverse(model, target_comps, who);
        auto got = client.Getattr(target);
        EXPECT_EQ(got.ok(), want) << "getattr " << target << " uid " << uid
                                  << ": " << got.status();
        if (got.ok()) {
          EXPECT_EQ(got->owner, target_node->owner);
          EXPECT_EQ(got->mode, target_node->mode);
        }
        break;
      }
      case 1: {  // read
        bool want = CanTraverse(model, target_comps, who) &&
                    !target_node->is_dir &&
                    fs::Allows(AttrsOf(*target_node), who, fs::Access::kRead);
        auto got = client.Read(target);
        EXPECT_EQ(got.ok(), want)
            << "read " << target << " uid " << uid << ": " << got.status();
        if (got.ok()) {
          EXPECT_EQ(*got, target_node->content) << "content of " << target;
        }
        break;
      }
      case 2: {  // readdir
        bool want = CanTraverse(model, target_comps, who) &&
                    target_node->is_dir &&
                    fs::Allows(AttrsOf(*target_node), who, fs::Access::kRead);
        auto got = client.Readdir(target);
        EXPECT_EQ(got.ok(), want) << "readdir " << target << " uid " << uid
                                  << ": " << got.status();
        if (got.ok()) {
          EXPECT_EQ(got->size(), target_node->children.size());
        }
        break;
      }
      case 3: {  // write (whole-file)
        bool want = CanTraverse(model, target_comps, who) &&
                    !target_node->is_dir &&
                    fs::Allows(AttrsOf(*target_node), who,
                               fs::Access::kWrite);
        Bytes content = rng.NextBytes(rng.NextBelow(6000));
        Status got = client.WriteFile(target, content);
        EXPECT_EQ(got.ok(), want)
            << "write " << target << " uid " << uid << ": " << got;
        if (got.ok()) target_node->content = content;
        break;
      }
      case 4: {  // create or mkdir
        if (!target_node->is_dir) break;
        std::string name = names[rng.NextBelow(4)];
        bool as_dir = rng.NextBool();
        uint16_t mode_octal = as_dir ? dir_modes[rng.NextBelow(7)]
                                     : file_modes[rng.NextBelow(7)];
        auto child_comps = target_comps;
        child_comps.push_back(name);
        bool exists = target_node->children.count(name) > 0;
        bool want = CanTraverse(model, target_comps, who) &&
                    fs::Allows(AttrsOf(*target_node), who,
                               fs::Access::kWrite) &&
                    fs::Allows(AttrsOf(*target_node), who,
                               fs::Access::kExec) &&
                    !exists;
        CreateOptions copts;
        copts.mode = fs::Mode::FromOctal(mode_octal);
        std::string child_path = JoinComps(child_comps);
        Status got = as_dir ? client.Mkdir(child_path, copts)
                            : client.Create(child_path, copts);
        EXPECT_EQ(got.ok(), want) << (as_dir ? "mkdir " : "create ")
                                  << child_path << " uid " << uid << ": "
                                  << got;
        if (got.ok()) {
          RefNode child;
          child.is_dir = as_dir;
          child.owner = uid;
          child.group = world.DefaultGroupOf(uid);
          child.mode = fs::Mode::FromOctal(mode_octal);
          target_node->children[name] = child;
        }
        break;
      }
      case 5: {  // chmod (mode-bit changes only)
        if (target_comps.empty()) break;  // Skip the root for simplicity.
        uint16_t mode_octal = target_node->is_dir
                                  ? dir_modes[rng.NextBelow(7)]
                                  : file_modes[rng.NextBelow(7)];
        bool want = CanTraverse(model, target_comps, who) &&
                    uid == target_node->owner;
        Status got = client.Chmod(target, fs::Mode::FromOctal(mode_octal));
        EXPECT_EQ(got.ok(), want)
            << "chmod " << target << " uid " << uid << ": " << got;
        if (got.ok()) target_node->mode = fs::Mode::FromOctal(mode_octal);
        break;
      }
      case 6: {  // unlink
        if (target_comps.empty() || target_node->is_dir) break;
        auto parent_comps = target_comps;
        parent_comps.pop_back();
        RefNode* parent = model.Find(parent_comps);
        bool want = CanTraverse(model, target_comps, who) &&
                    fs::Allows(AttrsOf(*parent), who, fs::Access::kWrite) &&
                    fs::Allows(AttrsOf(*parent), who, fs::Access::kExec);
        Status got = client.Unlink(target);
        EXPECT_EQ(got.ok(), want)
            << "unlink " << target << " uid " << uid << ": " << got;
        if (got.ok()) parent->children.erase(target_comps.back());
        break;
      }
      case 7: {  // rmdir
        if (target_comps.empty() || !target_node->is_dir) break;
        auto parent_comps = target_comps;
        parent_comps.pop_back();
        RefNode* parent = model.Find(parent_comps);
        // Our documented rmdir semantics: parent w&x, target empty, and
        // the caller can prove emptiness through their own CAP (owner, or
        // a class whose effective dir perms expose the table).
        fs::ResolvedPerms perms = fs::Resolve(AttrsOf(*target_node), who);
        fs::PermTriple eff = core::EffectiveDirPerms(perms.perms);
        bool can_verify = uid == target_node->owner || eff != 0;
        bool want = CanTraverse(model, target_comps, who) &&
                    fs::Allows(AttrsOf(*parent), who, fs::Access::kWrite) &&
                    fs::Allows(AttrsOf(*parent), who, fs::Access::kExec) &&
                    target_node->children.empty() && can_verify;
        Status got = client.Rmdir(target);
        EXPECT_EQ(got.ok(), want)
            << "rmdir " << target << " uid " << uid << ": " << got;
        if (got.ok()) parent->children.erase(target_comps.back());
        break;
      }
    }
    ++agreements;
    if (::testing::Test::HasFailure()) break;  // Stop at first divergence.
  }
  EXPECT_EQ(agreements, c.ops);
}

INSTANTIATE_TEST_SUITE_P(Walks, ModelBasedTest,
                         ::testing::Values(ModelCase{101, 500},
                                           ModelCase{202, 500},
                                           ModelCase{303, 500},
                                           ModelCase{404, 500},
                                           ModelCase{505, 500}));

}  // namespace
}  // namespace sharoes
