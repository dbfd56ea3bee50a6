// Pins the exact stored layout: SHA-256 digests of the SSP store
// snapshot (ObjectStore::Serialize) after migrations and after a fixed
// client sequence, for both SHAROES schemes and all four baselines.
//
// The provisioner and the clients must write byte-identical objects
// (same keys, nonces, draw order and put order) for a given seed; a
// digest change means the layout, an RNG draw order or a put order
// moved. The digests were recorded before the provisioner and the
// clients were collapsed onto one renderer per layout.

#include <gtest/gtest.h>

#include "baselines/baseline.h"
#include "crypto/sha256.h"
#include "testing/world.h"

namespace sharoes {
namespace {

using core::LocalNode;
using testing::kAlice;
using testing::kBob;
using testing::kCarol;
using testing::kEng;
using testing::World;

std::string StoreDigest(const ssp::SspServer& server) {
  return HexEncode(crypto::Sha256Digest(server.store().Serialize()));
}

std::string StatsString(const core::MigrationStats& s) {
  return std::to_string(s.files) + "/" + std::to_string(s.directories) +
         "/" + std::to_string(s.metadata_replicas) + "/" +
         std::to_string(s.table_copies) + "/" +
         std::to_string(s.split_blocks) + "/" +
         std::to_string(s.data_blocks) + "/" +
         std::to_string(s.bytes_transferred);
}

Bytes Pattern(size_t n, uint8_t salt) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>(i * 31 + salt + (i >> 8));
  }
  return b;
}

/// Files at every block-boundary case (empty, one byte, exactly one
/// block, one block plus one byte, five whole blocks) and a split-point
/// directory: carol's directory, whose others copy is read by alice and
/// bob, holds children on which the two diverge (owner vs. group), one
/// with an ACL entry for carol.
LocalNode SizesTree() {
  LocalNode root =
      LocalNode::Dir("", kAlice, kEng, World::ParseMode("rwxr-xr-x"));
  LocalNode sizes =
      LocalNode::Dir("sizes", kAlice, kEng, World::ParseMode("rwxr-x---"));
  const size_t kSizes[] = {0, 1, 4096, 4097, 5 * 4096};
  for (size_t i = 0; i < 5; ++i) {
    sizes.children.push_back(LocalNode::File(
        "f" + std::to_string(kSizes[i]), kAlice, kEng,
        World::ParseMode("rw-r-----"),
        Pattern(kSizes[i], static_cast<uint8_t>(i))));
  }
  LocalNode acl = LocalNode::Dir("acl", kCarol, testing::kSales,
                                 World::ParseMode("rwxr-xr-x"));
  LocalNode granted = LocalNode::File("granted.txt", kAlice, kEng,
                                      World::ParseMode("rw-r-----"),
                                      ToBytes("for carol too"));
  granted.acl.push_back(fs::AclEntry{fs::AclEntry::Kind::kUser, kCarol, 4});
  acl.children.push_back(std::move(granted));
  acl.children.push_back(LocalNode::Dir("bobs", kBob, kEng,
                                        World::ParseMode("rwx------")));
  acl.children.push_back(LocalNode::File("open.txt", kAlice, kEng,
                                         World::ParseMode("rw-r--r--"),
                                         Pattern(5000, 9)));
  root.children.push_back(std::move(sizes));
  root.children.push_back(std::move(acl));
  return root;
}

World::Options WorldOptions(core::Scheme scheme) {
  World::Options opts;
  opts.scheme = scheme;
  return opts;
}

const char* SchemeName(core::Scheme scheme) {
  return scheme == core::Scheme::kScheme1 ? "scheme1" : "scheme2";
}

struct MigrationPin {
  core::Scheme scheme;
  bool sizes_tree;
  const char* stats;
  const char* digest;
};

const MigrationPin kMigrationPins[] = {
    {core::Scheme::kScheme1, false, "4/5/27/15/0/4/17028",
     "d49c96d51bcb6707f573423335c737cd48dc89f095a15a84a79d1511750f891e"},
    {core::Scheme::kScheme2, false, "4/5/27/15/0/4/17028",
     "552bebd9ff27841b077d8ebcd7dbd85be2ecacd21bff3265c4ec4bdcd6f1dcad"},
    {core::Scheme::kScheme1, true, "7/4/33/12/0/13/53724",
     "063da3b4839ea369cc7aafe5aa07145277b7c88ace572de42822fde7d05480d6"},
    {core::Scheme::kScheme2, true, "7/4/32/11/6/13/53681",
     "3ae303212ebd5a491a577b12d0bfc6302397096dcd498749570c9dcd374386a4"},
};

TEST(LayoutPinTest, MigrationLayoutIsPinned) {
  for (const MigrationPin& pin : kMigrationPins) {
    SCOPED_TRACE(std::string(SchemeName(pin.scheme)) +
                 (pin.sizes_tree ? " sizes tree" : " default tree"));
    World world(WorldOptions(pin.scheme));
    ASSERT_TRUE(world
                    .MigrateAndMountAll(pin.sizes_tree ? SizesTree()
                                                       : World::DefaultTree())
                    .ok());
    if (pin.sizes_tree && pin.scheme == core::Scheme::kScheme2) {
      EXPECT_GT(world.migration_stats().split_blocks, 0u);
    }
    EXPECT_EQ(StatsString(world.migration_stats()), pin.stats);
    EXPECT_EQ(StoreDigest(world.server()), pin.digest);
  }
}

/// A second client for `uid` on the world's SSP with lazy revocation
/// (the world's own clients revoke immediately).
struct LazyClient {
  LazyClient(World* world, fs::UserId uid)
      : transport(&world->clock(), net::NetworkModel::Zero()),
        conn(&world->server(), &transport) {
    crypto::CryptoEngineOptions eo;
    eo.cost_model = crypto::CryptoCostModel::Zero();
    eo.signing_key_bits = 512;
    eo.rng_seed = 0x1A2B;
    engine = std::make_unique<crypto::CryptoEngine>(&world->clock(), eo);
    core::ClientOptions copts;
    copts.scheme = world->client(uid).options().scheme;
    copts.revocation = core::RevocationMode::kLazy;
    copts.default_group = world->DefaultGroupOf(uid);
    client = std::make_unique<core::SharoesClient>(
        uid, world->user_key(uid), &world->identity(), &conn, engine.get(),
        copts);
  }
  net::Transport transport;
  ssp::SspConnection conn;
  std::unique_ptr<crypto::CryptoEngine> engine;
  std::unique_ptr<core::SharoesClient> client;
};

const char* const kClientPins[] = {
    "ce1c3aebd4c1f37407778057ff0bfb3111cced64e4a6b0c8d43b92f063e0c42e",
    "f7323dc7fcd94e1d25e23e02d5fafad365b54cce25a5ac05fff62ba75ecf13d9",
};

TEST(LayoutPinTest, ClientSequenceLayoutIsPinned) {
  const core::Scheme kSchemes[] = {core::Scheme::kScheme1,
                                   core::Scheme::kScheme2};
  for (size_t s = 0; s < 2; ++s) {
    SCOPED_TRACE(SchemeName(kSchemes[s]));
    World world(WorldOptions(kSchemes[s]));
    ASSERT_TRUE(world.MigrateAndMountAll(World::DefaultTree()).ok());
    core::SharoesClient& alice = world.client(kAlice);
    core::CreateOptions dopts;
    dopts.mode = World::ParseMode("rwxrwx---");
    core::CreateOptions fopts;
    fopts.mode = World::ParseMode("rw-rw----");
    ASSERT_TRUE(alice.Mkdir("/shared/proj", dopts).ok());
    ASSERT_TRUE(alice.Create("/shared/proj/big.bin", fopts).ok());
    // Multi-block write, then a one-block overwrite: the second flush
    // keeps the unchanged cached blocks (the diff path).
    Bytes big = Pattern(3 * 4096 + 100, 3);
    ASSERT_TRUE(alice.WriteFile("/shared/proj/big.bin", big).ok());
    big[2 * 4096 + 7] ^= 0xFF;
    ASSERT_TRUE(alice.WriteFile("/shared/proj/big.bin", big).ok());
    // Lazy revocation: the chmod records the next key, the next write
    // rotates to it.
    {
      LazyClient lazy(&world, kAlice);
      ASSERT_TRUE(lazy.client->Mount().ok());
      ASSERT_TRUE(lazy.client
                      ->Chmod("/home/alice/notes.txt",
                              World::ParseMode("rw-------"))
                      .ok());
      ASSERT_TRUE(lazy.client
                      ->WriteFile("/home/alice/notes.txt",
                                  ToBytes("rotated notes"))
                      .ok());
    }
    // Immediate revocation re-encrypts the multi-block file in place.
    ASSERT_TRUE(alice.Chmod("/shared/proj/big.bin",
                            World::ParseMode("rw-r-----"))
                    .ok());
    // A directory chmod that weakens the others' view (full -> none).
    ASSERT_TRUE(alice.Chmod("/home", World::ParseMode("rwxr-x---")).ok());
    ASSERT_TRUE(
        alice.Rename("/shared/proj/big.bin", "/shared/big.bin").ok());
    ASSERT_TRUE(alice.Rename("/shared/plan.md", "/shared/plan2.md").ok());
    EXPECT_EQ(StoreDigest(world.server()), kClientPins[s]);
  }
}

// ----- Baselines -----

struct BaselinePin {
  baselines::SecurityMode mode;
  const char* migrated;
  const char* after_client;
};

const BaselinePin kBaselinePins[] = {
    {baselines::SecurityMode::kNoEncMdD,
     "2b92dfa157eb365048a8186b8da0cc6fb3e1a36d6ba52ad60f32be1f3c1b214e",
     "3002663ccd5a122547b9c332452f5812aa40ecaf4997125f3cb66453a1c16d2c"},
    {baselines::SecurityMode::kNoEncMd,
     "b56850a21ba879ada89282b92ef49784c6fe91d9df2d928c8386d5ac92584e8e",
     "d4958bd3a086cc92ad2c01e09cd3bcd9cebd5864d571b4765d8d85af9f0bca6f"},
    {baselines::SecurityMode::kPublic,
     "b551193844442d9067d3158cc7c2ad61b4b29e40f7de0a540a847af2068a99f5",
     "6981370ad27614b05839ba3c106889c548410e5927ef39a4f0d23f78f7ad9802"},
    {baselines::SecurityMode::kPubOpt,
     "e5f178facb79da3bbdaee6d479eee52d021acaf2ac79f307a5e89ae4ecb90dc2",
     "4deca64078a3a99bc1a1fa04d43a4d1cd5acd5ec040dd8d8944f0f78714e0890"},
};

TEST(LayoutPinTest, BaselineLayoutsArePinned) {
  for (const BaselinePin& pin : kBaselinePins) {
    SCOPED_TRACE(baselines::SecurityModeName(pin.mode));
    SimClock clock;
    crypto::CryptoEngineOptions eo;
    eo.cost_model = crypto::CryptoCostModel::Zero();
    eo.signing_key_bits = 512;
    eo.rng_seed = 4242;
    crypto::CryptoEngine engine(&clock, eo);
    core::IdentityDirectory identity;
    std::map<fs::UserId, crypto::RsaPrivateKey> keys;
    for (fs::UserId uid : {kAlice, kBob}) {
      crypto::RsaKeyPair kp = engine.NewUserKeyPair(512);
      core::UserInfo info;
      info.id = uid;
      info.name = "u" + std::to_string(uid);
      info.public_key = kp.pub;
      keys[uid] = kp.priv;
      ASSERT_TRUE(identity.AddUser(std::move(info)).ok());
    }
    baselines::BaselineOptions opts;
    opts.mode = pin.mode;
    ssp::SspServer server;
    baselines::BaselineProvisioner prov(&identity, &server, &engine, opts);
    ASSERT_TRUE(prov.Migrate(SizesTree()).ok());
    EXPECT_EQ(StoreDigest(server), pin.migrated);

    net::Transport transport(&clock, net::NetworkModel::Zero());
    ssp::SspConnection conn(&server, &transport);
    baselines::BaselineClient client(kAlice, keys.at(kAlice), &identity,
                                     &conn, &engine, opts);
    ASSERT_TRUE(client.Mount().ok());
    core::CreateOptions fopts;
    fopts.mode = fs::Mode::FromOctal(0644);
    ASSERT_TRUE(client.Create("/sizes/new.bin", fopts).ok());
    ASSERT_TRUE(
        client.WriteFile("/sizes/new.bin", Pattern(2 * 4096 + 5, 7)).ok());
    ASSERT_TRUE(
        client.Chmod("/sizes/new.bin", fs::Mode::FromOctal(0600)).ok());
    EXPECT_EQ(StoreDigest(server), pin.after_client);
  }
}

}  // namespace
}  // namespace sharoes
