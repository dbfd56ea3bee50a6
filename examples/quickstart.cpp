// Quickstart: stand up a simulated SSP, provision an enterprise of two
// users, migrate a small filesystem, and share files through SHAROES —
// all plaintext stays on the client side of the wire.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/client.h"
#include "core/migration.h"
#include "net/network_model.h"
#include "ssp/ssp_server.h"

using namespace sharoes;

namespace {

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL: %s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

constexpr fs::UserId kAlice = 1000;
constexpr fs::UserId kBob = 1001;

}  // namespace

int main() {
  std::printf("=== SHAROES quickstart ===\n\n");

  // --- 1. The pieces: a virtual clock, crypto engine, an SSP, a WAN. ---
  SimClock clock;
  crypto::CryptoEngineOptions eng_opts;
  eng_opts.rng_seed = 2024;
  crypto::CryptoEngine engine(&clock, eng_opts);
  ssp::SspServer ssp_server;  // The untrusted storage service provider.
  net::Transport wan(&clock, net::NetworkModel::PaperDsl());
  ssp::SspConnection conn(&ssp_server, &wan);

  // --- 2. Provision the enterprise: users, keys, and the filesystem. ---
  core::IdentityDirectory identity;
  core::Provisioner provisioner(&identity, &ssp_server, &engine,
                                core::Provisioner::Options());

  std::printf("Provisioning users alice and bob...\n");
  auto alice_keys = provisioner.CreateUser(kAlice, "alice");
  Check(alice_keys.status(), "create alice");
  auto bob_keys = provisioner.CreateUser(kBob, "bob");
  Check(bob_keys.status(), "create bob");

  // The migration tool transitions existing local storage to the SSP.
  core::LocalNode root = core::LocalNode::Dir(
      "", kAlice, fs::kInvalidGroup, fs::Mode::FromOctal(0755));
  core::LocalNode docs = core::LocalNode::Dir(
      "docs", kAlice, fs::kInvalidGroup, fs::Mode::FromOctal(0755));
  docs.children.push_back(core::LocalNode::File(
      "welcome.txt", kAlice, fs::kInvalidGroup, fs::Mode::FromOctal(0644),
      ToBytes("Welcome to the outsourced enterprise!")));
  root.children.push_back(std::move(docs));
  auto stats = provisioner.Migrate(root);
  Check(stats.status(), "migrate");
  std::printf("Migrated %llu dirs, %llu files; %llu bytes shipped to the "
              "SSP (all ciphertext).\n\n",
              static_cast<unsigned long long>(stats->directories),
              static_cast<unsigned long long>(stats->files),
              static_cast<unsigned long long>(stats->bytes_transferred));

  // --- 3. Mount as alice: one private-key op opens her superblock. ---
  core::ClientOptions copts;
  core::SharoesClient alice(kAlice, alice_keys->priv, &identity, &conn,
                            &engine, copts);
  Check(alice.Mount(), "mount alice");
  std::printf("alice mounted. Reading /docs/welcome.txt ...\n");
  auto content = alice.Read("/docs/welcome.txt");
  Check(content.status(), "read");
  std::printf("  -> \"%s\"\n\n", ToString(*content).c_str());

  // --- 4. Alice writes a new shared file and a private one. ---
  core::CreateOptions shared;
  shared.mode = fs::Mode::FromOctal(0644);  // World-readable.
  Check(alice.Create("/docs/announce.txt", shared), "create");
  Check(alice.WriteFile("/docs/announce.txt",
                        ToBytes("Q3 all-hands on Friday")),
        "write");
  core::CreateOptions secret;
  secret.mode = fs::Mode::FromOctal(0600);  // Owner only.
  Check(alice.Create("/docs/salary.txt", secret), "create secret");
  Check(alice.WriteFile("/docs/salary.txt", ToBytes("CONFIDENTIAL")),
        "write secret");
  std::printf("alice created announce.txt (0644) and salary.txt (0600).\n");

  // --- 5. Bob mounts with only his own key pair: in-band key flow. ---
  core::SharoesClient bob(kBob, bob_keys->priv, &identity, &conn, &engine,
                          copts);
  Check(bob.Mount(), "mount bob");
  auto announce = bob.Read("/docs/announce.txt");
  Check(announce.status(), "bob read announce");
  std::printf("bob reads announce.txt -> \"%s\"\n",
              ToString(*announce).c_str());
  auto salary = bob.Read("/docs/salary.txt");
  std::printf("bob reads salary.txt   -> %s\n\n",
              salary.ok() ? "UNEXPECTEDLY ALLOWED"
                          : salary.status().ToString().c_str());

  // --- 6. What did all this cost on the simulated DSL WAN? ---
  CostSnapshot snap = clock.snapshot();
  std::printf("Virtual time elapsed: %.1f s  (network %.1f s, crypto "
              "%.1f s, other %.1f s)\n",
              snap.total_s(), snap.network_ns() / 1e9,
              snap.crypto_ns() / 1e9, snap.other_ns() / 1e9);
  std::printf("Round trips to the SSP: %llu\n",
              static_cast<unsigned long long>(wan.counters().round_trips));
  std::printf("\nDone. The SSP stored and served everything without ever "
              "holding a key or a plaintext byte.\n");
  return 0;
}
