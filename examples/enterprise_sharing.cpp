// Enterprise sharing scenarios: groups, exec-only home directories,
// POSIX ACL split points, and chmod-driven revocation — the full *nix
// data sharing semantics of the paper, over an untrusted SSP.
//
//   ./build/examples/enterprise_sharing

#include <cstdio>

#include "core/client.h"
#include "core/migration.h"
#include "net/network_model.h"
#include "ssp/ssp_server.h"

using namespace sharoes;

namespace {

constexpr fs::UserId kAlice = 1, kBob = 2, kCarol = 3;
constexpr fs::GroupId kEng = 100;

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL: %s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

std::string Outcome(const Status& s) {
  return s.ok() ? "allowed" : s.ToString();
}

fs::Mode M(const char* s) {
  fs::Mode m;
  if (!fs::Mode::Parse(s, &m)) std::exit(2);
  return m;
}

}  // namespace

int main() {
  std::printf("=== SHAROES enterprise sharing demo ===\n\n");

  SimClock clock;
  crypto::CryptoEngineOptions eng_opts;
  eng_opts.rng_seed = 7;
  eng_opts.cost_model = crypto::CryptoCostModel::Zero();  // Demo: no WAN.
  crypto::CryptoEngine engine(&clock, eng_opts);
  ssp::SspServer ssp_server;
  net::Transport wan(&clock, net::NetworkModel::Zero());
  ssp::SspConnection conn(&ssp_server, &wan);

  core::IdentityDirectory identity;
  core::Provisioner provisioner(&identity, &ssp_server, &engine,
                                core::Provisioner::Options());
  auto alice_kp = provisioner.CreateUser(kAlice, "alice");
  auto bob_kp = provisioner.CreateUser(kBob, "bob");
  auto carol_kp = provisioner.CreateUser(kCarol, "carol");
  Check(carol_kp.status(), "users");
  // Engineering group: alice and bob. Group keys are wrapped to each
  // member and stored at the SSP (paper §II-A).
  Check(provisioner.CreateGroup(kEng, "eng", {kAlice, kBob}).status(),
        "group");

  // The enterprise tree, with the permission patterns the paper's user
  // study found dominant (exec-only home directories):
  //   /home              0755  alice:eng
  //   /home/alice        0711  <- exec-only for everyone else
  //   /home/alice/cv.pdf 0600
  //   /home/alice/talk.pdf 0644
  //   /eng               0770  group collaboration space
  //   /eng/design.md     0660
  core::LocalNode root = core::LocalNode::Dir("", kAlice, kEng, M("rwxr-xr-x"));
  core::LocalNode home = core::LocalNode::Dir("home", kAlice, kEng,
                                              M("rwxr-xr-x"));
  core::LocalNode ahome = core::LocalNode::Dir("alice", kAlice, kEng,
                                               M("rwx--x--x"));
  ahome.children.push_back(core::LocalNode::File(
      "cv.pdf", kAlice, kEng, M("rw-------"), ToBytes("alice's cv")));
  ahome.children.push_back(core::LocalNode::File(
      "talk.pdf", kAlice, kEng, M("rw-r--r--"), ToBytes("public talk")));
  home.children.push_back(std::move(ahome));
  core::LocalNode eng = core::LocalNode::Dir("eng", kAlice, kEng,
                                             M("rwxrwx---"));
  eng.children.push_back(core::LocalNode::File(
      "design.md", kAlice, kEng, M("rw-rw----"), ToBytes("# design v1")));
  root.children.push_back(std::move(home));
  root.children.push_back(std::move(eng));
  Check(provisioner.Migrate(root).status(), "migrate");

  core::ClientOptions copts;
  copts.default_group = kEng;
  core::SharoesClient alice(kAlice, alice_kp->priv, &identity, &conn,
                            &engine, copts);
  core::SharoesClient bob(kBob, bob_kp->priv, &identity, &conn, &engine,
                          copts);
  core::ClientOptions carol_opts;  // carol is not in eng.
  core::SharoesClient carol(kCarol, carol_kp->priv, &identity, &conn,
                            &engine, carol_opts);
  Check(alice.Mount(), "mount alice");
  Check(bob.Mount(), "mount bob");
  Check(carol.Mount(), "mount carol");

  std::printf("--- Exec-only home directory (/home/alice is rwx--x--x) ---\n");
  auto ls = bob.Readdir("/home/alice");
  std::printf("bob:   ls /home/alice            -> %s\n",
              ls.ok() ? "allowed (!)" : Outcome(ls.status()).c_str());
  auto known = bob.Read("/home/alice/talk.pdf");
  std::printf("bob:   cat /home/alice/talk.pdf  -> %s\n",
              known.ok() ? ToString(*known).c_str()
                         : known.status().ToString().c_str());
  auto cv = bob.Read("/home/alice/cv.pdf");
  std::printf("bob:   cat /home/alice/cv.pdf    -> %s\n",
              Outcome(cv.status()).c_str());
  std::printf("(knowing the exact name grants traversal; listing does "
              "not exist for --x readers)\n\n");

  std::printf("--- Group collaboration (/eng is rwxrwx---) ---\n");
  Check(bob.WriteFile("/eng/design.md", ToBytes("# design v2 (bob)")),
        "bob write");
  auto design = alice.Read("/eng/design.md");
  std::printf("bob edits /eng/design.md; alice reads -> \"%s\"\n",
              ToString(*design).c_str());
  auto carol_try = carol.Read("/eng/design.md");
  std::printf("carol (not in eng) reads             -> %s\n\n",
              Outcome(carol_try.status()).c_str());

  std::printf("--- ACL split point: carol gets read on one file ---\n");
  core::CreateOptions aclopts;
  aclopts.mode = M("rw-rw----");
  aclopts.acl.push_back(fs::AclEntry{fs::AclEntry::Kind::kUser, kCarol, 4});
  Check(alice.Create("/eng/spec-for-carol.md", aclopts), "acl create");
  // carol cannot traverse /eng, so alice shares from /home instead.
  core::CreateOptions aclopts2 = aclopts;
  Check(alice.Create("/home/spec-for-carol.md", aclopts2), "acl create 2");
  Check(alice.WriteFile("/home/spec-for-carol.md", ToBytes("please review")),
        "acl write");
  auto carol_acl = carol.Read("/home/spec-for-carol.md");
  std::printf("carol reads /home/spec-for-carol.md  -> \"%s\"\n",
              carol_acl.ok() ? ToString(*carol_acl).c_str()
                             : carol_acl.status().ToString().c_str());
  // Caches are client-local (no coherence protocol, as in the paper):
  // bob must drop his cached copy of /home's table to see the new entry.
  bob.DropCaches();
  auto bob_acl = bob.Read("/home/spec-for-carol.md");
  std::printf("bob (group rw- on it) also reads     -> %s\n\n",
              bob_acl.ok() ? ("\"" + ToString(*bob_acl) + "\"").c_str()
                           : Outcome(bob_acl.status()).c_str());

  std::printf("--- Revocation: alice locks down talk.pdf ---\n");
  auto before = carol.Read("/home/alice/talk.pdf");
  std::printf("carol reads talk.pdf before chmod    -> %s\n",
              before.ok() ? "allowed" : "denied (?)");
  Check(alice.Chmod("/home/alice/talk.pdf", M("rw-r-----")), "chmod");
  carol.DropCaches();
  auto after = carol.Read("/home/alice/talk.pdf");
  std::printf("chmod 640; carol reads again         -> %s\n",
              Outcome(after.status()).c_str());
  std::printf("(immediate revocation re-encrypted the file under a fresh "
              "key, so even a cached DEK is useless)\n\n");

  std::printf("--- Group membership revocation ---\n");
  Check(provisioner.RemoveGroupMember(kEng, kBob), "remove member");
  core::SharoesClient bob2(kBob, bob_kp->priv, &identity, &conn, &engine,
                           copts);
  Check(bob2.Mount(), "remount bob");
  auto bob_after = bob2.Read("/eng/design.md");
  std::printf("bob removed from eng; fresh mount reads /eng/design.md "
              "-> %s\n", Outcome(bob_after.status()).c_str());

  std::printf("\nDone: full *nix sharing semantics, enforced by key "
              "accessibility alone — the SSP never made a single access "
              "decision.\n");
  return 0;
}
