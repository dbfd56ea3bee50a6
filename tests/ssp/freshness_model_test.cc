// Exhaustive freshness model of a K=3, W=R=2 cluster.
//
// Every history of one to three mutations (put a, put b, delete — so
// delete-then-recreate is covered), where each mutation reaches any
// subset of the replicas and counts as acked when that subset holds at
// least W of them. After each history, every R-subset of replicas is
// read, and the freshest reply must be no older than the last acked
// mutation.
//
// The positive leg runs the real ObjectStore version gate and the shared
// ssp::Freshest rule over decoded wire replies. The negative control, in
// the same test, replays every history against replica-local
// applied-count generations with a "tombstone wins ties" rule and must
// find a counterexample — otherwise the positive leg proves nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ssp/message.h"
#include "ssp/object_store.h"

namespace sharoes::ssp {
namespace {

constexpr int kReplicas = 3;
constexpr int kWriteQuorum = 2;
constexpr int kMaxMutations = 3;
constexpr uint64_t kWriter = 7;
const ObjectKey kKey = ObjectKey::Data(1, 0);

enum class Mut { kPutA, kPutB, kDelete };

struct Step {
  Mut mut;
  unsigned reached;  // Bitmask of the replicas the mutation reached.
};
using History = std::vector<Step>;

// The state a mutation leaves behind: a value, or nullopt when deleted.
std::optional<Bytes> StateOf(Mut mut) {
  if (mut == Mut::kDelete) return std::nullopt;
  return Bytes{mut == Mut::kPutA ? uint8_t{0xA} : uint8_t{0xB}};
}

bool Acked(const Step& step) {
  return __builtin_popcount(step.reached) >= kWriteQuorum;
}

// Index of the last acked mutation, or -1 if none was acked.
int LastAcked(const History& h) {
  int last = -1;
  for (size_t i = 0; i < h.size(); ++i) {
    if (Acked(h[i])) last = static_cast<int>(i);
  }
  return last;
}

// A read answer is fresh enough iff it is the state of some mutation at
// or after the last acked one (anything goes when nothing was acked).
bool NoOlderThanLastAcked(const History& h, const std::optional<Bytes>& got) {
  const int last = LastAcked(h);
  if (last < 0) return true;
  for (size_t j = static_cast<size_t>(last); j < h.size(); ++j) {
    if (StateOf(h[j].mut) == got) return true;
  }
  return false;
}

void ForEachHistory(const std::function<void(const History&)>& fn) {
  History h;
  std::function<void()> extend = [&] {
    if (!h.empty()) fn(h);
    if (h.size() == kMaxMutations) return;
    for (Mut mut : {Mut::kPutA, Mut::kPutB, Mut::kDelete}) {
      for (unsigned reached = 0; reached < (1u << kReplicas); ++reached) {
        h.push_back({mut, reached});
        extend();
        h.pop_back();
      }
    }
  };
  extend();
}

// Every R=2 subset of the three replicas.
constexpr unsigned kReadSets[] = {0b011, 0b101, 0b110};

std::string Describe(const History& h, unsigned read_set) {
  std::string out;
  for (const Step& s : h) {
    out += s.mut == Mut::kDelete ? "delete" : s.mut == Mut::kPutA ? "put a"
                                                                  : "put b";
    out += " -> replicas " + std::to_string(s.reached) + "; ";
  }
  return out + "read replicas " + std::to_string(read_set);
}

// Positive leg: mutation i is stamped {i + 1, writer}, applied through
// the real store gate, and read back through the versioned wire shapes.
std::optional<std::string> VersionedCounterexample(const History& h) {
  std::vector<ObjectStore> replicas;
  for (int r = 0; r < kReplicas; ++r) {
    replicas.emplace_back(1);
    replicas.back().set_tombstones_enabled(true);
  }
  for (size_t i = 0; i < h.size(); ++i) {
    const Version version{i + 1, kWriter};
    for (int r = 0; r < kReplicas; ++r) {
      if ((h[i].reached & (1u << r)) == 0) continue;
      if (auto value = StateOf(h[i].mut)) {
        replicas[r].Put(kKey, *value, version);
      } else {
        replicas[r].Delete(kKey, version);
      }
    }
  }
  for (unsigned read_set : kReadSets) {
    std::vector<VersionedReply> replies;
    for (int r = 0; r < kReplicas; ++r) {
      if ((read_set & (1u << r)) == 0) continue;
      auto v = replicas[r].GetVersioned(kKey);
      Response resp = !v.has_value() ? Response::NotFound()
                      : v->tombstone ? Response::Deleted(v->version)
                                     : Response::Versioned(v->blob, v->version);
      VersionedReply reply;
      if (!DecodeVersionedReply(resp, &reply)) return "undecodable reply";
      replies.push_back(std::move(reply));
    }
    const VersionedReply& winner = *Freshest(replies.begin(), replies.end());
    std::optional<Bytes> got;
    if (winner.status == RespStatus::kOk) got = winner.payload;
    // The winner must be exactly the state its version names...
    const uint64_t ts = winner.version.ts;
    const bool consistent =
        winner.status == RespStatus::kNotFound
            ? ts == 0
            : ts >= 1 && ts <= h.size() && StateOf(h[ts - 1].mut) == got;
    // ...and that mutation must be the last acked one or later.
    const bool fresh = static_cast<int>(ts) - 1 >= LastAcked(h);
    if (!consistent || !fresh || !NoOlderThanLastAcked(h, got)) {
      return Describe(h, read_set);
    }
  }
  return std::nullopt;
}

// Negative control: each replica counts the mutations it applied (the
// local generation bump, including its no-op rules), and the read picks
// the highest generation with a tombstone winning ties. Live-live ties
// get an oracle that picks a fresh value if any is offered, so every
// counterexample found is the counters' and the tie rule's fault.
struct CountedReplica {
  bool present = false;
  bool tombstone = false;
  uint64_t gen = 0;
  Bytes value;
};

void ApplyCounted(CountedReplica* r, Mut mut) {
  const std::optional<Bytes> state = StateOf(mut);
  if (state.has_value()) {
    if (r->present && !r->tombstone && r->value == *state) return;
    r->gen = r->present ? r->gen + 1 : 1;
    r->tombstone = false;
    r->value = *state;
  } else {
    if (r->present && r->tombstone) return;
    r->gen = r->present ? r->gen + 1 : 1;
    r->tombstone = true;
    r->value.clear();
  }
  r->present = true;
}

std::optional<std::string> CountedCounterexample(const History& h) {
  CountedReplica replicas[kReplicas];
  for (const Step& step : h) {
    for (int r = 0; r < kReplicas; ++r) {
      if ((step.reached & (1u << r)) != 0) ApplyCounted(&replicas[r], step.mut);
    }
  }
  for (unsigned read_set : kReadSets) {
    uint64_t max_gen = 0;
    for (int r = 0; r < kReplicas; ++r) {
      if ((read_set & (1u << r)) != 0 && replicas[r].present) {
        max_gen = std::max(max_gen, replicas[r].gen);
      }
    }
    bool deleted_wins = false;
    std::vector<Bytes> live_tops;
    for (int r = 0; r < kReplicas; ++r) {
      const CountedReplica& c = replicas[r];
      if ((read_set & (1u << r)) == 0 || !c.present || c.gen != max_gen) {
        continue;
      }
      if (c.tombstone) {
        deleted_wins = true;
      } else {
        live_tops.push_back(c.value);
      }
    }
    std::optional<Bytes> got;
    if (!deleted_wins && !live_tops.empty()) {
      got = live_tops.front();
      for (const Bytes& v : live_tops) {
        if (NoOlderThanLastAcked(h, v)) got = v;
      }
    }
    if (!NoOlderThanLastAcked(h, got)) return Describe(h, read_set);
  }
  return std::nullopt;
}

TEST(FreshnessModel, GreatestVersionNeverReadsOlderThanTheLastAckedWrite) {
  uint64_t histories = 0;
  uint64_t versioned_failures = 0;
  uint64_t counted_failures = 0;
  std::string first_versioned;
  std::string first_counted;
  ForEachHistory([&](const History& h) {
    ++histories;
    if (auto bad = VersionedCounterexample(h)) {
      if (versioned_failures++ == 0) first_versioned = *bad;
    }
    if (auto bad = CountedCounterexample(h)) {
      if (counted_failures++ == 0) first_counted = *bad;
    }
  });
  // 24 one-step choices per step: 24 + 24^2 + 24^3.
  EXPECT_EQ(histories, 24u + 576u + 13824u);
  EXPECT_EQ(versioned_failures, 0u) << "first: " << first_versioned;
  // The negative control must bite, or the model is too weak to matter.
  EXPECT_GT(counted_failures, 0u)
      << "applied-count generations with a tombstone tie rule survived "
         "the model";
  // The double failure the cluster suite pins end to end: v1 on all
  // three, delete while A is down, re-create while B is down, read A+B.
  const History motivation = {{Mut::kPutA, 0b111},
                               {Mut::kDelete, 0b110},
                               {Mut::kPutB, 0b101}};
  EXPECT_FALSE(VersionedCounterexample(motivation).has_value());
  EXPECT_TRUE(CountedCounterexample(motivation).has_value());
  std::printf("freshness model: %llu histories; applied-count control "
              "failed %llu, first: %s\n",
              static_cast<unsigned long long>(histories),
              static_cast<unsigned long long>(counted_failures),
              first_counted.c_str());
}

}  // namespace
}  // namespace sharoes::ssp
