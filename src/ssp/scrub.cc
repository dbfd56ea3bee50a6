#include "ssp/scrub.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"

namespace sharoes::ssp {

namespace {

/// One replica's decoded versioned answer for one key.
struct ReplicaView {
  uint32_t node_index = 0;
  bool self = false;
  bool replied = false;
  VersionedReply reply;
};

}  // namespace

Scrubber::Scrubber(SspServer* server, const PlacementRing* ring,
                   uint32_t node_id, PeerFactory peers)
    : server_(server),
      ring_(ring),
      node_id_(node_id),
      peers_(std::move(peers)),
      runs_(obs::MetricsRegistry::Global().counter("ssp.scrub.runs")),
      repaired_(obs::MetricsRegistry::Global().counter("ssp.scrub.repaired")),
      tombstones_gc_(
          obs::MetricsRegistry::Global().counter("ssp.scrub.tombstones_gc")) {}

ScrubPass Scrubber::RunOnce() {
  ScrubPass pass;
  runs_->Increment();
  const ClusterConfig& config = ring_->config();
  // Channels to peer daemons, opened lazily and reused for the whole
  // pass; an unreachable peer marks every key's read on it failed.
  std::map<uint32_t, std::unique_ptr<SspChannel>> peers;
  auto replica_call = [&](uint32_t node_index,
                          const Request& req) -> Result<Response> {
    const ClusterNode& node = config.nodes[node_index];
    if (node.id == node_id_) return server_->Handle(req);
    auto it = peers.find(node_index);
    if (it == peers.end()) {
      auto opened = peers_(node);
      if (!opened.ok()) return opened.status();
      it = peers.emplace(node_index, std::move(*opened)).first;
    }
    return it->second->Call(req);
  };

  // The enumeration is a point-in-time shard-consistent listing; each
  // key is then re-read versioned from every replica, so entries that
  // changed since the listing are judged on fresh state.
  for (const ObjectVersion& entry : server_->store().ListVersions()) {
    Request get = Request::Get(entry.key);
    const uint64_t key = RoutingKeyOf(entry.key);
    // Strays from an older ring epoch: their current owners scrub them.
    if (!ring_->Owns(node_id_, key)) continue;
    ++pass.examined;
    get.want_version = true;

    const std::vector<uint32_t> replicas = ring_->ReplicaIndicesFor(key);
    std::vector<ReplicaView> views(replicas.size());
    bool all_replied = true;
    for (size_t pos = 0; pos < replicas.size(); ++pos) {
      ReplicaView& view = views[pos];
      view.node_index = replicas[pos];
      view.self = config.nodes[replicas[pos]].id == node_id_;
      auto resp = replica_call(replicas[pos], get);
      view.replied = resp.ok() && DecodeVersionedReply(*resp, &view.reply);
      if (!view.replied) {
        all_replied = false;
        ++pass.unreachable;
      }
    }

    // Freshest acknowledged state: highest generation, tombstone
    // winning ties (same rule as the client's SettleRead; rationale in
    // DESIGN.md §16).
    uint64_t max_gen = 0;
    for (const ReplicaView& v : views) {
      if (v.replied && v.reply.status != RespStatus::kNotFound &&
          v.reply.gen > max_gen) {
        max_gen = v.reply.gen;
      }
    }
    bool deleted_wins = false;
    const ReplicaView* live_winner = nullptr;
    bool live_ambiguous = false;
    for (const ReplicaView& v : views) {
      if (!v.replied) continue;
      if (v.reply.status == RespStatus::kDeleted && v.reply.gen == max_gen) {
        deleted_wins = true;
      }
      if (v.reply.status == RespStatus::kOk && v.reply.gen == max_gen) {
        if (live_winner == nullptr) {
          live_winner = &v;
        } else if (v.reply.payload != live_winner->reply.payload) {
          // Same generation, different bytes: diverged histories with
          // no local evidence to rank them. Leave the key for a client
          // read (which has session fingerprints) rather than guess —
          // a wrong scrub repair would propagate the guess to all K.
          live_ambiguous = true;
        }
      }
    }

    auto repair = [&](const ReplicaView& target, Request fix) {
      fix.has_store_gen = true;
      fix.store_gen = max_gen;
      auto r = replica_call(target.node_index, fix);
      ++pass.repaired;
      if (!r.ok() || (r->status != RespStatus::kOk &&
                      r->status != RespStatus::kNotFound)) {
        obs::Log(obs::Severity::kWarn, "ssp.scrub.repair_failed",
                 {{"node", config.nodes[target.node_index].id},
                  {"op", OpCodeName(fix.op)}});
      }
    };

    if (deleted_wins) {
      // Re-delete onto live stragglers only — never onto replicas that
      // answered missing (absence already agrees with deletion, and
      // re-creating the tombstone there would fight GC forever).
      bool any_live = false;
      for (const ReplicaView& v : views) {
        if (v.replied && v.reply.status == RespStatus::kOk) {
          any_live = true;
          repair(v, Request::Delete(entry.key));
        }
      }
      // GC: only with a FULL quorum of replies, none of them live. One
      // unreachable replica could be holding a fresher re-create, so it
      // vetoes the purge. Each daemon purges only its own tombstone, at
      // the exact generation it just observed (a concurrent re-create
      // aborts inside RemoveTombstone).
      if (all_replied && !any_live) {
        for (const ReplicaView& v : views) {
          if (v.self && v.reply.status == RespStatus::kDeleted &&
              server_->store().RemoveTombstone(entry.key, v.reply.gen)) {
            ++pass.tombstones_gc;
          }
        }
      }
      continue;
    }

    if (live_winner != nullptr && !live_ambiguous) {
      for (const ReplicaView& v : views) {
        if (!v.replied || &v == live_winner) continue;
        const bool current = v.reply.status == RespStatus::kOk &&
                             v.reply.gen == max_gen &&
                             v.reply.payload == live_winner->reply.payload;
        if (current) continue;
        // Stale live copy, lower-generation tombstone (a legitimate
        // delete-then-recreate), or missing: re-put the winner at its
        // generation. Gen-gating on the receiving store protects any
        // concurrent fresher op.
        repair(v, Request::Put(entry.key, live_winner->reply.payload));
      }
    }
  }

  repaired_->Add(pass.repaired);
  tombstones_gc_->Add(pass.tombstones_gc);
  obs::Log(obs::Severity::kInfo, "ssp.scrub.pass",
           {{"examined", pass.examined},
            {"repaired", pass.repaired},
            {"tombstones_gc", pass.tombstones_gc},
            {"unreachable", pass.unreachable}});
  return pass;
}

void Scrubber::Start(uint32_t interval_s) {
  if (interval_s == 0 || thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this, interval_s] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (cv_.wait_for(lock, std::chrono::seconds(interval_s),
                       [this] { return stop_; })) {
        break;
      }
      lock.unlock();
      RunOnce();
      lock.lock();
    }
  });
}

void Scrubber::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace sharoes::ssp
