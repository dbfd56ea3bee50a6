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
struct ReplicaView : VersionedReply {
  uint32_t node_index = 0;
  bool self = false;
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
    const uint64_t key = RoutingKeyOf(entry.key);
    // Strays from an older ring epoch: their current owners scrub them.
    if (!ring_->Owns(node_id_, key)) continue;
    ++pass.examined;
    Request get = Request::Get(entry.key);
    get.want_version = true;

    const std::vector<uint32_t> replicas = ring_->ReplicaIndicesFor(key);
    std::vector<ReplicaView> views;
    for (uint32_t node_index : replicas) {
      ReplicaView view;
      view.node_index = node_index;
      view.self = config.nodes[node_index].id == node_id_;
      auto resp = replica_call(node_index, get);
      if (resp.ok() && DecodeVersionedReply(*resp, &view)) {
        views.push_back(std::move(view));
      } else {
        ++pass.unreachable;
      }
    }
    const bool all_replied = views.size() == replicas.size();

    // Converge on the freshest state with the client's read-repair
    // rule; a repeated repair is a no-op at the receiving store.
    auto winner = Freshest(views.begin(), views.end());
    if (winner == views.end()) continue;
    bool any_live = false;
    for (const ReplicaView& v : views) {
      any_live = any_live || v.status == RespStatus::kOk;
      auto fix = RepairOp(entry.key, *winner, v);
      if (!fix.has_value()) continue;
      auto r = replica_call(v.node_index, *fix);
      ++pass.repaired;
      if (!r.ok() || r->status != RespStatus::kOk) {
        obs::Log(obs::Severity::kWarn, "ssp.scrub.repair_failed",
                 {{"node", config.nodes[v.node_index].id},
                  {"op", OpCodeName(fix->op)}});
      }
    }
    // GC: only with a FULL quorum of replies, none of them live. One
    // unreachable replica could be holding a fresher re-create, so it
    // vetoes the purge. Each daemon purges only its own tombstone, at
    // the exact version it just observed (a concurrent re-create aborts
    // inside RemoveTombstone).
    if (winner->status == RespStatus::kDeleted && all_replied && !any_live) {
      for (const ReplicaView& v : views) {
        if (v.self && v.status == RespStatus::kDeleted &&
            server_->store().RemoveTombstone(entry.key, v.version)) {
          ++pass.tombstones_gc;
        }
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
