#include "core/sharded_channel.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "obs/json.h"
#include "obs/log.h"
#include "ssp/tcp_service.h"

namespace sharoes::core {

namespace {

using ssp::OpCode;
using ssp::Request;
using ssp::RespStatus;
using ssp::Response;

// Capped exponential backoff between quorum rounds.
constexpr uint64_t kRoundBackoffMs = 20;
constexpr uint64_t kMaxRoundBackoffMs = 500;

bool IsAdminOp(OpCode op) {
  return op == OpCode::kGetStats || op == OpCode::kGetTraces;
}

// A nonzero writer id from a nondeterministic source: never derived from
// the options' jitter seed, which many channels may share.
uint64_t DrawWriterId() {
  Rng rng;
  uint64_t id = 0;
  while (id == 0) id = rng.NextU64();
  return id;
}

uint64_t WallClockMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// Per-sub-op quorum progress across rounds. Replica positions index
/// into `replicas` (preference order from the ring).
struct ShardedChannel::SubState {
  /// One usable read reply (decoded versioned wire shape) and the
  /// replica position that gave it.
  struct Reply : ssp::VersionedReply {
    uint32_t pos = 0;  // Replica position (preference order).
  };

  const Request* req = nullptr;
  ssp::Version version;  // Mutations only: the stamp every replica sees.
  bool mutating = false;
  std::vector<uint32_t> replicas;  // Node indices, preferred first.
  uint32_t need_acks = 1;          // W for writes.
  uint32_t need_replies = 1;       // R for reads.
  std::vector<uint8_t> acked;      // Per position: write acknowledged.
  std::vector<uint8_t> targeted;   // Per position: ever asked (reads).
  /// Reads: usable replies (kOk/kNotFound/kDeleted), at most one per
  /// position.
  std::vector<Reply> usable;
  uint32_t acks = 0;
  bool wrong_shard = false;
  bool done = false;
  Response final;

  bool HasUsable(uint32_t pos) const {
    for (const auto& u : usable) {
      if (u.pos == pos) return true;
    }
    return false;
  }
};

Result<std::unique_ptr<ShardedChannel>> ShardedChannel::Open(
    const std::string& config_path, const ShardedChannelOptions& options) {
  SHAROES_ASSIGN_OR_RETURN(ssp::ClusterConfig config,
                           ssp::ClusterConfig::LoadFromFile(config_path));
  net::TcpTimeouts timeouts = options.timeouts;
  NodeFactory factory =
      [timeouts](const ssp::ClusterNode& node)
      -> RetryingConnection::ChannelFactory {
    std::string host = node.host;
    uint16_t port = node.port;
    return [host, port,
            timeouts]() -> Result<std::unique_ptr<ssp::SspChannel>> {
      auto channel = ssp::TcpSspChannel::Connect(host, port, timeouts);
      if (!channel.ok()) return channel.status();
      return std::unique_ptr<ssp::SspChannel>(std::move(*channel));
    };
  };
  ConfigSource refresh = [config_path]() {
    return ssp::ClusterConfig::LoadFromFile(config_path);
  };
  return Create(std::move(config), std::move(factory), options,
                std::move(refresh));
}

Result<std::unique_ptr<ShardedChannel>> ShardedChannel::Create(
    ssp::ClusterConfig config, NodeFactory factory,
    const ShardedChannelOptions& options, ConfigSource refresh) {
  SHAROES_ASSIGN_OR_RETURN(ssp::PlacementRing ring,
                           ssp::PlacementRing::Build(std::move(config)));
  return std::unique_ptr<ShardedChannel>(
      new ShardedChannel(std::move(ring), std::move(factory), options,
                         std::move(refresh)));
}

ShardedChannel::ShardedChannel(ssp::PlacementRing ring, NodeFactory factory,
                               const ShardedChannelOptions& options,
                               ConfigSource refresh)
    : ring_(std::move(ring)),
      factory_(std::move(factory)),
      options_(options),
      refresh_(std::move(refresh)),
      rng_(options.seed != 0 ? Rng(options.seed) : Rng()),
      writer_(DrawWriterId()),
      fanout_hist_(
          obs::MetricsRegistry::Global().histogram("client.rpc.shard_fanout")) {
}

RetryingConnection* ShardedChannel::NodeConn(uint32_t node_index) {
  const ssp::ClusterNode& node = ring_.config().nodes[node_index];
  auto it = conns_.find(node.id);
  if (it == conns_.end()) {
    NodeConnSlot slot;
    slot.host = node.host;
    slot.port = node.port;
    slot.conn = std::make_unique<RetryingConnection>(factory_(node),
                                                     options_.node_retry);
    it = conns_.emplace(node.id, std::move(slot)).first;
  }
  return it->second.conn.get();
}

Result<Response> ShardedChannel::CallNode(uint32_t node_index,
                                          const Request& req) {
  return NodeConn(node_index)->Call(req);
}

Result<Response> ShardedChannel::CallOnNode(uint32_t node_id,
                                            const Request& req) {
  const ssp::ClusterConfig& config = ring_.config();
  for (uint32_t i = 0; i < config.nodes.size(); ++i) {
    if (config.nodes[i].id == node_id) return CallNode(i, req);
  }
  return Status::NotFound("no cluster node with id " +
                          std::to_string(node_id));
}

void ShardedChannel::RebuildRing(ssp::ClusterConfig config) {
  auto rebuilt = ssp::PlacementRing::Build(std::move(config));
  if (!rebuilt.ok()) {
    obs::Log(obs::Severity::kWarn, "client.shard.refresh_rejected",
             {{"detail", rebuilt.status().ToString()}});
    return;
  }
  ring_ = std::move(*rebuilt);
  // Keep live sockets only for node ids that survived the refresh AT
  // THEIR OLD ENDPOINT. A connection whose node id moved to a new
  // host:port must go too: its factory captured the old address at
  // creation, so keeping it would mean reconnect-looping against a dead
  // endpoint (and leaking one stale fd per refresh) forever.
  for (auto it = conns_.begin(); it != conns_.end();) {
    const ssp::ClusterNode* node = ring_.config().FindNode(it->first);
    if (node == nullptr || node->host != it->second.host ||
        node->port != it->second.port) {
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void ShardedChannel::BackoffRound(int round) {
  uint64_t base = kRoundBackoffMs;
  for (int i = 1; i < round && base < kMaxRoundBackoffMs; ++i) {
    base *= 2;
  }
  base = std::min(base, kMaxRoundBackoffMs);
  // ±20% jitter so a fleet of clients re-quorums out of lockstep.
  double factor = 0.8 + 0.4 * rng_.NextDouble();
  base = static_cast<uint64_t>(static_cast<double>(base) * factor);
  if (base > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(base));
  }
}

ssp::Version ShardedChannel::NextVersion() {
  last_ts_ = std::max(last_ts_ + 1, WallClockMicros());
  return {last_ts_, writer_};
}

void ShardedChannel::Observe(const ssp::Version& seen) {
  last_ts_ = std::max(last_ts_, seen.ts);
}

Result<Response> ShardedChannel::Call(const Request& req) {
  // Admin ops have no routing key: fan them out to every configured
  // node and merge, so `sharoes_cli stats` against a cluster reports
  // the fleet, not whichever daemon happens to be listed first. Tools
  // that want one specific daemon use CallOnNode.
  if (IsAdminOp(req.op)) return CallAdmin(req);

  const bool is_batch = req.op == OpCode::kBatch;
  std::vector<const Request*> subs;
  if (is_batch) {
    subs.reserve(req.batch.size());
    for (const Request& sub : req.batch) subs.push_back(&sub);
  } else {
    subs.push_back(&req);
  }
  if (subs.empty()) return Response::Ok();

  // Stamp once, before the routing retry below: every replica, quorum
  // round and retry of a sub-op carries the same version, and the
  // sub-ops of this call order by submission.
  std::vector<ssp::Version> versions(subs.size());
  for (size_t i = 0; i < subs.size(); ++i) {
    if (ssp::IsMutatingOp(subs[i]->op)) versions[i] = NextVersion();
  }

  std::vector<Response> finals;
  for (int attempt = 0; attempt < 2; ++attempt) {
    finals.clear();
    bool wrong_shard = ExecuteSubOps(subs, versions, &finals);
    if (wrong_shard && refresh_ != nullptr && attempt == 0) {
      // Some daemon refused a routing key: our ring is stale. Refresh
      // placement and retry the whole sub-op set exactly once — an acked
      // sub-op re-sent at its own version is a no-op, and a second
      // kWrongShard means daemons and config genuinely disagree, which
      // must surface instead of looping.
      ++placement_refreshes_;
      auto fresh = refresh_();
      if (fresh.ok()) RebuildRing(std::move(*fresh));
      continue;
    }
    break;
  }
  if (!is_batch) return finals.at(0);
  Response top;
  top.status = RespStatus::kOk;
  top.batch = std::move(finals);
  return top;
}

Result<Response> ShardedChannel::CallAdmin(const Request& req) {
  const ssp::ClusterConfig& config = ring_.config();
  const size_t n = config.nodes.size();
  Request wire = req;
  // Stats merge needs the binary mergeable snapshot form; each daemon
  // still applies the payload's prefix filter itself.
  if (req.op == OpCode::kGetStats) wire.binary_stats = true;

  // Same short-lived thread-per-node fan-out as ExecuteSubOps; the
  // connections are materialized on this thread first.
  std::vector<RetryingConnection*> conns(n);
  for (size_t i = 0; i < n; ++i) {
    conns[i] = NodeConn(static_cast<uint32_t>(i));
  }
  std::vector<std::optional<Result<Response>>> results(n);
  if (n == 1) {
    results[0] = conns[0]->Call(wire);
  } else {
    std::vector<std::thread> pack;
    pack.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      pack.emplace_back(
          [&, i] { results[i] = conns[i]->Call(wire); });
    }
    for (std::thread& th : pack) th.join();
  }
  fanout_hist_->Record(n);

  if (req.op == OpCode::kGetStats) {
    // Fold the per-daemon snapshots into one fleet view and render the
    // same JSON document a single daemon would have returned (counters
    // and gauges sum, histograms merge pointwise — so the percentiles
    // are computed over the union of all samples, not averaged).
    obs::RegistrySnapshot merged;
    uint64_t reporting = 0;
    for (size_t i = 0; i < n; ++i) {
      const auto& r = *results[i];
      if (!r.ok() || r->status != RespStatus::kOk) continue;
      auto snap = obs::RegistrySnapshot::DeserializeBinary(r->payload);
      if (!snap.ok()) {
        obs::Log(obs::Severity::kWarn, "client.shard.stats_undecodable",
                 {{"node", config.nodes[i].id},
                  {"detail", snap.status().ToString()}});
        continue;
      }
      merged.Merge(*snap);
      ++reporting;
    }
    if (reporting == 0) {
      return Status::Unavailable("no cluster node answered kGetStats");
    }
    // How much of the fleet this document covers — a partial merge must
    // be visible, not silently presented as the whole cluster.
    merged.gauges["cluster.nodes_reporting"] = reporting;
    merged.gauges["cluster.nodes_total"] = n;
    return Response::Ok(ToBytes(merged.ToJson()));
  }

  // kGetTraces: span timelines are per-daemon documents with no
  // meaningful cross-node merge, so return one object keyed by node id
  // with each daemon's document embedded verbatim.
  obs::JsonObjectWriter w;
  uint64_t reporting = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto& r = *results[i];
    if (!r.ok() || r->status != RespStatus::kOk) continue;
    std::string doc(r->payload.begin(), r->payload.end());
    w.RawField("node_" + std::to_string(config.nodes[i].id), doc);
    ++reporting;
  }
  if (reporting == 0) {
    return Status::Unavailable("no cluster node answered kGetTraces");
  }
  return Response::Ok(ToBytes(w.Take()));
}

bool ShardedChannel::ExecuteSubOps(const std::vector<const Request*>& subs,
                                   const std::vector<ssp::Version>& versions,
                                   std::vector<ssp::Response>* finals) {
  const ssp::ClusterConfig& config = ring_.config();
  std::vector<SubState> states(subs.size());
  for (size_t i = 0; i < subs.size(); ++i) {
    SubState& s = states[i];
    s.req = subs[i];
    s.version = versions[i];
    s.mutating = ssp::IsMutatingOp(s.req->op);
    s.replicas = ring_.ReplicaIndicesFor(ssp::RoutingKeyOf(s.req->key));
    const uint32_t k = static_cast<uint32_t>(s.replicas.size());
    s.need_acks = std::min(config.write_quorum, k);
    s.need_replies = std::min(config.read_quorum, k);
    s.acked.assign(k, 0);
    s.targeted.assign(k, 0);
  }

  // One node's work for one round: the sub-ops (in submission order)
  // plus each one's replica position, shipped as a single request.
  struct NodeTask {
    uint32_t node = 0;
    RetryingConnection* conn = nullptr;
    std::vector<std::pair<size_t, uint32_t>> items;  // (sub idx, position).
    Request wire;
    bool wrapped = false;
    std::optional<Result<Response>> result;
  };

  std::vector<uint32_t> fanout_nodes;
  bool any_wrong_shard = false;
  for (int round = 0; round < std::max(1, options_.quorum_rounds); ++round) {
    // Plan the round. Writes: every replica that has not acked the sub
    // yet — even for subs whose quorum is already met — so each node
    // receives the sub-ops it is missing in submission order (a node
    // must never apply a key's older write after its newer one because
    // the older sub straggled). Reads: enough untried replicas to
    // complete the R quorum, preferring the ring order and failing
    // over to further replicas only when earlier ones went unusable.
    std::vector<NodeTask> tasks;
    auto task_for = [&](uint32_t node) -> NodeTask& {
      for (NodeTask& t : tasks) {
        if (t.node == node) return t;
      }
      tasks.push_back(NodeTask{});
      tasks.back().node = node;
      return tasks.back();
    };
    bool all_done = true;
    for (size_t i = 0; i < states.size(); ++i) {
      SubState& s = states[i];
      if (s.done) continue;
      all_done = false;
      if (s.mutating) {
        for (uint32_t pos = 0; pos < s.replicas.size(); ++pos) {
          if (!s.acked[pos]) {
            task_for(s.replicas[pos]).items.emplace_back(i, pos);
          }
        }
      } else {
        uint32_t want = s.need_replies - static_cast<uint32_t>(
                                             s.usable.size());
        // Untried replicas first (ring preference order), then re-asks
        // of replicas that failed earlier rounds (they may be back).
        for (int pass = 0; pass < 2 && want > 0; ++pass) {
          for (uint32_t pos = 0; pos < s.replicas.size() && want > 0;
               ++pos) {
            if (s.HasUsable(pos)) continue;
            const bool untried = !s.targeted[pos];
            if ((pass == 0) != untried) continue;
            if (untried && pos >= s.need_replies) ++read_failovers_;
            s.targeted[pos] = 1;
            task_for(s.replicas[pos]).items.emplace_back(i, pos);
            --want;
          }
        }
      }
    }
    if (all_done) break;

    // Mutating subs whose quorum is met keep replicating above, but a
    // round that is ONLY backfill must not hold the call: stop when no
    // unfinished sub has work planned.
    bool planned_unfinished = false;
    for (NodeTask& t : tasks) {
      for (auto& [sub_idx, pos] : t.items) {
        (void)pos;
        if (!states[sub_idx].done) planned_unfinished = true;
      }
    }
    if (!planned_unfinished) break;
    // Back off only before a round that has unfinished work: a call whose
    // first round settled every sub-op returns without sleeping.
    if (round > 0) {
      BackoffRound(round);
      ++quorum_retry_rounds_;
    }

    // Materialize wires + connections on this thread, then fan out.
    auto wire_of = [&](size_t sub_idx) {
      Request wire = *states[sub_idx].req;
      wire.version = states[sub_idx].version;
      return wire;
    };
    for (NodeTask& t : tasks) {
      t.conn = NodeConn(t.node);
      if (std::find(fanout_nodes.begin(), fanout_nodes.end(), t.node) ==
          fanout_nodes.end()) {
        fanout_nodes.push_back(t.node);
      }
      if (t.items.size() == 1) {
        t.wire = wire_of(t.items[0].first);
      } else {
        std::vector<Request> batch;
        batch.reserve(t.items.size());
        for (auto& [sub_idx, pos] : t.items) {
          (void)pos;
          batch.push_back(wire_of(sub_idx));
        }
        t.wire = Request::Batch(std::move(batch));
        t.wrapped = true;
      }
      // Every cluster read is versioned: replies carry their copy's
      // version and tombstones answer kDeleted, the raw material of
      // delete-aware freshness. The flag rides the
      // top-level frame (a batch envelope's flag covers its sub-reads)
      // and is a no-op for mutating ops.
      t.wire.want_version = true;
    }
    if (tasks.size() == 1) {
      tasks[0].result = tasks[0].conn->Call(tasks[0].wire);
    } else {
      std::vector<std::thread> pack;
      pack.reserve(tasks.size());
      for (NodeTask& t : tasks) {
        pack.emplace_back([&t] { t.result = t.conn->Call(t.wire); });
      }
      for (std::thread& th : pack) th.join();
    }

    // Absorb replies.
    for (NodeTask& t : tasks) {
      const Result<Response>& result = *t.result;
      for (size_t item = 0; item < t.items.size(); ++item) {
        auto [sub_idx, pos] = t.items[item];
        SubState& s = states[sub_idx];
        if (s.done) continue;
        RespStatus status;
        const Response* sub_resp = nullptr;
        if (!result.ok()) {
          continue;  // Transport failure: no ack, no reply.
        } else if (t.wrapped) {
          if (result->status != RespStatus::kOk ||
              result->batch.size() != t.items.size()) {
            // Envelope-level kError (e.g. WAL ack failure) or a
            // malformed stitch: nothing in this frame counts.
            continue;
          }
          sub_resp = &result->batch[item];
          status = sub_resp->status;
        } else {
          sub_resp = &*result;
          status = sub_resp->status;
        }
        if (status == RespStatus::kWrongShard) {
          s.wrong_shard = true;
          any_wrong_shard = true;
          continue;
        }
        if (status == RespStatus::kBadRequest) {
          s.final = Response::BadRequest();
          s.done = true;
          continue;
        }
        if (s.mutating) {
          if (status == RespStatus::kOk || status == RespStatus::kNotFound) {
            if (!s.acked[pos]) {
              s.acked[pos] = 1;
              ++s.acks;
            }
          }
        } else {
          SubState::Reply reply;
          if (!s.HasUsable(pos) &&
              ssp::DecodeVersionedReply(*sub_resp, &reply)) {
            Observe(reply.version);
            reply.pos = pos;
            s.usable.push_back(std::move(reply));
          }
        }
      }
    }

    // Settle quorums.
    for (SubState& s : states) {
      if (s.done) continue;
      if (s.mutating) {
        if (s.acks >= s.need_acks) {
          s.final = Response::Ok();
          s.done = true;
        }
      } else if (s.usable.size() >= s.need_replies) {
        SettleRead(&s);
      }
    }
    if (any_wrong_shard && refresh_ != nullptr) break;  // Refresh first.
  }

  fanout_hist_->Record(fanout_nodes.size());
  finals->reserve(states.size());
  for (SubState& s : states) {
    if (!s.done) {
      // Quorum not assembled inside the round budget: transient by
      // construction (every definitive verdict settles a sub), so the
      // reply layers above already handle — kError — fits exactly.
      s.final = s.wrong_shard ? Response::WrongShard() : Response::Error();
    }
    finals->push_back(std::move(s.final));
  }
  return any_wrong_shard;
}

void ShardedChannel::SettleRead(SubState* sub) {
  const SubState::Reply& winner =
      *ssp::Freshest(sub->usable.begin(), sub->usable.end());
  sub->final = winner.status == RespStatus::kOk ? Response::Ok(winner.payload)
                                                : Response::NotFound();
  sub->done = true;
  for (const auto& u : sub->usable) {
    auto fix = ssp::RepairOp(sub->req->key, winner, u);
    if (!fix.has_value()) continue;
    // Best-effort: a failed repair just leaves the divergence for the
    // next read or the scrubber.
    auto repaired = CallNode(sub->replicas[u.pos], *fix);
    ++read_repairs_;
    if (!repaired.ok() || repaired->status != RespStatus::kOk) {
      obs::Log(obs::Severity::kWarn, "client.shard.repair_failed",
               {{"op", ssp::OpCodeName(fix->op)}, {"k1", sub->req->key.k1}});
    }
  }
}

}  // namespace sharoes::core
