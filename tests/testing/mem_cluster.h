// In-process replicated SSP cluster for scrubber tests: N SspServers
// with tombstones on and shard ownership armed over one placement ring,
// and anti-entropy scrubbers whose peer channels are in-process
// SspConnections — every peer call goes through the real request and
// response encoding and SspServer::HandleWire, without sockets, threads
// or WALs. A test may interpose on every peer call a scrubber makes, to
// count, fail or rewrite it.

#ifndef SHAROES_TESTS_TESTING_MEM_CLUSTER_H_
#define SHAROES_TESTS_TESTING_MEM_CLUSTER_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/network_model.h"
#include "ssp/placement.h"
#include "ssp/scrub.h"
#include "ssp/ssp_server.h"

namespace sharoes::testing {

class MemCluster {
 public:
  /// Interposes on every call a scrubber makes to peer `node_id`:
  /// forward it to `inner`, rewrite it, fail it, or act around it.
  using PeerHook = std::function<Result<ssp::Response>(
      uint32_t node_id, const ssp::Request& req, ssp::SspChannel* inner)>;

  /// `nodes` servers, K = min(3, nodes), so with three nodes every node
  /// replicates every key.
  explicit MemCluster(uint32_t nodes = 3) {
    ssp::ClusterConfig config;
    config.replication = std::min<uint32_t>(3, nodes);
    config.write_quorum = config.replication / 2 + 1;
    config.read_quorum = config.write_quorum;
    config.virtual_nodes = 64;
    for (uint32_t i = 0; i < nodes; ++i) {
      servers_.push_back(std::make_unique<ssp::SspServer>());
      servers_.back()->store().set_tombstones_enabled(true);
      config.nodes.push_back({i, "127.0.0.1", static_cast<uint16_t>(i + 1)});
    }
    auto ring = ssp::PlacementRing::Build(std::move(config));
    EXPECT_TRUE(ring.ok()) << ring.status();
    ring_ = std::make_unique<ssp::PlacementRing>(std::move(*ring));
    for (uint32_t i = 0; i < nodes; ++i) {
      servers_[i]->set_placement(ring_.get(), i);
    }
  }

  ssp::SspServer* server(uint32_t i) { return servers_[i].get(); }

  /// A stamped put or delete applied to node `i` alone (the one replica
  /// that saw the write).
  void Put(uint32_t i, const ssp::ObjectKey& key, Bytes blob,
           ssp::Version version) {
    ssp::Request put = ssp::Request::Put(key, std::move(blob));
    put.version = version;
    EXPECT_EQ(server(i)->Handle(put).status, ssp::RespStatus::kOk);
  }
  void Delete(uint32_t i, const ssp::ObjectKey& key, ssp::Version version) {
    ssp::Request del = ssp::Request::Delete(key);
    del.version = version;
    EXPECT_EQ(server(i)->Handle(del).status, ssp::RespStatus::kOk);
  }

  /// Node `i`'s copy of `key`: live blob or tombstone, with its version.
  std::optional<ssp::ObjectStore::Versioned> Copy(uint32_t i,
                                                  const ssp::ObjectKey& key) {
    return server(i)->store().GetVersioned(key);
  }

  /// Node `i`'s scrubber; every peer call passes through `hook` if set.
  std::unique_ptr<ssp::Scrubber> MakeScrubber(uint32_t i, PeerHook hook = {}) {
    return std::make_unique<ssp::Scrubber>(
        server(i), ring_.get(), i,
        [this, hook](const ssp::ClusterNode& node)
            -> Result<std::unique_ptr<ssp::SspChannel>> {
          auto direct = std::make_unique<ssp::SspConnection>(server(node.id),
                                                             &transport_);
          if (!hook) return std::unique_ptr<ssp::SspChannel>(std::move(direct));
          return std::unique_ptr<ssp::SspChannel>(
              std::make_unique<HookedChannel>(node.id, std::move(direct), hook));
        });
  }

 private:
  class HookedChannel : public ssp::SspChannel {
   public:
    HookedChannel(uint32_t node_id, std::unique_ptr<ssp::SspChannel> inner,
                  PeerHook hook)
        : node_id_(node_id), inner_(std::move(inner)), hook_(std::move(hook)) {}
    Result<ssp::Response> Call(const ssp::Request& req) override {
      return hook_(node_id_, req, inner_.get());
    }

   private:
    uint32_t node_id_;
    std::unique_ptr<ssp::SspChannel> inner_;
    PeerHook hook_;
  };

  std::vector<std::unique_ptr<ssp::SspServer>> servers_;
  std::unique_ptr<ssp::PlacementRing> ring_;
  net::Transport transport_{/*clock=*/nullptr, net::NetworkModel{}};
};

}  // namespace sharoes::testing

#endif  // SHAROES_TESTS_TESTING_MEM_CLUSTER_H_
