// Cluster: owns the simulator, the network, and per datacenter its durable
// state (key-value store, group logs and acceptors) and its Transaction
// Service; creates Transaction Clients. This is the top-level object
// examples and benches instantiate (paper Figure 1).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "fault/fault_plan.h"
#include "kvstore/store.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "txn/client.h"
#include "txn/service.h"

namespace paxoscp::fault {
class FaultInjector;
}

namespace paxoscp::core {

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();  // out-of-line: FaultInjector is incomplete here
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& config() const { return config_; }
  int num_datacenters() const { return config_.num_datacenters(); }

  sim::Simulator* simulator() { return &simulator_; }
  txn::Network* network() { return network_.get(); }
  kvstore::MultiVersionStore* store(DcId dc) {
    return &datacenters_[dc]->store;
  }
  txn::TransactionService* service(DcId dc) { return services_[dc].get(); }

  /// Creates a Transaction Client homed at `dc` (which must be a valid
  /// datacenter index; out-of-range aborts). The returned pointer is owned
  /// by the cluster and stays valid until the cluster is destroyed —
  /// callers must never delete it. Application code should not use this
  /// directly: prefer CreateSession / Db::Session, whose handles cannot
  /// outlive or double-free the client.
  txn::TransactionClient* CreateClient(DcId dc,
                                       const txn::ClientOptions& options);

  /// Opens a session (the public transaction API, txn/txn.h) homed at
  /// `dc`, backed by a fresh cluster-owned client.
  txn::Session CreateSession(DcId dc, const txn::ClientOptions& options = {});

  /// Seeds the same initial data row into every datacenter (position-0
  /// state, the workload's pre-loaded YCSB row).
  Status LoadInitialRow(const std::string& group, const std::string& row,
                        const kvstore::AttributeMap& attributes);

  /// Runs the simulation until no events remain (all client coroutines
  /// finished). Returns the number of events executed.
  uint64_t RunToCompletion(uint64_t max_events = UINT64_MAX);

  // Fault injection passthrough.
  void SetDatacenterDown(DcId dc, bool down) {
    network_->SetDatacenterDown(dc, down);
  }
  void SetLinkDown(DcId a, DcId b, bool down) {
    network_->SetLinkDown(a, b, down);
  }
  void SetLinkOneWayDown(DcId from, DcId to, bool down) {
    network_->SetLinkOneWayDown(from, to, down);
  }

  /// Restarts the Transaction Service at `dc`: the replacement serves all
  /// new requests from the datacenter's state (its store, group logs and
  /// acceptors), which the retired instance keeps serving the requests
  /// already in flight from (a restart loses nothing but in-flight work —
  /// services are stateless, see txn/service.h). A running recovery daemon
  /// moves to the replacement, which adopts the pending prepares the
  /// group logs list.
  void RestartService(DcId dc);

  /// Arms `plan` on this cluster's fault injector: every event fires at
  /// Now() + event.at, service restarts routed through RestartService.
  /// Returns the injector (owned by the cluster) for inspection.
  fault::FaultInjector* ApplyFaultPlan(const fault::FaultPlan& plan);

  /// Fresh RNG seed derived deterministically from the cluster seed.
  uint64_t NextSeed();

 private:
  ClusterConfig config_;
  sim::Simulator simulator_;
  Rng seed_rng_;
  std::unique_ptr<txn::Network> network_;
  std::vector<std::unique_ptr<txn::DatacenterState>> datacenters_;
  std::vector<std::unique_ptr<txn::TransactionService>> services_;
  /// Replaced service instances, kept alive because in-flight handler
  /// coroutines still reference them.
  std::vector<std::unique_ptr<txn::TransactionService>> retired_services_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<std::unique_ptr<txn::TransactionClient>> clients_;
  uint32_t next_client_uid_ = 1;
};

}  // namespace paxoscp::core
