#include "core/cluster.h"

#include <cstdlib>

#include "common/logging.h"
#include "fault/injector.h"

namespace paxoscp::core {

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)), seed_rng_(config_.seed) {
  net::NetworkOptions net_options;
  net_options.loss_probability = config_.loss_probability;
  net_options.latency_jitter = config_.latency_jitter;
  net_options.seed = NextSeed();
  network_ = std::make_unique<txn::Network>(&simulator_, config_.RttMatrix(),
                                            net_options);
  const int d = config_.num_datacenters();
  stores_.reserve(d);
  services_.reserve(d);
  for (DcId dc = 0; dc < d; ++dc) {
    stores_.push_back(std::make_unique<kvstore::MultiVersionStore>());
    services_.emplace_back();
    RestartService(dc);
  }
}

void Cluster::RestartService(DcId dc) {
  // The recovery daemon (D10) survives a restart like the rest of the
  // service's durable responsibilities: capture its state (and the group
  // names, which live only in the in-memory group map) before retiring the
  // old process, then re-discover pending prepares from the durable WAL
  // side tables on the new one.
  bool daemon_was_running = false;
  txn::RecoveryDaemonOptions daemon_options;
  std::vector<std::string> known_groups;
  if (services_[dc] != nullptr) {
    daemon_was_running = services_[dc]->recovery_daemon_running();
    if (daemon_was_running) {
      daemon_options = services_[dc]->recovery_daemon_options();
    }
    known_groups = services_[dc]->KnownGroups();
    services_[dc]->StopRecoveryDaemon();  // queued timers become no-ops
    retired_services_.push_back(std::move(services_[dc]));
  }
  services_[dc] = std::make_unique<txn::TransactionService>(
      dc, network_.get(), stores_[dc].get(), NextSeed());
  txn::TransactionService* service = services_[dc].get();
  network_->RegisterEndpoint(
      dc, [service](DcId from, const txn::ServiceRequest* request) {
        return service->Handle(from, request);
      });
  for (const std::string& group : known_groups) service->GroupLog(group);
  if (daemon_was_running) service->StartRecoveryDaemon(daemon_options);
}

fault::FaultInjector* Cluster::ApplyFaultPlan(const fault::FaultPlan& plan) {
  if (injector_ == nullptr) {
    injector_ = std::make_unique<fault::FaultInjector>(
        network_.get(), [this](DcId dc) { RestartService(dc); });
  }
  injector_->Arm(plan);
  return injector_.get();
}

Cluster::~Cluster() = default;

uint64_t Cluster::NextSeed() { return seed_rng_.Next(); }

txn::TransactionClient* Cluster::CreateClient(
    DcId dc, const txn::ClientOptions& options) {
  if (dc < 0 || dc >= num_datacenters()) {
    PAXOSCP_LOG(kError) << "CreateClient: datacenter " << dc
                        << " out of range [0, " << num_datacenters() << ")";
    std::abort();
  }
  clients_.push_back(std::make_unique<txn::TransactionClient>(
      network_.get(), dc, options, next_client_uid_++, NextSeed()));
  return clients_.back().get();
}

txn::Session Cluster::CreateSession(DcId dc,
                                    const txn::ClientOptions& options) {
  return txn::Session(CreateClient(dc, options));
}

Status Cluster::LoadInitialRow(const std::string& group,
                               const std::string& row,
                               const kvstore::AttributeMap& attributes) {
  // The whole-row predicate marker must stay out of data rows everywhere,
  // not just in Txn::Write: a loaded "*" attribute would be read back as
  // a row-level predicate by the conflict checks.
  for (const auto& [attribute, value] : attributes) {
    if (wal::IsReservedAttribute(attribute)) {
      return wal::ReservedAttributeError();
    }
  }
  for (DcId dc = 0; dc < num_datacenters(); ++dc) {
    PAXOSCP_RETURN_IF_ERROR(
        services_[dc]->GroupLog(group)->LoadInitialRow(row, attributes));
  }
  return Status::OK();
}

uint64_t Cluster::RunToCompletion(uint64_t max_events) {
  return simulator_.Run(max_events);
}

}  // namespace paxoscp::core
