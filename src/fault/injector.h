// FaultInjector: arms a FaultPlan on the simulator, applying each event to
// the network (and, for service restarts, through a caller-supplied
// callback) at its scheduled virtual time. Events are applied relative to
// the virtual time at which Arm() was called, so the same plan can be armed
// at any point of a run. See docs/ARCHITECTURE.md, design note D6.
#pragma once

#include <functional>
#include <vector>

#include "fault/fault_plan.h"
#include "net/network.h"

namespace paxoscp::fault {

class FaultInjector {
 public:
  /// `restart_service(dc)` is invoked for kServiceRestart events; leave it
  /// empty to treat restarts as no-ops (e.g. when driving a bare NetworkBase).
  /// core::Cluster::ApplyFaultPlan wires it to Cluster::RestartService.
  explicit FaultInjector(net::NetworkBase* network,
                         std::function<void(DcId)> restart_service = {});

  /// Schedules every event of `plan` at Now() + event.at. May be called
  /// multiple times; the baseline loss probability that kLossRestore
  /// returns to is the one captured at construction. Accumulated plans
  /// must not overlap on a resource: the network's fault state is boolean,
  /// so plan B's heal of a datacenter/link that plan A still holds down
  /// would end A's fault early (RandomPlanGenerator's heal-gap rule
  /// guarantees this within one plan; across Arm() calls it is on the
  /// caller).
  void Arm(const FaultPlan& plan);

  /// Events applied so far (in application order) — the injector's replay
  /// log, written into chaos failure artifacts.
  const std::vector<FaultEvent>& applied() const { return applied_; }
  int events_applied() const { return static_cast<int>(applied_.size()); }

 private:
  void Apply(const FaultEvent& event);

  net::NetworkBase* network_;
  std::function<void(DcId)> restart_service_;
  // Baselines captured at construction: a later Arm() may land mid-burst,
  // and every *Restore event must return to the true baseline.
  double baseline_loss_;
  double baseline_duplicate_;
  double baseline_reorder_;
  TimeMicros baseline_reorder_extra_;
  std::vector<FaultEvent> applied_;
};

}  // namespace paxoscp::fault
