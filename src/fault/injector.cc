#include "fault/injector.h"

#include <cassert>

namespace paxoscp::fault {

FaultInjector::FaultInjector(net::NetworkBase* network,
                             std::function<void(DcId)> restart_service)
    : network_(network),
      restart_service_(std::move(restart_service)),
      // Captured once: a later Arm() call may land mid-burst, and
      // kLossRestore must return to the true baseline, not the burst.
      baseline_loss_(network->loss_probability()),
      baseline_duplicate_(network->duplicate_probability()),
      baseline_reorder_(network->reorder_probability()),
      baseline_reorder_extra_(network->reorder_extra_max()) {}

void FaultInjector::Arm(const FaultPlan& plan) {
  sim::Simulator* sim = network_->simulator();
  for (const FaultEvent& event : plan.events) {
    assert(event.at >= 0);
    sim->ScheduleAfter(event.at, [this, event] { Apply(event); },
                       "fault/apply");
  }
}

void FaultInjector::Apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kDatacenterDown:
      network_->SetDatacenterDown(event.a, true);
      break;
    case FaultKind::kDatacenterUp:
      network_->SetDatacenterDown(event.a, false);
      break;
    case FaultKind::kLinkDown:
      network_->SetLinkDown(event.a, event.b, true);
      break;
    case FaultKind::kLinkUp:
      network_->SetLinkDown(event.a, event.b, false);
      break;
    case FaultKind::kLinkOneWayDown:
      network_->SetLinkOneWayDown(event.a, event.b, true);
      break;
    case FaultKind::kLinkOneWayUp:
      network_->SetLinkOneWayDown(event.a, event.b, false);
      break;
    case FaultKind::kLossBurst:
      network_->set_loss_probability(event.loss);
      break;
    case FaultKind::kLossRestore:
      network_->set_loss_probability(baseline_loss_);
      break;
    case FaultKind::kServiceRestart:
      if (restart_service_) restart_service_(event.a);
      break;
    case FaultKind::kDuplicateBurst:
      network_->set_duplicate_probability(event.loss);
      break;
    case FaultKind::kDuplicateRestore:
      network_->set_duplicate_probability(baseline_duplicate_);
      break;
    case FaultKind::kReorderBurst:
      network_->set_reorder_probability(event.loss);
      network_->set_reorder_extra_max(event.extra);
      break;
    case FaultKind::kReorderRestore:
      network_->set_reorder_probability(baseline_reorder_);
      network_->set_reorder_extra_max(baseline_reorder_extra_);
      break;
  }
  applied_.push_back(event);
}

}  // namespace paxoscp::fault
