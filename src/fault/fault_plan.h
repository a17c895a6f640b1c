// Deterministic fault-injection plans (docs/ARCHITECTURE.md, design note
// D6). A FaultPlan is a list of timed events — datacenter outage/recovery,
// link partition/heal (bidirectional, one-way, or a full cluster
// bisection), message-loss bursts, and Transaction Service restarts — that
// a fault::FaultInjector schedules on the simulator. RandomPlanGenerator
// draws seeded random plans from a configurable PlanEnvelope, so chaos
// sweeps explore a diverse but bounded fault space and any (seed, envelope)
// pair replays bit-identically.
//
// This header depends only on common/ so that core::Cluster can accept a
// FaultPlan without a dependency cycle (the injector, which needs the
// network, lives in fault/injector.h).
#pragma once

#include <string>
#include <vector>

#include "common/random.h"
#include "common/types.h"

namespace paxoscp::fault {

enum class FaultKind {
  kDatacenterDown,   // a: datacenter
  kDatacenterUp,     // a: datacenter
  kLinkDown,         // a,b: endpoints, bidirectional
  kLinkUp,           // a,b
  kLinkOneWayDown,   // a -> b only
  kLinkOneWayUp,     // a -> b only
  kLossBurst,        // loss: probability replacing the baseline
  kLossRestore,      // restore the baseline loss probability
  kServiceRestart,   // a: datacenter whose Transaction Service restarts
  kDuplicateBurst,   // loss: duplicate-delivery probability (see D10)
  kDuplicateRestore, // restore the baseline duplicate probability
  kReorderBurst,     // loss: reorder probability; extra: max held-back delay
  kReorderRestore,   // restore the baseline reorder settings
};

const char* FaultKindName(FaultKind kind);

/// One timed fault event. `at` is virtual time relative to the moment the
/// plan is armed on the injector.
struct FaultEvent {
  TimeMicros at = 0;
  FaultKind kind = FaultKind::kDatacenterDown;
  DcId a = kNoDc;
  DcId b = kNoDc;
  double loss = 0.0;  // kLossBurst / kDuplicateBurst / kReorderBurst
  TimeMicros extra = 0;  // kReorderBurst only: max held-back delay

  std::string ToString() const;
};

/// An ordered list of fault events. Plans generated by RandomPlanGenerator
/// are already normalized; hand-built plans should call Normalize() before
/// being armed so events fire in time order deterministically.
struct FaultPlan {
  std::vector<FaultEvent> events;

  /// Stable-sorts events by time (preserving insertion order at equal
  /// times, matching the simulator's (time, insertion-order) execution).
  void Normalize();

  /// One event per line — the replay artifact the chaos harness writes when
  /// a checker violation is found.
  std::string ToString() const;
};

/// Bounds of the random fault space. The defaults describe a moderately
/// hostile but always-healing environment: every outage/partition/burst
/// episode ends within the horizon, episodes on the same resource are
/// separated by a heal gap, and at most `max_concurrent_dc_outages`
/// datacenters are ever down simultaneously. Note that the cap bounds
/// *datacenter outages only* — a bisection (or a link cut overlapping an
/// outage) can still cost a side its majority, so default plans may
/// temporarily lose quorum; disable `allow_bisection`/`allow_link_cut`
/// for liveness-sensitive tests.
struct PlanEnvelope {
  int num_datacenters = 3;
  /// Episodes start in [first_fault, first_fault + horizon].
  TimeMicros first_fault = 2 * kSecond;
  TimeMicros horizon = 20 * kSecond;
  /// Number of fault episodes to attempt (an episode is one down+up pair,
  /// one loss burst, or one service restart).
  int min_episodes = 1;
  int max_episodes = 4;
  /// Episode duration bounds (outage length, partition length, burst
  /// length).
  TimeMicros min_duration = 500 * kMillisecond;
  TimeMicros max_duration = 5 * kSecond;
  /// Minimum quiet time between two episodes touching the same resource
  /// (the "min heal gap": a datacenter that recovered must stay up at least
  /// this long before it may fail again).
  TimeMicros min_heal_gap = 1 * kSecond;
  /// Cap on simultaneously-down datacenters (link cuts and bisections are
  /// not counted; see the note above).
  int max_concurrent_dc_outages = 1;
  /// Loss-burst probability bounds.
  double min_loss_burst = 0.05;
  double max_loss_burst = 0.4;
  /// Duplicate-delivery burst probability bounds (kDuplicateBurst).
  double min_duplicate_burst = 0.05;
  double max_duplicate_burst = 0.5;
  /// Reorder burst probability bounds (kReorderBurst) and the cap on the
  /// extra held-back delay a reordered message may suffer.
  double min_reorder_burst = 0.05;
  double max_reorder_burst = 0.5;
  TimeMicros max_reorder_extra = 750 * kMillisecond;
  /// Which episode shapes the generator may draw. The delivery-fault shapes
  /// (duplication/reordering, D10) default OFF: enabling a shape changes the
  /// generator's draw sequence, and existing (seed, envelope) plans must
  /// replay bit-identically.
  bool allow_dc_outage = true;
  bool allow_link_cut = true;
  bool allow_oneway_cut = true;
  bool allow_bisection = true;
  bool allow_loss_burst = true;
  bool allow_service_restart = true;
  bool allow_duplicate_burst = false;
  bool allow_reorder_burst = false;
};

/// Draws random plans within an envelope. Deterministic: the same
/// (envelope, seed) always yields the same plan sequence.
class RandomPlanGenerator {
 public:
  RandomPlanGenerator(PlanEnvelope envelope, uint64_t seed);

  /// Generates the next plan. Every down-type event has a matching up-type
  /// event, all events lie within [first_fault, first_fault + horizon +
  /// max_duration], and the envelope's concurrency/heal-gap constraints
  /// hold.
  FaultPlan Generate();

  const PlanEnvelope& envelope() const { return envelope_; }

 private:
  /// Tracks per-resource fault intervals for heal-gap and concurrency
  /// enforcement (a bisection holds one token per crossing link).
  struct Episode {
    std::vector<std::string> resources;  // "dc3", "link1-2", "loss", ...
    TimeMicros start = 0;
    TimeMicros end = 0;  // fault window end (heal gap added when checking)
    bool is_dc_outage = false;
  };

  bool Admissible(const std::vector<Episode>& taken, const Episode& e) const;

  PlanEnvelope envelope_;
  Rng rng_;
};

}  // namespace paxoscp::fault
