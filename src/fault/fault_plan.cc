#include "fault/fault_plan.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace paxoscp::fault {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDatacenterDown: return "dc_down";
    case FaultKind::kDatacenterUp: return "dc_up";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kLinkOneWayDown: return "oneway_down";
    case FaultKind::kLinkOneWayUp: return "oneway_up";
    case FaultKind::kLossBurst: return "loss_burst";
    case FaultKind::kLossRestore: return "loss_restore";
    case FaultKind::kServiceRestart: return "service_restart";
    case FaultKind::kDuplicateBurst: return "duplicate_burst";
    case FaultKind::kDuplicateRestore: return "duplicate_restore";
    case FaultKind::kReorderBurst: return "reorder_burst";
    case FaultKind::kReorderRestore: return "reorder_restore";
  }
  return "?";
}

std::string FaultEvent::ToString() const {
  char buf[96];
  const double at_s = static_cast<double>(at) / 1e6;
  switch (kind) {
    case FaultKind::kDatacenterDown:
    case FaultKind::kDatacenterUp:
    case FaultKind::kServiceRestart:
      std::snprintf(buf, sizeof(buf), "t=%.3fs %s dc=%d", at_s,
                    FaultKindName(kind), a);
      break;
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      std::snprintf(buf, sizeof(buf), "t=%.3fs %s %d<->%d", at_s,
                    FaultKindName(kind), a, b);
      break;
    case FaultKind::kLinkOneWayDown:
    case FaultKind::kLinkOneWayUp:
      std::snprintf(buf, sizeof(buf), "t=%.3fs %s %d->%d", at_s,
                    FaultKindName(kind), a, b);
      break;
    case FaultKind::kLossBurst:
    case FaultKind::kDuplicateBurst:
      std::snprintf(buf, sizeof(buf), "t=%.3fs %s p=%.3f", at_s,
                    FaultKindName(kind), loss);
      break;
    case FaultKind::kReorderBurst:
      std::snprintf(buf, sizeof(buf), "t=%.3fs %s p=%.3f extra=%.3fs", at_s,
                    FaultKindName(kind), loss,
                    static_cast<double>(extra) / 1e6);
      break;
    case FaultKind::kLossRestore:
    case FaultKind::kDuplicateRestore:
    case FaultKind::kReorderRestore:
      std::snprintf(buf, sizeof(buf), "t=%.3fs %s", at_s,
                    FaultKindName(kind));
      break;
  }
  return buf;
}

void FaultPlan::Normalize() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at < y.at;
                   });
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultEvent& e : events) {
    out += e.ToString();
    out += '\n';
  }
  return out;
}

RandomPlanGenerator::RandomPlanGenerator(PlanEnvelope envelope, uint64_t seed)
    : envelope_(envelope), rng_(seed) {
  assert(envelope_.num_datacenters >= 1);
  assert(envelope_.min_episodes <= envelope_.max_episodes);
  assert(envelope_.min_duration <= envelope_.max_duration);
}

bool RandomPlanGenerator::Admissible(const std::vector<Episode>& taken,
                                     const Episode& e) const {
  const TimeMicros gap = envelope_.min_heal_gap;
  int concurrent_outages = e.is_dc_outage ? 1 : 0;
  for (const Episode& t : taken) {
    // Heal-gap windows: the resource must stay quiet `gap` past recovery.
    const bool busy_overlap =
        e.start <= t.end + gap && t.start <= e.end + gap;
    if (busy_overlap) {
      for (const std::string& r : e.resources) {
        if (std::find(t.resources.begin(), t.resources.end(), r) !=
            t.resources.end()) {
          return false;
        }
      }
    }
    // Concurrency cap: pairwise fault-window overlap of datacenter outages
    // (conservative for caps > 1, exact for the default cap of 1).
    if (e.is_dc_outage && t.is_dc_outage && e.start <= t.end &&
        t.start <= e.end) {
      if (++concurrent_outages > envelope_.max_concurrent_dc_outages) {
        return false;
      }
    }
  }
  return true;
}

FaultPlan RandomPlanGenerator::Generate() {
  enum class Shape { kDcOutage, kLinkCut, kOneWayCut, kBisection, kLossBurst,
                     kRestart, kDuplicateBurst, kReorderBurst };
  const int d = envelope_.num_datacenters;
  std::vector<Shape> shapes;
  if (envelope_.allow_dc_outage) shapes.push_back(Shape::kDcOutage);
  if (d >= 2) {
    if (envelope_.allow_link_cut) shapes.push_back(Shape::kLinkCut);
    if (envelope_.allow_oneway_cut) shapes.push_back(Shape::kOneWayCut);
    if (envelope_.allow_bisection) shapes.push_back(Shape::kBisection);
  }
  if (envelope_.allow_loss_burst) shapes.push_back(Shape::kLossBurst);
  if (envelope_.allow_service_restart) shapes.push_back(Shape::kRestart);
  // New shapes append after the originals so the shapes-vector indices of
  // the pre-existing ones — and thus every historical (seed, envelope)
  // plan with these flags off — are unchanged.
  if (envelope_.allow_duplicate_burst) {
    shapes.push_back(Shape::kDuplicateBurst);
  }
  if (envelope_.allow_reorder_burst) shapes.push_back(Shape::kReorderBurst);

  FaultPlan plan;
  if (shapes.empty()) return plan;

  auto link_token = [](DcId a, DcId b) {
    if (a > b) std::swap(a, b);
    return "link" + std::to_string(a) + "-" + std::to_string(b);
  };

  std::vector<Episode> taken;
  const int episodes = static_cast<int>(
      rng_.UniformRange(envelope_.min_episodes, envelope_.max_episodes));
  for (int i = 0; i < episodes; ++i) {
    // A rejected draw (heal gap / concurrency) is retried with fresh
    // randomness a few times, then the episode is skipped: plans may carry
    // fewer episodes than drawn, never an inadmissible one.
    for (int attempt = 0; attempt < 16; ++attempt) {
      const Shape shape = shapes[rng_.Uniform(shapes.size())];
      const TimeMicros start =
          envelope_.first_fault +
          static_cast<TimeMicros>(rng_.Uniform(
              static_cast<uint64_t>(envelope_.horizon) + 1));
      const TimeMicros duration = static_cast<TimeMicros>(rng_.UniformRange(
          envelope_.min_duration, envelope_.max_duration));

      Episode e;
      e.start = start;
      e.end = start + duration;
      std::vector<FaultEvent> events;
      switch (shape) {
        case Shape::kDcOutage: {
          const DcId dc = static_cast<DcId>(rng_.Uniform(d));
          e.resources = {"dc" + std::to_string(dc)};
          e.is_dc_outage = true;
          events.push_back({start, FaultKind::kDatacenterDown, dc, kNoDc, 0});
          events.push_back(
              {start + duration, FaultKind::kDatacenterUp, dc, kNoDc, 0});
          break;
        }
        case Shape::kLinkCut:
        case Shape::kOneWayCut: {
          const DcId a = static_cast<DcId>(rng_.Uniform(d));
          DcId b = static_cast<DcId>(rng_.Uniform(d - 1));
          if (b >= a) ++b;
          e.resources = {link_token(a, b)};
          const bool oneway = shape == Shape::kOneWayCut;
          events.push_back({start,
                            oneway ? FaultKind::kLinkOneWayDown
                                   : FaultKind::kLinkDown,
                            a, b, 0});
          events.push_back({start + duration,
                            oneway ? FaultKind::kLinkOneWayUp
                                   : FaultKind::kLinkUp,
                            a, b, 0});
          break;
        }
        case Shape::kBisection: {
          // Non-trivial bipartition of the datacenters: cut every crossing
          // link, heal them all together.
          const uint64_t mask = 1 + rng_.Uniform((uint64_t{1} << d) - 2);
          for (DcId a = 0; a < d; ++a) {
            for (DcId b = a + 1; b < d; ++b) {
              const bool a_side = (mask >> a) & 1, b_side = (mask >> b) & 1;
              if (a_side == b_side) continue;
              e.resources.push_back(link_token(a, b));
              events.push_back({start, FaultKind::kLinkDown, a, b, 0});
              events.push_back(
                  {start + duration, FaultKind::kLinkUp, a, b, 0});
            }
          }
          break;
        }
        case Shape::kLossBurst: {
          const double p =
              envelope_.min_loss_burst +
              rng_.NextDouble() *
                  (envelope_.max_loss_burst - envelope_.min_loss_burst);
          e.resources = {"loss"};
          events.push_back(
              {start, FaultKind::kLossBurst, kNoDc, kNoDc, p});
          events.push_back(
              {start + duration, FaultKind::kLossRestore, kNoDc, kNoDc, 0});
          break;
        }
        case Shape::kRestart: {
          const DcId dc = static_cast<DcId>(rng_.Uniform(d));
          e.resources = {"svc" + std::to_string(dc)};
          e.end = e.start;  // instantaneous
          events.push_back(
              {start, FaultKind::kServiceRestart, dc, kNoDc, 0});
          break;
        }
        case Shape::kDuplicateBurst: {
          const double p =
              envelope_.min_duplicate_burst +
              rng_.NextDouble() * (envelope_.max_duplicate_burst -
                                   envelope_.min_duplicate_burst);
          e.resources = {"dup"};
          events.push_back(
              {start, FaultKind::kDuplicateBurst, kNoDc, kNoDc, p});
          events.push_back({start + duration, FaultKind::kDuplicateRestore,
                            kNoDc, kNoDc, 0});
          break;
        }
        case Shape::kReorderBurst: {
          const double p =
              envelope_.min_reorder_burst +
              rng_.NextDouble() *
                  (envelope_.max_reorder_burst - envelope_.min_reorder_burst);
          const TimeMicros extra = static_cast<TimeMicros>(rng_.UniformRange(
              1, std::max<TimeMicros>(envelope_.max_reorder_extra, 1)));
          e.resources = {"reorder"};
          events.push_back(
              {start, FaultKind::kReorderBurst, kNoDc, kNoDc, p, extra});
          events.push_back({start + duration, FaultKind::kReorderRestore,
                            kNoDc, kNoDc, 0});
          break;
        }
      }
      if (!Admissible(taken, e)) continue;
      taken.push_back(std::move(e));
      for (FaultEvent& event : events) plan.events.push_back(event);
      break;
    }
  }
  plan.Normalize();
  return plan;
}

}  // namespace paxoscp::fault
