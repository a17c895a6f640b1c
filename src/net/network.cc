#include "net/network.h"

#include <algorithm>

namespace paxoscp::net {

NetworkBase::NetworkBase(sim::Simulator* sim,
                         std::vector<std::vector<TimeMicros>> rtt_matrix,
                         NetworkOptions options)
    : sim_(sim),
      rtt_(std::move(rtt_matrix)),
      options_(options),
      rng_(options.seed),
      fault_rng_(options.seed ^ 0xd1b54a32d192ed03ULL) {
  const size_t n = rtt_.size();
  for (const auto& row : rtt_) {
    assert(row.size() == n && "rtt matrix must be square");
    (void)row;
  }
  dc_down_.assign(n, false);
  link_down_.assign(n, std::vector<bool>(n, false));
  dc_epoch_.assign(n, 0);
  link_epoch_.assign(n, std::vector<uint64_t>(n, 0));
}

Rng* NetworkBase::Draw(Copy copy, DelayStream* stream) {
  // A consequential draw mutates its stream: two same-time events both
  // drawing from one stream observe swapped values under a tie reorder.
  // Draws from distinct streams never conflict.
  if (copy == Copy::kDuplicate) {
    if (sim::race::Active()) {
      sim::race::Record(sim::race::AccessKind::kWrite, {"net/fault-rng"});
    }
    return &fault_rng_;
  }
  if (stream == nullptr) {
    if (sim::race::Active()) {
      sim::race::Record(sim::race::AccessKind::kWrite, {"net/rng"});
    }
    return &rng_;
  }
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"net/rng", stream->seed});
  }
  return &stream->rng;
}

TimeMicros NetworkBase::SampleDelay(Copy copy, DelayStream* stream,
                                    DcId from, DcId to) {
  const TimeMicros one_way = rtt_[from][to] / 2;
  if (options_.latency_jitter <= 0 || one_way == 0) {
    return std::max<TimeMicros>(one_way, 1);
  }
  const double j =
      (Draw(copy, stream)->NextDouble() * 2 - 1) * options_.latency_jitter;
  const auto delayed = static_cast<TimeMicros>(
      static_cast<double>(one_way) * (1.0 + j));
  return std::max<TimeMicros>(delayed, 1);
}

bool NetworkBase::ShouldDrop(Copy copy, DelayStream* stream, DcId from,
                             DcId to) {
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "dc", from});
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "dc", to});
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "link", from, to});
  }
  if (dc_down_[from] || dc_down_[to]) return true;
  if (link_down_[from][to]) return true;
  if (from != to && options_.loss_probability > 0) {
    // The Bernoulli below consumes a draw (Bernoulli(0) never does, so the
    // restructuring preserves the stream position of loss-free runs).
    if (Draw(copy, stream)->Bernoulli(options_.loss_probability)) return true;
  }
  return false;
}

TimeMicros NetworkBase::MaybeReorderExtra(DcId from, DcId to) {
  if (options_.reorder_probability <= 0 || from == to) return 0;
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"net/fault-rng"});
  }
  if (!fault_rng_.Bernoulli(options_.reorder_probability)) return 0;
  ++messages_reordered_;
  return ExtraDelay();
}

TimeMicros NetworkBase::ExtraDelay() {
  const TimeMicros max_extra =
      std::max<TimeMicros>(options_.reorder_extra_max, 1);
  return 1 + static_cast<TimeMicros>(
                 fault_rng_.Uniform(static_cast<uint64_t>(max_extra)));
}

bool NetworkBase::Depart(Copy copy, DelayStream* stream, DcId from,
                         DcId to) {
  ++messages_sent_;
  if (!ShouldDrop(copy, stream, from, to)) return true;
  ++messages_dropped_;
  return false;
}

TimeMicros NetworkBase::LegDelay(Copy copy, DelayStream* stream, DcId from,
                                 DcId to) {
  const TimeMicros delay = SampleDelay(copy, stream, from, to);
  if (copy == Copy::kDuplicate) return delay;
  return delay + MaybeReorderExtra(from, to);
}

bool NetworkBase::DrawDuplicate(DcId from, DcId to) {
  if (options_.duplicate_probability <= 0 || from == to) return false;
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"net/fault-rng"});
  }
  if (!fault_rng_.Bernoulli(options_.duplicate_probability)) return false;
  ++messages_duplicated_;
  return true;
}

bool NetworkBase::Arrives(DcId from, DcId to, uint64_t epoch) {
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "dc", to});
    sim::race::Record(sim::race::AccessKind::kRead, {"net", "link", from, to});
  }
  if (!dc_down_[to] && ChannelEpoch(from, to) == epoch) return true;
  ++messages_dropped_;
  return false;
}

void NetworkBase::SetDatacenterDown(DcId dc, bool down) {
  assert(dc >= 0 && dc < num_datacenters());
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"net", "dc", dc});
  }
  if (down && !dc_down_[dc]) ++dc_epoch_[dc];
  dc_down_[dc] = down;
}

void NetworkBase::SetLinkDown(DcId a, DcId b, bool down) {
  SetLinkOneWayDown(a, b, down);
  SetLinkOneWayDown(b, a, down);
}

void NetworkBase::SetLinkOneWayDown(DcId from, DcId to, bool down) {
  assert(from >= 0 && from < num_datacenters());
  assert(to >= 0 && to < num_datacenters());
  if (sim::race::Active()) {
    sim::race::Record(sim::race::AccessKind::kWrite, {"net", "link", from, to});
  }
  if (down && !link_down_[from][to]) ++link_epoch_[from][to];
  link_down_[from][to] = down;
}

void NetworkBase::ResetStats() {
  messages_sent_ = 0;
  messages_dropped_ = 0;
  calls_started_ = 0;
  messages_duplicated_ = 0;
  messages_reordered_ = 0;
}

}  // namespace paxoscp::net
