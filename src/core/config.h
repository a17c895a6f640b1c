// Cluster configuration: datacenter placement, latency model, failure
// knobs. Latency presets reproduce the paper's testbed (§6): three nodes in
// Virginia (distinct availability zones), one in Oregon, one in northern
// California, with the published round-trip times.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace paxoscp::core {

/// The regions of the paper's evaluation. A single-letter code names a
/// node's region: V = Virginia, O = Oregon, C = California.
enum class Region { kVirginia, kOregon, kCalifornia };

char RegionCode(Region region);
Result<Region> RegionFromCode(char code);

/// Round-trip time between two regions (paper §6): V-V ~1.5 ms (distinct
/// availability zones), V-O and V-C ~90 ms, O-C ~20 ms. Same-node
/// (intra-datacenter) hops use kIntraDatacenterRtt.
TimeMicros RegionRtt(Region a, Region b);

inline constexpr TimeMicros kIntraDatacenterRtt = 300;  // 0.3 ms

struct DatacenterSpec {
  std::string name;
  Region region = Region::kVirginia;
};

struct ClusterConfig {
  std::vector<DatacenterSpec> datacenters;

  /// Per-message loss probability (the paper's UDP transport loses
  /// messages; 0 models a quiet network).
  double loss_probability = 0.0;
  /// One-way latency jitter fraction.
  double latency_jitter = 0.10;
  /// Master seed; everything (jitter, loss, backoff, workload) derives
  /// from it, so runs are reproducible.
  uint64_t seed = 42;

  int num_datacenters() const {
    return static_cast<int>(datacenters.size());
  }

  /// Builds a cluster from a region string such as "VVV", "VOC", "COVVV"
  /// (one letter per datacenter, paper Figure 5 naming).
  static Result<ClusterConfig> FromCode(const std::string& code);

  /// The RTT matrix implied by the datacenter regions.
  std::vector<std::vector<TimeMicros>> RttMatrix() const;
};

}  // namespace paxoscp::core
