#include "core/config.h"

namespace paxoscp::core {

char RegionCode(Region region) {
  switch (region) {
    case Region::kVirginia:
      return 'V';
    case Region::kOregon:
      return 'O';
    case Region::kCalifornia:
      return 'C';
  }
  return '?';
}

Result<Region> RegionFromCode(char code) {
  switch (code) {
    case 'V':
    case 'v':
      return Region::kVirginia;
    case 'O':
    case 'o':
      return Region::kOregon;
    case 'C':
    case 'c':
      return Region::kCalifornia;
  }
  return Status::InvalidArgument(std::string("unknown region code '") + code +
                                 "'");
}

TimeMicros RegionRtt(Region a, Region b) {
  if (a == b) {
    // Same region: the paper's Virginia nodes sit in distinct availability
    // zones with ~1.5 ms round trips; we use the same figure for
    // same-region pairs in general.
    return 1500;
  }
  const bool has_virginia = a == Region::kVirginia || b == Region::kVirginia;
  if (has_virginia) return 90 * kMillisecond;  // V-O and V-C ~90 ms
  return 20 * kMillisecond;                    // O-C ~20 ms
}

Result<ClusterConfig> ClusterConfig::FromCode(const std::string& code) {
  if (code.empty()) {
    return Status::InvalidArgument("cluster code must not be empty");
  }
  ClusterConfig config;
  for (size_t i = 0; i < code.size(); ++i) {
    Result<Region> region = RegionFromCode(code[i]);
    if (!region.ok()) return region.status();
    // Built with += (not a chained rvalue operator+): GCC 12 -O2 emits a
    // spurious -Wrestrict for the temporary-string concatenation.
    std::string name(1, code[i]);
    name += std::to_string(i);
    config.datacenters.push_back(DatacenterSpec{std::move(name), *region});
  }
  return config;
}

std::vector<std::vector<TimeMicros>> ClusterConfig::RttMatrix() const {
  const int d = num_datacenters();
  std::vector<std::vector<TimeMicros>> rtt(
      d, std::vector<TimeMicros>(d, kIntraDatacenterRtt));
  for (int a = 0; a < d; ++a) {
    for (int b = 0; b < d; ++b) {
      if (a == b) continue;
      rtt[a][b] = RegionRtt(datacenters[a].region, datacenters[b].region);
    }
  }
  return rtt;
}

}  // namespace paxoscp::core
