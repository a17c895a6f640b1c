#include "workload/generator.h"

#include <algorithm>
#include <map>
#include <set>

namespace paxoscp::workload {

Generator::Generator(const WorkloadConfig& config, uint64_t seed)
    : config_(config), rng_(seed) {}

std::string Generator::AttributeName(int i) {
  // += instead of `"a" + std::to_string(i)`: GCC 12 -O2 flags the
  // prepend-into-temporary form with a spurious -Wrestrict.
  std::string name = "a";
  name += std::to_string(i);
  return name;
}

std::string Generator::GroupName(const WorkloadConfig& config, int i) {
  if (config.num_groups <= 1) return config.group;
  std::string name = config.group;
  name += '#';
  name += std::to_string(i);
  return name;
}

std::string Generator::RandomValue() {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string out;
  out.reserve(config_.value_size);
  for (int i = 0; i < config_.value_size; ++i) {
    out.push_back(kAlphabet[rng_.Uniform(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

std::vector<Op> Generator::NextTxnOps(size_t groups) {
  std::vector<Op> ops;
  ops.reserve(config_.ops_per_txn);
  for (int i = 0; i < config_.ops_per_txn; ++i) {
    Op op;
    op.is_read = rng_.Bernoulli(config_.read_fraction);
    op.attribute =
        AttributeName(static_cast<int>(rng_.Uniform(config_.num_attributes)));
    if (!op.is_read) op.value = RandomValue();
    if (groups > 1) op.group = static_cast<int>(rng_.Uniform(groups));
    ops.push_back(std::move(op));
  }
  return ops;
}

TxnPlan Generator::NextTxnPlan() {
  TxnPlan plan;
  plan.cross = config_.num_groups > 1 && rng_.Bernoulli(config_.cross_fraction);
  if (plan.cross) {
    // Draw k distinct groups (sorted for deterministic begin order).
    const int k = std::min(std::max(config_.groups_per_cross_txn, 2),
                           config_.num_groups);
    std::set<int> chosen;
    while (static_cast<int>(chosen.size()) < k) {
      chosen.insert(static_cast<int>(rng_.Uniform(config_.num_groups)));
    }
    plan.groups.assign(chosen.begin(), chosen.end());
  } else if (config_.num_groups > 1) {
    plan.groups = {static_cast<int>(rng_.Uniform(config_.num_groups))};
  } else {
    plan.groups = {0};
  }
  plan.ops = NextTxnOps(plan.groups.size());
  return plan;
}

kvstore::AttributeMap Generator::InitialRow() {
  kvstore::AttributeMap row;
  for (int i = 0; i < config_.num_attributes; ++i) {
    row[AttributeName(i)] = RandomValue();
  }
  return row;
}

}  // namespace paxoscp::workload
