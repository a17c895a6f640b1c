// Transactional YCSB-like workload generator (substitutes for the extended
// YCSB of paper ref [12]). Reproduces the evaluation workload of §6: each
// transaction performs `ops_per_txn` operations, each a read or a write of
// an attribute chosen at random from a single-row entity group; the level
// of data contention is set by the total number of attributes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "kvstore/store.h"

namespace paxoscp::workload {

struct WorkloadConfig {
  std::string group = "entity_group";
  std::string row = "row0";
  /// Total attributes in the entity group (paper Figure 6 sweeps this:
  /// 20 => each 10-op txn touches 50% of the items, 500 => 2%).
  int num_attributes = 100;
  int ops_per_txn = 10;
  /// Probability an operation is a read (paper: 50% reads, 50% writes).
  /// Each operation's attribute is drawn uniformly, as in the paper.
  double read_fraction = 0.5;
  /// Length of generated attribute values.
  int value_size = 16;

  /// Sharded keyspace (D8): number of entity groups, each its own row and
  /// Paxos-CP log, named Generator::GroupName(config, i). 1 keeps the
  /// paper's single-group workload (and its exact RNG stream) unchanged.
  int num_groups = 1;
  /// Probability a transaction spans groups (cross-group 2PC; effective
  /// only when num_groups > 1).
  double cross_fraction = 0.0;
  /// Participants per cross-group transaction (clamped to num_groups).
  int groups_per_cross_txn = 2;
};

/// One generated operation.
struct Op {
  bool is_read = true;
  std::string attribute;
  std::string value;  // writes only
  /// Index into the transaction's participating-group list (always 0 for
  /// single-group transactions).
  int group = 0;
};

/// One generated transaction in a (possibly sharded) keyspace.
struct TxnPlan {
  bool cross = false;
  /// Participating group indexes (one entry unless cross).
  std::vector<int> groups;
  std::vector<Op> ops;
};

class Generator {
 public:
  Generator(const WorkloadConfig& config, uint64_t seed);

  /// Operations of one transaction over `groups` participating groups:
  /// each op's group index is drawn only when there is more than one.
  std::vector<Op> NextTxnOps(size_t groups = 1);

  /// One transaction over the (possibly sharded) keyspace: draws whether it
  /// is cross-group and which groups it touches, then its NextTxnOps. With
  /// num_groups <= 1 it draws only the ops.
  TxnPlan NextTxnPlan();

  /// Initial attribute map for pre-loading the entity-group row.
  kvstore::AttributeMap InitialRow();

  /// Attribute name for index i ("a0", "a1", ...).
  static std::string AttributeName(int i);

  /// Name of entity group `i`: the configured group name when num_groups
  /// is 1, "<group>#<i>" in a sharded keyspace.
  static std::string GroupName(const WorkloadConfig& config, int i);

  std::string RandomValue();

 private:
  WorkloadConfig config_;
  Rng rng_;
};

}  // namespace paxoscp::workload
