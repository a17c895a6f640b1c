// Shared declarations of the end-to-end benchmark driver (README.md in this
// directory): the experiment description, the Chrome trace recorder and
// the per-layer measurements taken during the traced pass. Everything here
// calls the library's public functions from outside; nothing in src/ knows
// about the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/config.h"
#include "fault/fault_plan.h"
#include "workload/runner.h"

namespace paxoscp::e2e {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// `s` as a quoted JSON string (control characters become spaces).
std::string JsonString(std::string_view s);

/// One 500-transaction experiment ("rep") of a workload.
struct Rep {
  core::ClusterConfig cluster;
  workload::RunnerConfig runner;
  fault::FaultPlan faults;  // empty: fault-free
};

/// Wall-clock spans and counter samples, written as Chrome trace-event JSON
/// (Perfetto and chrome://tracing open it). Kept in memory until the end.
class Trace {
 public:
  void Span(std::string_view name, Clock::time_point start,
            Clock::time_point end, std::string_view args_json = "");
  void Counter(std::string_view name, Clock::time_point at,
               const std::vector<std::pair<std::string, double>>& values);
  bool WriteTo(const std::string& path) const;

 private:
  /// Microseconds from the recorder's creation to `t`.
  double Since(Clock::time_point t) const;

  Clock::time_point origin_ = Clock::now();
  std::vector<std::string> events_;
};

/// One request type seen by the counting endpoints, by txn::RequestName.
struct RequestCount {
  std::string_view name;
  uint64_t count = 0;
};

/// Per-layer totals accumulated over the reps of the traced pass.
struct LayerTotals {
  LayerTotals() { requests.reserve(16); }  // no growth while counting

  // net: requests delivered to a service endpoint.
  std::vector<RequestCount> requests;
  uint64_t wan_requests = 0;    // from another datacenter
  uint64_t local_requests = 0;  // from a client in the same datacenter

  // core: checker re-runs on the finished cluster, in microseconds.
  double check_us = 0;
  double replication_us = 0;
  double l3_us = 0;
  double mvsg_us = 0;

  // wal: the merged log of every group.
  uint64_t entries = 0;
  uint64_t records = 0;
  uint64_t encoded_bytes = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  double fingerprint_ns = 0;
  double set_entry_us = 0;
  double apply_us = 0;
  double read_item_ns = 0;
  uint64_t reads_replayed = 0;

  // kvstore: every datacenter's store at the end of the run.
  uint64_t keys = 0;
  uint64_t versions = 0;

  // txn services.
  uint64_t learns = 0;
  uint64_t reads_served = 0;

  void CountRequest(std::string_view name, bool wan);
  uint64_t Requests(std::string_view name) const;
};

/// Re-registers every datacenter's endpoint with a plain lambda that counts
/// each request by type and origin, then forwards to the service.
void InstallCountingEndpoints(core::Cluster* cluster, LayerTotals* totals);

/// Measures the layers of a finished rep from outside: re-runs the checker
/// and its sub-checks, round-trips the merged logs through the WAL codec,
/// replays them into a fresh store, and scans the stores. Every check that
/// fails appends to `errors`.
void AnalyzeFinishedRep(core::Cluster* cluster, const Rep& rep,
                        const workload::RunStats& stats, LayerTotals* totals,
                        Trace* trace, std::vector<std::string>* errors);

}  // namespace paxoscp::e2e
