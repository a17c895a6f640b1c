// End-to-end benchmark driver (README.md in this directory). Runs one
// workload, a fixed list of 500-transaction experiments ("reps") whose
// seeds derive from --seed, and prints one JSON object on stdout:
//
//   1. timed passes over the rep list until at least 3 passes (1 with
//      --smoke) and --seconds have elapsed: each rep's cluster is built and
//      its fault plan armed (timed as set-up), then workload::RunExperiment
//      runs alone between the clocks; every pass must reproduce the first
//      pass's deterministic counters;
//   2. with --trace, one traced pass that counts requests at the service
//      endpoints and heap allocations, must reproduce those counters too,
//      and then measures each layer on the finished cluster.
//
//   e2e_driver --workload paper [--seed 1] [--seconds 10] [--smoke]
//              [--trace] [--chrome-trace out.json]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "e2e.h"

using namespace paxoscp;
using namespace paxoscp::e2e;

namespace {

// ------------------------------------------------------------ workloads

/// Why each workload exists is recorded in README.md; the shapes follow
/// the paper's §6 setup unless noted.
struct WorkloadDef {
  const char* name;
  const char* cluster_code;
  int reps;
  void (*configure)(workload::RunnerConfig*, fault::FaultPlan*);
};

void PaperSetup(workload::RunnerConfig* config) {
  config->workload.num_attributes = 100;
  config->workload.ops_per_txn = 10;
  config->workload.read_fraction = 0.5;
  config->total_txns = 500;
  config->num_threads = 4;
  config->stagger = 250 * kMillisecond;
  config->target_rate_tps = 1.0;
  config->client.protocol = txn::Protocol::kPaxosCP;
}

const WorkloadDef kWorkloads[] = {
    {"paper", "VVV", 36,
     [](workload::RunnerConfig* config, fault::FaultPlan*) {
       PaperSetup(config);
     }},
    {"wide-read", "VVVOC", 16,
     [](workload::RunnerConfig* config, fault::FaultPlan*) {
       PaperSetup(config);
       config->num_threads = 8;
       config->workload.read_fraction = 0.9;
       config->workload.num_attributes = 2000;
     }},
    {"crossgroup", "VVV", 24,
     [](workload::RunnerConfig* config, fault::FaultPlan*) {
       PaperSetup(config);
       config->workload.num_groups = 3;
       config->workload.num_attributes = 60;
       config->workload.cross_fraction = 0.5;
       config->workload.groups_per_cross_txn = 2;
     }},
    // The paper's §1/§5 availability experiment, as in fig_availability: the
    // §6 setup with dc2, not the clients' home, down from 40 s to 80 s.
    // Cross-group transactions stay out: with 2PC and the recovery daemon
    // across this outage a rare rep decides two values for one log position
    // (README.md, "Workloads").
    {"outage", "VVV", 36,
     [](workload::RunnerConfig* config, fault::FaultPlan* faults) {
       PaperSetup(config);
       faults->events.push_back(
           {40 * kSecond, fault::FaultKind::kDatacenterDown, 2, kNoDc, 0});
       faults->events.push_back(
           {80 * kSecond, fault::FaultKind::kDatacenterUp, 2, kNoDc, 0});
     }},
};

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of stream `stream` of rep `rep`: a function of the benchmark seed,
/// the workload name and the rep index only, so rep i is the same
/// experiment in a smoke run and in a full run.
uint64_t RepSeed(uint64_t seed, const char* workload, int rep, int stream) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a of the name
  for (const char* c = workload; *c != '\0'; ++c) {
    h = (h ^ static_cast<unsigned char>(*c)) * 1099511628211ULL;
  }
  return Mix64(Mix64(seed ^ h) + static_cast<uint64_t>(2 * rep + stream));
}

std::vector<Rep> MakeReps(const WorkloadDef& def, uint64_t seed, int reps) {
  std::vector<Rep> out(reps);
  for (int i = 0; i < reps; ++i) {
    Rep& rep = out[i];
    rep.cluster = *core::ClusterConfig::FromCode(def.cluster_code);
    rep.cluster.seed = RepSeed(seed, def.name, i, 0);
    def.configure(&rep.runner, &rep.faults);
    rep.runner.seed = RepSeed(seed, def.name, i, 1);
    rep.faults.Normalize();
  }
  return out;
}

std::unique_ptr<core::Cluster> BuildCluster(const Rep& rep) {
  auto cluster = std::make_unique<core::Cluster>(rep.cluster);
  if (!rep.faults.events.empty()) cluster->ApplyFaultPlan(rep.faults);
  return cluster;
}

// -------------------------------------------------------- deterministic

/// Counters a rep must reproduce exactly in every pass, traced or not.
struct RepCounters {
  int attempted = 0;
  int committed = 0;
  int read_only = 0;
  int aborted = 0;
  int failed = 0;
  std::vector<int> commits_by_round;
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t calls = 0;
  uint64_t dropped = 0;
  TimeMicros virtual_duration = 0;

  bool operator==(const RepCounters&) const = default;
};

RepCounters CountersOf(core::Cluster* cluster,
                       const workload::RunStats& stats) {
  RepCounters c;
  c.attempted = stats.attempted;
  c.committed = stats.committed;
  c.read_only = stats.read_only;
  c.aborted = stats.aborted;
  c.failed = stats.failed;
  c.commits_by_round = stats.commits_by_round;
  c.events = cluster->simulator()->EventsExecuted();
  c.messages = stats.messages_sent;
  c.calls = cluster->network()->calls_started();
  c.dropped = cluster->network()->messages_dropped();
  c.virtual_duration = stats.virtual_duration;
  return c;
}

// ---------------------------------------------------------------- stats

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

using Metrics = std::vector<std::pair<std::string, double>>;

/// Deterministic totals over one pass's RunStats.
struct PassSummary {
  double attempted = 0;
  double commits = 0;  // read/write commits plus read-only commits
  double committed = 0;
  double failed = 0;
  double unknown = 0;
  double messages = 0;
  double promotions = 0;
  double round0 = 0;
  double fast_path = 0;
  double max_promotions = 0;
  double combined_txns = 0;
  double cross_attempted = 0;
  double cross_committed = 0;
  double virtual_s = 0;
  Histogram latency;
  Histogram aborted_latency;
  Histogram cross_latency;
  Histogram cross_decision;
  Histogram single_in_multi;
};

PassSummary Summarize(const std::vector<workload::RunStats>& pass) {
  PassSummary s;
  for (const workload::RunStats& r : pass) {
    s.attempted += r.attempted;
    s.commits += r.committed + r.read_only;
    s.committed += r.committed;
    s.failed += r.failed;
    for (const core::ClientOutcome& o : r.outcomes) s.unknown += o.unknown;
    s.messages += static_cast<double>(r.messages_sent);
    for (size_t round = 0; round < r.commits_by_round.size(); ++round) {
      s.promotions += static_cast<double>(round) * r.commits_by_round[round];
    }
    if (!r.commits_by_round.empty()) s.round0 += r.commits_by_round[0];
    s.fast_path += r.fast_path_commits;
    s.max_promotions = std::max<double>(s.max_promotions, r.max_promotions);
    s.combined_txns += r.combined_txns;
    s.cross_attempted += r.cross_attempted;
    s.cross_committed += r.cross_committed;
    s.virtual_s += static_cast<double>(r.virtual_duration) / kSecond;
    s.latency.Merge(r.latency_committed);
    s.aborted_latency.Merge(r.latency_aborted);
    s.cross_latency.Merge(r.latency_cross);
    s.cross_decision.Merge(r.latency_cross_decision);
    s.single_in_multi.Merge(r.latency_single_multi);
  }
  return s;
}

double Ms(const Histogram& h, double p) { return h.Percentile(p) / 1000.0; }

// ----------------------------------------------------------------- JSON

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Object(const Metrics& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ",") + JsonString(metrics[i].first) + ":" +
           Num(metrics[i].second);
  }
  return out + "}";
}

std::string CountersJson(const RepCounters& c) {
  std::string rounds = "[";
  for (size_t i = 0; i < c.commits_by_round.size(); ++i) {
    rounds += (i == 0 ? "" : ",") + std::to_string(c.commits_by_round[i]);
  }
  rounds += "]";
  return "{\"attempted\":" + std::to_string(c.attempted) +
         ",\"committed\":" + std::to_string(c.committed) +
         ",\"read_only\":" + std::to_string(c.read_only) +
         ",\"aborted\":" + std::to_string(c.aborted) +
         ",\"failed\":" + std::to_string(c.failed) +
         ",\"commits_by_round\":" + rounds +
         ",\"events\":" + std::to_string(c.events) +
         ",\"messages\":" + std::to_string(c.messages) +
         ",\"calls\":" + std::to_string(c.calls) +
         ",\"dropped\":" + std::to_string(c.dropped) +
         ",\"virtual_us\":" + std::to_string(c.virtual_duration) + "}";
}

// ---------------------------------------------------------------- main

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  bool smoke = false;
  bool trace = false;
  std::string chrome_trace;
};

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--chrome-trace" && has_value) {
      options->chrome_trace = argv[++i];
    } else if (arg == "--smoke") {
      options->smoke = true;
    } else if (arg == "--trace") {
      options->trace = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", argv[i]);
      return false;
    }
  }
  return !options->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: e2e_driver --workload NAME [--seed N] [--seconds S] "
                 "[--smoke] [--trace] [--chrome-trace PATH]\n");
    return 2;
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (options.workload == w.name) def = &w;
  }
  if (def == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }

  const int num_reps = options.smoke ? 1 : def->reps;
  const int min_passes = options.smoke ? 1 : 3;
  const std::vector<Rep> reps = MakeReps(*def, options.seed, num_reps);
  std::vector<std::string> errors;
  Trace trace;
  double attempted = 0;
  double failed = 0;

  // 1. Timed passes, tracing off. Each rep's cluster is constructed and its
  //    fault plan armed (the set-up), then only RunExperiment runs between
  //    the clocks. Clusters live one at a time: a cluster's simulator must
  //    be the innermost live one while it runs.
  std::vector<workload::RunStats> first_pass;
  std::vector<RepCounters> expected;
  std::vector<std::vector<double>> rep_setups(num_reps);
  std::vector<std::vector<double>> rep_walls(num_reps);
  const Clock::time_point passes_start = Clock::now();
  int passes = 0;
  while (passes < min_passes ||
         Seconds(Clock::now() - passes_start) < options.seconds) {
    for (int i = 0; i < num_reps; ++i) {
      const Clock::time_point s0 = Clock::now();
      std::unique_ptr<core::Cluster> cluster = BuildCluster(reps[i]);
      const Clock::time_point t0 = Clock::now();
      workload::RunStats stats =
          workload::RunExperiment(cluster.get(), reps[i].runner);
      const Clock::time_point t1 = Clock::now();
      const std::string args = "{\"pass\":" + std::to_string(passes) +
                               ",\"rep\":" + std::to_string(i) + "}";
      trace.Span("setup", s0, t0, args);
      trace.Span("RunExperiment", t0, t1, args);
      rep_setups[i].push_back(Seconds(t0 - s0));
      rep_walls[i].push_back(Seconds(t1 - t0));
      attempted += stats.attempted;
      failed += stats.failed;

      const RepCounters counters = CountersOf(cluster.get(), stats);
      if (passes == 0) {
        if (!stats.check.ok) {
          errors.push_back("rep " + std::to_string(i) +
                           " checker: " + stats.check.ToString());
        }
        if (!stats.all_threads_finished ||
            stats.attempted != reps[i].runner.total_txns) {
          errors.push_back("rep " + std::to_string(i) +
                           ": not every client finished");
        }
        expected.push_back(counters);
        first_pass.push_back(std::move(stats));
      } else if (!(counters == expected[i])) {
        errors.push_back("rep " + std::to_string(i) + " pass " +
                         std::to_string(passes) +
                         ": deterministic counters differ from pass 0");
      }
    }
    ++passes;
  }
  const double peak_rss_mb = PeakRssMb();

  // A rep's wall time is its fastest pass: on a shared host the CPU's speed
  // drifts in phases of seconds and interference only ever adds time, so
  // the minimum is the steadiest estimate. Set-up is too short to time alone; its
  // per-rep median is taken over the same passes, spread across the run.
  const PassSummary pass = Summarize(first_pass);
  double setup_s = 0;
  double fastest_wall = 0;
  double median_wall = 0;
  for (int i = 0; i < num_reps; ++i) {
    setup_s += Median(rep_setups[i]);
    fastest_wall +=
        *std::min_element(rep_walls[i].begin(), rep_walls[i].end());
    median_wall += Median(rep_walls[i]);
  }

  const Metrics end_to_end = {
      {"setup_s", setup_s},
      {"wall_us_per_commit", 1e6 * Ratio(fastest_wall, pass.commits)},
      {"peak_rss_mb", peak_rss_mb},
      {"commit_rate", Ratio(pass.commits, pass.attempted)},
      {"commit_p50_ms", Ms(pass.latency, 50)},
      {"commit_p99_ms", Ms(pass.latency, 99)},
      {"msgs_per_commit", Ratio(pass.messages, pass.commits)},
  };

  // 2. Traced pass: counting endpoints and the allocation hook are on only
  //    inside RunExperiment; the layer measurements follow each run.
  Metrics per_layer;
  if (options.trace) {
    LayerTotals layers;
    double traced_wall = 0;
    double events = 0, calls = 0, dropped = 0;
    for (int i = 0; i < num_reps; ++i) {
      std::unique_ptr<core::Cluster> cluster = BuildCluster(reps[i]);
      InstallCountingEndpoints(cluster.get(), &layers);
      const Clock::time_point t0 = Clock::now();
      SetAllocCounting(true);
      workload::RunStats stats =
          workload::RunExperiment(cluster.get(), reps[i].runner);
      SetAllocCounting(false);
      const Clock::time_point t1 = Clock::now();
      trace.Span("RunExperiment (traced)", t0, t1,
                 "{\"rep\":" + std::to_string(i) + "}");
      traced_wall += Seconds(t1 - t0);
      attempted += stats.attempted;
      failed += stats.failed;

      const RepCounters counters = CountersOf(cluster.get(), stats);
      if (!(counters == expected[i])) {
        errors.push_back("rep " + std::to_string(i) +
                         ": the traced pass changed deterministic counters");
      }
      events += static_cast<double>(counters.events);
      calls += static_cast<double>(counters.calls);
      dropped += static_cast<double>(counters.dropped);
      AnalyzeFinishedRep(cluster.get(), reps[i], stats, &layers, &trace,
                         &errors);
      trace.Counter("rep", Clock::now(),
                    {{"commits", stats.committed + stats.read_only},
                     {"sim.events", static_cast<double>(counters.events)},
                     {"net.messages", static_cast<double>(counters.messages)}});
    }
    const AllocCounts allocs = CountedAllocs();
    const double commits = pass.commits;
    const auto per_commit = [commits](double v) { return Ratio(v, commits); };
    const double entries = static_cast<double>(layers.entries);
    per_layer = {
        {"sim.events_per_commit", per_commit(events)},
        {"common.allocs_per_commit",
         per_commit(static_cast<double>(allocs.calls))},
        {"common.alloc_bytes_per_commit",
         per_commit(static_cast<double>(allocs.bytes))},
    };
    for (const char* type : {"begin", "read", "read_row", "prepare", "accept",
                             "apply", "claim_leader", "query_cross"}) {
      per_layer.emplace_back(
          std::string("net.req.") + type + "_per_commit",
          per_commit(static_cast<double>(layers.Requests(type))));
    }
    const Metrics rest = {
        {"net.wan_requests_per_commit",
         per_commit(static_cast<double>(layers.wan_requests))},
        {"net.local_requests_per_commit",
         per_commit(static_cast<double>(layers.local_requests))},
        {"net.calls_per_commit", per_commit(calls)},
        {"net.dropped_per_commit", per_commit(dropped)},
        {"paxos.promotions_per_commit", Ratio(pass.promotions, pass.committed)},
        {"paxos.round0_share", Ratio(pass.round0, pass.committed)},
        {"paxos.fast_path_share", Ratio(pass.fast_path, pass.committed)},
        {"paxos.max_promotions", pass.max_promotions},
        {"paxos.combined_txn_share", Ratio(pass.combined_txns, pass.committed)},
        {"wal.entries_per_commit", per_commit(entries)},
        {"wal.txns_per_entry",
         Ratio(static_cast<double>(layers.records), entries)},
        {"wal.bytes_per_entry",
         Ratio(static_cast<double>(layers.encoded_bytes), entries)},
        {"wal.encode_ns_per_entry", Ratio(layers.encode_ns, entries)},
        {"wal.decode_ns_per_entry", Ratio(layers.decode_ns, entries)},
        {"wal.fingerprint_ns_per_entry", Ratio(layers.fingerprint_ns, entries)},
        {"wal.set_entry_us_per_entry", Ratio(layers.set_entry_us, entries)},
        {"wal.apply_us_per_entry", Ratio(layers.apply_us, entries)},
        {"wal.read_item_ns",
         Ratio(layers.read_item_ns, static_cast<double>(layers.reads_replayed))},
        {"kvstore.versions_end",
         Ratio(static_cast<double>(layers.versions), num_reps)},
        {"kvstore.keys_end", Ratio(static_cast<double>(layers.keys), num_reps)},
        {"txn.abort_p50_ms", Ms(pass.aborted_latency, 50)},
        {"txn.unavailable_frac",
         Ratio(pass.failed - pass.unknown, pass.attempted)},
        {"txn.unknown_frac", Ratio(pass.unknown, pass.attempted)},
        {"txn.cross_commit_rate",
         Ratio(pass.cross_committed, pass.cross_attempted)},
        {"txn.cross_commit_p50_ms", Ms(pass.cross_latency, 50)},
        {"txn.cross_decision_p50_ms", Ms(pass.cross_decision, 50)},
        {"txn.single_in_multi_p50_ms", Ms(pass.single_in_multi, 50)},
        {"txn.service.learns_per_commit",
         per_commit(static_cast<double>(layers.learns))},
        {"txn.service.reads_served_per_commit",
         per_commit(static_cast<double>(layers.reads_served))},
        {"core.check_us_per_commit", per_commit(layers.check_us)},
        {"core.check.replication_us_per_commit",
         per_commit(layers.replication_us)},
        {"core.check.l3_us_per_commit", per_commit(layers.l3_us)},
        {"core.check.mvsg_us_per_commit", per_commit(layers.mvsg_us)},
        {"workload.attempted", pass.attempted},
        {"workload.commit_samples", static_cast<double>(pass.latency.count())},
        {"workload.virtual_s_per_rep", Ratio(pass.virtual_s, num_reps)},
        {"workload.trace_overhead_frac",
         Ratio(traced_wall, median_wall) - 1},
    };
    per_layer.insert(per_layer.end(), rest.begin(), rest.end());
  }

  if (!options.chrome_trace.empty() && !trace.WriteTo(options.chrome_trace)) {
    errors.push_back("cannot write " + options.chrome_trace);
  }

  std::string errors_json = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    errors_json += (i == 0 ? "" : ",") + JsonString(errors[i]);
  }
  errors_json += "]";
  std::string counters_json = "[";
  for (size_t i = 0; i < expected.size(); ++i) {
    counters_json += (i == 0 ? "" : ",") + CountersJson(expected[i]);
  }
  counters_json += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"reps\":%d,\"passes\":%d,"
      "\"correct\":%s,\"errors\":%s,\"attempted\":%.0f,\"failed\":%.0f,"
      "\"commit_samples\":%llu,\"end_to_end\":%s,\"per_layer\":%s,"
      "\"rep_counters\":%s}\n",
      JsonString(def->name).c_str(),
      static_cast<unsigned long long>(options.seed), num_reps, passes,
      errors.empty() ? "true" : "false", errors_json.c_str(), attempted,
      failed, static_cast<unsigned long long>(pass.latency.count()),
      Object(end_to_end).c_str(), Object(per_layer).c_str(),
      counters_json.c_str());
  return errors.empty() ? 0 : 1;
}
