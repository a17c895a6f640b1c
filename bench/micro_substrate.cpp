// Microbenchmarks of the substrates (google-benchmark): the multi-version
// store's three atomic operations plus the COW merge/read paths, the
// log-entry codec and streamed fingerprint, the conflict / combination
// machinery, the simulator's event throughput and cancel-heavy churn, and a
// full end-to-end commit (virtual-time protocol run, measured in wall time).
//
// Pass `--json <path>` to also write a perf-trajectory snapshot
// (name → ns/op, items/s); the schema is documented in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/cluster.h"
#include "experiment_common.h"
#include "kvstore/store.h"
#include "paxos/ballot.h"
#include "paxos/value_selection.h"
#include "sim/coro.h"
#include "txn/txn.h"
#include "wal/log_entry.h"
#include "workload/generator.h"

namespace paxoscp {
namespace {

using AttrMap = kvstore::AttributeMap;

// ---------------------------------------------------------------- kvstore

void BM_StoreWrite(benchmark::State& state) {
  kvstore::MultiVersionStore store;
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.Write("row" + std::to_string(i % 64), {{"a", "value"}}));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreWrite);

/// 16-attribute rows: the snapshot-read cost that matters is handing the
/// version's attribute map to the caller (deep copy before D5, shared
/// pointer after), so the row must have realistic width.
void BM_StoreReadSnapshot(benchmark::State& state) {
  kvstore::MultiVersionStore store;
  for (Timestamp ts = 1; ts <= state.range(0); ++ts) {
    AttrMap attrs;
    for (int a = 0; a < 16; ++a) {
      // += instead of `"a" + std::to_string(a)`: GCC 12 -O2 flags the
      // prepend-into-temporary form with a spurious -Wrestrict.
      std::string name = "a";
      name += std::to_string(a);
      std::string value = "value-";
      value += std::to_string(ts);
      attrs[name] = value;
    }
    (void)store.Write("row", std::move(attrs), ts);
  }
  Rng rng(1);
  for (auto _ : state) {
    const Timestamp ts = 1 + static_cast<Timestamp>(
                                 rng.Uniform(state.range(0)));
    benchmark::DoNotOptimize(store.Read("row", ts));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreReadSnapshot)->Arg(8)->Arg(128)->Arg(2048);

void BM_StoreReadAttrView(benchmark::State& state) {
  kvstore::MultiVersionStore store;
  AttrMap attrs;
  for (int a = 0; a < 16; ++a) attrs["a" + std::to_string(a)] = "sixteen-b-value";
  (void)store.Write("row", std::move(attrs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.ReadAttrView("row", "a7"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreReadAttrView);

void BM_StoreCheckAndWrite(benchmark::State& state) {
  kvstore::MultiVersionStore store;
  (void)store.Write("row", {{"counter", "0"}});
  int64_t value = 0;
  for (auto _ : state) {
    Status s = store.CheckAndWrite("row", "counter", std::to_string(value),
                                   {{"counter", std::to_string(value + 1)}});
    benchmark::DoNotOptimize(s);
    ++value;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreCheckAndWrite);

/// The log-applier hot path: overlay a handful of updates on a wide row.
void BM_StoreMergeWriteWide(benchmark::State& state) {
  kvstore::MultiVersionStore store;
  AttrMap base;
  for (int a = 0; a < state.range(0); ++a) {
    base["a" + std::to_string(a)] = "value-" + std::to_string(a);
  }
  (void)store.Write("row", std::move(base), 1);
  const AttrMap updates = {{"a1", "update-value-1"}, {"a2", "update-value-2"},
                           {"a3", "update-value-3"}, {"a4", "update-value-4"}};
  Timestamp ts = 1;
  for (auto _ : state) {
    ++ts;
    benchmark::DoNotOptimize(store.MergeWrite("row", updates, ts));
    // Periodic GC keeps memory bounded without dominating the loop.
    if ((ts & 1023) == 0) store.TruncateVersions("row", ts - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreMergeWriteWide)->Arg(64)->Arg(256)->Arg(2000);

/// The log applier on the benchmark's `paper` row: 100 attributes, each
/// with its "#w/" provenance shadow, and an applied entry of 5 writes at
/// random attributes, merged with their shadows as ApplyThrough does (10
/// updates spread over the row).
void BM_StoreMergeWriteScattered(benchmark::State& state) {
  kvstore::MultiVersionStore store;
  AttrMap base;
  for (int a = 0; a < 100; ++a) {
    base["a" + std::to_string(a)] = "sixteen-byte-val";
    base["#w/a" + std::to_string(a)] = "provenance";
  }
  (void)store.Write("row", std::move(base), 1);
  Rng rng(3);
  std::vector<AttrMap> entries(64);
  for (AttrMap& updates : entries) {
    for (int w = 0; w < 5; ++w) {
      const std::string a = std::to_string(rng.Uniform(100));
      updates["a" + a] = "updated-value-16";
      updates["#w/a" + a] = "new-writer";
    }
  }
  Timestamp ts = 1;
  for (auto _ : state) {
    ++ts;
    benchmark::DoNotOptimize(
        store.MergeWrite("row", entries[ts % entries.size()], ts));
    if ((ts & 1023) == 0) store.TruncateVersions("row", ts - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreMergeWriteScattered);

// ------------------------------------------------------------- log codec

wal::LogEntry MakeEntry(int txns, int ops) {
  Rng rng(7);
  wal::LogEntry entry;
  entry.winner_dc = 1;
  for (int t = 0; t < txns; ++t) {
    wal::TxnRecord record;
    record.id = MakeTxnId(1, t + 1);
    record.origin_dc = 1;
    record.read_pos = 41;
    for (int i = 0; i < ops / 2; ++i) {
      record.reads.push_back(wal::ReadRecord{
          {"row", "a" + std::to_string(rng.Uniform(100))}, MakeTxnId(2, 9),
          40});
    }
    for (int i = 0; i < ops / 2; ++i) {
      record.writes.push_back(wal::WriteRecord{
          {"row", "a" + std::to_string(rng.Uniform(100))},
          "sixteen-byte-val"});
    }
    entry.txns.push_back(std::move(record));
  }
  return entry;
}

void BM_LogEntryEncode(benchmark::State& state) {
  const wal::LogEntry entry =
      MakeEntry(static_cast<int>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(entry.Encode());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(entry.Encode().size()));
}
BENCHMARK(BM_LogEntryEncode)->Arg(1)->Arg(4);

void BM_LogEntryDecode(benchmark::State& state) {
  const std::string encoded =
      MakeEntry(static_cast<int>(state.range(0)), 10).Encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal::LogEntry::Decode(encoded));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(encoded.size()));
}
BENCHMARK(BM_LogEntryDecode)->Arg(1)->Arg(4);

void BM_LogEntryFingerprint(benchmark::State& state) {
  const wal::LogEntry entry = MakeEntry(2, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(entry.Fingerprint());
  }
}
BENCHMARK(BM_LogEntryFingerprint);

void BM_BallotEncodeDecode(benchmark::State& state) {
  const paxos::Ballot b{42, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(paxos::Ballot::Decode(b.Encode()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BallotEncodeDecode);

// --------------------------------------------------- conflict/combination

void BM_PromotionConflictCheck(benchmark::State& state) {
  const wal::LogEntry winners = MakeEntry(3, 10);
  const wal::LogEntry own = MakeEntry(1, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(winners.WritesItemReadBy(own.txns.front()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PromotionConflictCheck);

void BM_CombineExhaustive(benchmark::State& state) {
  const wal::LogEntry own = MakeEntry(1, 10);
  std::vector<wal::TxnRecord> candidates;
  for (int i = 0; i < state.range(0); ++i) {
    wal::LogEntry e = MakeEntry(1, 10);
    e.txns[0].id = MakeTxnId(2, 100 + i);
    candidates.push_back(e.txns[0]);
  }
  paxos::CombinePolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        paxos::CombineTransactions(own, candidates, policy));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CombineExhaustive)->Arg(2)->Arg(4);

void BM_CombineGreedy(benchmark::State& state) {
  const wal::LogEntry own = MakeEntry(1, 10);
  std::vector<wal::TxnRecord> candidates;
  for (int i = 0; i < 16; ++i) {  // above the exhaustive limit
    wal::LogEntry e = MakeEntry(1, 10);
    e.txns[0].id = MakeTxnId(2, 100 + i);
    candidates.push_back(e.txns[0]);
  }
  paxos::CombinePolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        paxos::CombineTransactions(own, candidates, policy));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CombineGreedy);

// -------------------------------------------------------------- simulator

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int counter = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAt(i, [&counter] { ++counter; });
    }
    sim.Run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

/// The RPC-timeout pattern: most scheduled timers are cancelled before they
/// fire. 8 schedules, 7 cancels, 1 execution per iteration.
void BM_SimulatorScheduleCancelChurn(benchmark::State& state) {
  sim::Simulator sim;
  int counter = 0;
  for (auto _ : state) {
    sim::EventId ids[8];
    for (int i = 0; i < 8; ++i) {
      ids[i] = sim.ScheduleAfter(100 + i, [&counter] { ++counter; });
    }
    for (int i = 0; i < 7; ++i) sim.Cancel(ids[i]);
    sim.Step();  // drains the cancelled timers, runs the survivor
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_SimulatorScheduleCancelChurn);

// ----------------------------------------------------- end-to-end commit

sim::Task CommitOne(txn::Session* session, std::string value, bool* done) {
  txn::Txn txn = co_await session->Begin("g");
  if (!txn.active()) co_return;
  (void)co_await txn.Read("r", "a0");
  (void)txn.Write("r", "a1", value);
  (void)co_await txn.Commit();
  *done = true;
}

void BM_EndToEndCommit(benchmark::State& state) {
  // Wall-clock cost of simulating one full commit (protocol messages,
  // acceptor state machine, log apply) on a three-replica cluster.
  for (auto _ : state) {
    state.PauseTiming();
    core::ClusterConfig config = *core::ClusterConfig::FromCode("VVV");
    config.seed = 5;
    core::Cluster cluster(config);
    (void)cluster.LoadInitialRow("g", "r", {{"a0", "x"}, {"a1", "y"}});
    txn::Session session = cluster.CreateSession(0);
    bool done = false;
    state.ResumeTiming();

    CommitOne(&session, "value", &done);
    cluster.RunToCompletion();
    if (!done) state.SkipWithError("commit did not complete");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndCommit)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------- --json reporter

/// Console reporter that additionally accumulates every run into a
/// PerfJsonWriter snapshot.
class JsonSnapshotReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonSnapshotReporter(bench::PerfJsonWriter* writer)
      : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const double iters = static_cast<double>(run.iterations);
      const double ns_per_op =
          iters > 0 ? run.real_accumulated_time * 1e9 / iters : 0;
      double items_per_s = 0;
      if (auto it = run.counters.find("items_per_second");
          it != run.counters.end()) {
        items_per_s = it->second;
      }
      writer_->Add(run.benchmark_name(), ns_per_op, items_per_s);
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  bench::PerfJsonWriter* writer_;
};

}  // namespace
}  // namespace paxoscp

int main(int argc, char** argv) {
  const std::string json_path = paxoscp::bench::TakeJsonPathArg(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    paxoscp::bench::PerfJsonWriter writer("micro_substrate");
    paxoscp::JsonSnapshotReporter reporter(&writer);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    if (!writer.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("perf snapshot written to %s\n", json_path.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
