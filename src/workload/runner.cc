#include "workload/runner.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "common/logging.h"
#include "sim/coro.h"
#include "txn/cross.h"

namespace paxoscp::workload {

namespace {

/// Shared mutable state of one experiment run.
struct RunContext {
  core::Cluster* cluster = nullptr;
  RunnerConfig config;
  RunStats stats;
  int threads_done = 0;
  TimeMicros run_start = 0;
  /// Entity-group names (one entry in single-group runs).
  std::vector<std::string> group_names;
};

/// What one transaction attempt did. RunSingle and RunCross fill one per
/// attempt and hand it to Record.
struct Attempt {
  DcId dc = 0;
  TimeMicros started_at = 0;
  bool cross = false;
  /// Stays kUnavailable when the begin or a read fails.
  txn::TxnOutcome fate = txn::TxnOutcome::kUnavailable;
  int promotions = 0;
  bool fast_path = false;
  TimeMicros latency = 0;
  /// Commit point of a cross commit (CrossCommitResult::decision_latency).
  TimeMicros decision_latency = 0;
  /// Waits this begin gave up (TransactionClient::begin_giveups, D15, D16).
  int begin_giveups = 0;
  /// The checker's record, once the begin has minted a transaction id.
  std::optional<core::ClientOutcome> outcome;
};

/// Availability window covering `started_at`, or nullptr when windowed
/// accounting is off.
WindowCounts* WindowFor(RunContext* ctx, TimeMicros started_at) {
  const TimeMicros width = ctx->config.availability_window;
  if (width <= 0) return nullptr;
  const size_t index =
      static_cast<size_t>((started_at - ctx->run_start) / width);
  if (ctx->stats.windows.size() <= index) {
    ctx->stats.windows.resize(index + 1);
  }
  return &ctx->stats.windows[index];
}

/// Counts one finished attempt. The only code that updates RunStats'
/// tallies, so every attempt lands in exactly one outcome bucket of the
/// run, of its window and of its datacenter.
void Record(RunContext* ctx, Attempt* attempt) {
  RunStats& stats = ctx->stats;
  const DcId dc = attempt->dc;
  const TimeMicros latency = attempt->latency;
  WindowCounts unwindowed;  // sink when windowed accounting is off
  WindowCounts* window = WindowFor(ctx, attempt->started_at);
  if (window == nullptr) window = &unwindowed;
  ++stats.attempted;
  ++stats.attempted_by_dc[dc];
  ++window->attempted;
  if (attempt->cross) ++stats.cross_attempted;
  stats.barrier_giveups += attempt->begin_giveups;
  if (attempt->outcome) stats.outcomes.push_back(std::move(*attempt->outcome));

  switch (attempt->fate) {
    case txn::TxnOutcome::kReadOnly:
      ++stats.read_only;
      ++window->read_only;
      break;
    case txn::TxnOutcome::kCommitted: {
      const int round = attempt->promotions;
      ++stats.committed;
      ++stats.committed_by_dc[dc];
      ++window->committed;
      if (static_cast<int>(stats.commits_by_round.size()) <= round) {
        stats.commits_by_round.resize(round + 1);
        stats.latency_by_round.resize(round + 1);
      }
      ++stats.commits_by_round[round];
      stats.latency_by_round[round].Record(latency);
      stats.latency_committed.Record(latency);
      stats.latency_by_dc[dc].Record(latency);
      stats.max_promotions = std::max(stats.max_promotions, round);
      if (attempt->fast_path) ++stats.fast_path_commits;
      if (attempt->cross) {
        ++stats.cross_committed;
        stats.latency_cross.Record(latency);
        stats.latency_cross_decision.Record(attempt->decision_latency);
      } else if (ctx->group_names.size() > 1) {
        stats.latency_single_multi.Record(latency);
      }
      break;
    }
    case txn::TxnOutcome::kConflict:
      ++stats.aborted;
      ++window->aborted;
      if (attempt->cross) ++stats.cross_aborted;
      stats.latency_aborted.Record(latency);
      stats.max_promotions_aborted =
          std::max(stats.max_promotions_aborted, attempt->promotions);
      break;
    case txn::TxnOutcome::kUnknownOutcome:
      ++stats.failed;
      ++window->unavailable;
      if (attempt->cross) ++stats.cross_unknown;
      break;
    case txn::TxnOutcome::kUnavailable:
      ++stats.failed;
      ++window->unavailable;
      if (attempt->cross) ++stats.cross_unavailable;
      break;
  }
}

/// Runs one single-group transaction: the plan's ops on its one group.
sim::Coro<void> RunSingle(RunContext* ctx, txn::Session* session,
                          const TxnPlan* plan) {
  const std::string& group = ctx->group_names[plan->groups.front()];
  const std::string& row = ctx->config.workload.row;
  Attempt attempt;
  attempt.dc = session->home();
  attempt.started_at = ctx->cluster->simulator()->Now();

  const int giveups = session->client()->begin_giveups();
  txn::Txn txn = co_await session->Begin(group);
  attempt.begin_giveups = session->client()->begin_giveups() - giveups;
  if (!txn.active()) {
    Record(ctx, &attempt);
    co_return;
  }
  attempt.outcome.emplace();
  attempt.outcome->id = txn.id();
  attempt.outcome->group = group;

  for (const Op& op : plan->ops) {
    if (op.is_read) {
      Result<std::string> value = co_await txn.Read(row, op.attribute);
      if (!value.ok()) {
        // Read could not be served anywhere (e.g. total outage): abandon.
        txn.Abort();
        Record(ctx, &attempt);
        co_return;
      }
    } else {
      (void)txn.Write(row, op.attribute, op.value);
    }
  }

  const txn::CommitResult result = co_await txn.Commit();
  attempt.fate = txn::ClassifyCommit(result);
  attempt.promotions = result.promotions;
  attempt.fast_path = result.fast_path;
  attempt.latency = result.latency;
  attempt.outcome->committed = result.committed;
  attempt.outcome->read_only = result.read_only;
  attempt.outcome->position = result.position;
  attempt.outcome->unknown = attempt.fate == txn::TxnOutcome::kUnknownOutcome;
  Record(ctx, &attempt);
}

/// Runs one cross-group transaction (D8): one leg per planned shard,
/// committed via 2PC over the participants' logs.
sim::Coro<void> RunCross(RunContext* ctx, txn::Session* session,
                         const TxnPlan* plan) {
  const std::string& row = ctx->config.workload.row;
  Attempt attempt;
  attempt.dc = session->home();
  attempt.started_at = ctx->cluster->simulator()->Now();
  attempt.cross = true;

  std::vector<std::string> groups;
  groups.reserve(plan->groups.size());
  for (int g : plan->groups) groups.push_back(ctx->group_names[g]);

  const int giveups = session->client()->begin_giveups();
  txn::CrossTxn txn = co_await session->BeginCross(groups);
  attempt.begin_giveups = session->client()->begin_giveups() - giveups;
  if (!txn.active()) {
    Record(ctx, &attempt);
    co_return;
  }
  attempt.outcome.emplace();
  attempt.outcome->id = txn.id();
  attempt.outcome->groups = groups;
  // Ops run in plan order, but each maximal run of consecutive reads is
  // batched into one ReadMany fan-out — the legs' snapshot reads go out
  // concurrently (D9). A write ends the batch, so read-your-writes
  // ordering within the transaction is untouched.
  for (size_t op_index = 0; op_index < plan->ops.size();) {
    if (!plan->ops[op_index].is_read) {
      const Op& op = plan->ops[op_index];
      (void)txn.Write(groups[op.group], row, op.attribute, op.value);
      ++op_index;
      continue;
    }
    std::vector<txn::CrossRead> batch;
    while (op_index < plan->ops.size() && plan->ops[op_index].is_read) {
      const Op& op = plan->ops[op_index];
      batch.push_back(txn::CrossRead{groups[op.group], row, op.attribute});
      ++op_index;
    }
    std::vector<Result<std::string>> values = co_await txn.ReadMany(&batch);
    bool read_failed = false;
    for (const Result<std::string>& value : values) {
      if (!value.ok()) read_failed = true;
    }
    if (read_failed) {
      txn.Abort();
      Record(ctx, &attempt);
      co_return;
    }
  }

  const txn::CrossCommitResult result = co_await txn.Commit();
  attempt.fate = txn::ClassifyCommit(result);
  attempt.promotions = result.promotions;
  attempt.latency = result.latency;
  attempt.decision_latency = result.decision_latency;
  attempt.outcome->committed = result.committed;
  attempt.outcome->unknown = attempt.fate == txn::TxnOutcome::kUnknownOutcome;
  Record(ctx, &attempt);
}

/// Post-run recovery quiesce (paper §4.1's learning obligation): a value
/// can be decided — a majority accepted it, the client reported commit —
/// while every fire-and-forget apply message was lost to an outage, leaving
/// the entry in no replica's log. The hole can even sit *below* a replica's
/// frontier: a Paxos-CP contender that saw the decision promotes past it
/// and applies the next position, while the decided entry itself reaches no
/// log. Each service therefore learns every missing position from 1 through
/// its frontier and then forward until it hits a genuinely undecided one,
/// materializing every decided entry so the (L1) check compares client
/// outcomes against the history a recovered system would actually serve.
sim::Task RecoverOneTail(core::Cluster* cluster, std::string group, DcId dc) {
  txn::TransactionService* service = cluster->service(dc);
  for (LogPos pos = 1;; ++pos) {
    if (service->GroupLog(group)->HasEntry(pos)) continue;
    const Status learned = co_await service->LearnEntry(group, pos);
    if (learned.ok()) continue;
    if (pos > service->GroupLog(group)->MaxDecided()) {
      break;  // undecided tail (or unhealed partition)
    }
    // A hole below the frontier should always be learnable once the
    // network heals; if it is not, keep going and let the checker
    // report the gap honestly.
  }
}

/// Starts one tail learner per (group, replica) as a detached Task; the
/// caller's next RunToCompletion drains them. Each learns only its own log,
/// so the learners cannot interfere with each other and the quiesce costs
/// one tail walk of wall-clock instead of groups × dcs.
void RecoverDecidedTail(RunContext* ctx) {
  core::Cluster* cluster = ctx->cluster;
  for (const std::string& group : ctx->group_names) {
    for (DcId dc = 0; dc < cluster->num_datacenters(); ++dc) {
      RecoverOneTail(cluster, group, dc);
    }
  }
}

/// Distinct cross transactions pending on any replica of any group.
int CountPendingPrepares(RunContext* ctx) {
  core::Cluster* cluster = ctx->cluster;
  std::set<TxnId> pending;
  for (const std::string& group : ctx->group_names) {
    for (DcId dc = 0; dc < cluster->num_datacenters(); ++dc) {
      for (const wal::PendingPrepare& p :
           cluster->service(dc)->GroupLog(group)->PendingPrepares()) {
        pending.insert(p.txn);
      }
    }
  }
  return static_cast<int>(pending.size());
}

/// Starts the recovery daemon (D10) on every replica; a zero
/// `config.recovery_timer` keeps the daemon's default timer.
void StartRecoveryDaemons(core::Cluster* cluster, const RunnerConfig& config) {
  txn::RecoveryDaemonOptions options;
  if (config.recovery_timer > 0) options.base_delay = config.recovery_timer;
  options.client = config.client;
  for (DcId dc = 0; dc < cluster->num_datacenters(); ++dc) {
    cluster->service(dc)->StartRecoveryDaemon(options);
  }
}

void StopRecoveryDaemons(core::Cluster* cluster) {
  for (DcId dc = 0; dc < cluster->num_datacenters(); ++dc) {
    cluster->service(dc)->StopRecoveryDaemon();
  }
}

sim::Task RunThread(RunContext* ctx, int thread_index, int txns,
                    uint64_t seed) {
  sim::Simulator* sim = ctx->cluster->simulator();
  const RunnerConfig& config = ctx->config;

  const DcId home = config.thread_dcs.empty()
                        ? 0
                        : config.thread_dcs[thread_index %
                                            config.thread_dcs.size()];
  txn::Session session = ctx->cluster->CreateSession(home, config.client);
  Generator generator(config.workload, seed);

  co_await sim::SleepFor(sim, config.stagger * thread_index);

  const auto interarrival = static_cast<TimeMicros>(
      1e6 / std::max(config.target_rate_tps, 1e-9));
  TimeMicros next_start = sim->Now();
  for (int i = 0; i < txns; ++i) {
    if (sim->Now() < next_start) {
      co_await sim::SleepFor(sim, next_start - sim->Now());
    }
    next_start += interarrival;  // open loop: schedule does not drift
    const TxnPlan plan = generator.NextTxnPlan();
    if (plan.cross) {
      co_await RunCross(ctx, &session, &plan);
    } else {
      co_await RunSingle(ctx, &session, &plan);
    }
  }
  ++ctx->threads_done;
}

}  // namespace

double RunStats::MeanLatencyMs(int round) const {
  if (round < 0) return latency_committed.Mean() / 1000.0;
  if (round >= static_cast<int>(latency_by_round.size())) return 0;
  return latency_by_round[round].Mean() / 1000.0;
}

RunStats RunExperiment(core::Cluster* cluster, const RunnerConfig& config) {
  auto ctx = std::make_unique<RunContext>();
  ctx->cluster = cluster;
  ctx->config = config;
  const int num_groups = std::max(config.workload.num_groups, 1);
  ctx->group_names.reserve(num_groups);
  for (int g = 0; g < num_groups; ++g) {
    ctx->group_names.push_back(Generator::GroupName(config.workload, g));
  }

  // Pre-load each entity group's row into every datacenter (position 0).
  Generator loader(config.workload, config.seed);
  for (const std::string& group : ctx->group_names) {
    Status loaded = cluster->LoadInitialRow(group, config.workload.row,
                                            loader.InitialRow());
    if (!loaded.ok()) {
      ctx->stats.check.Violation("initial load failed: " + loaded.ToString());
      return std::move(ctx->stats);
    }
  }

  Rng seeds(config.seed ^ 0x9e3779b97f4a7c15ULL);
  const int per_thread = config.total_txns / config.num_threads;
  const int remainder = config.total_txns % config.num_threads;
  cluster->network()->ResetStats();
  const TimeMicros start = cluster->simulator()->Now();
  ctx->run_start = start;

  // Service-side recovery daemon (D10): when requested, every replica arms
  // deterministic timers for pending prepares throughout the run, so a
  // crashed coordinator's transaction is decided without client help.
  if (config.recovery_timer > 0) StartRecoveryDaemons(cluster, config);

  for (int t = 0; t < config.num_threads; ++t) {
    const int txns = per_thread + (t < remainder ? 1 : 0);
    RunThread(ctx.get(), t, txns, seeds.Next());
  }
  cluster->RunToCompletion();

  RunStats& stats = ctx->stats;
  stats.all_threads_finished = ctx->threads_done == config.num_threads;
  stats.virtual_duration = cluster->simulator()->Now() - start;
  stats.messages_sent = cluster->network()->messages_sent();
  stats.messages_per_attempt =
      stats.attempted == 0
          ? 0
          : static_cast<double>(stats.messages_sent) / stats.attempted;

  // Recovery accounting (D10), snapshotted before the post-run quiesce so
  // the numbers reflect what the daemon (or nothing) achieved during the
  // run itself. Restarted replicas' retired processes are not counted: the
  // stats describe the services live at end-of-run.
  {
    const TimeMicros now = cluster->simulator()->Now();
    for (DcId dc = 0; dc < cluster->num_datacenters(); ++dc) {
      txn::TransactionService* service = cluster->service(dc);
      stats.recoveries_started += service->recoveries_started();
      stats.recoveries_decided += service->recoveries_decided();
      stats.recoveries_forced_abort += service->recoveries_forced_abort();
      stats.max_safe_read_pin =
          std::max(stats.max_safe_read_pin, service->MaxSafeReadPosPin(now));
    }
  }
  if (config.recovery_timer > 0) StopRecoveryDaemons(cluster);

  RecoverDecidedTail(ctx.get());
  cluster->RunToCompletion();
  // Cross-group quiesce (D8/D10): the recovery daemon, the one recovery
  // path, adopts and decides whatever prepares crashed coordinators left
  // pending; the tail is then learned again for the checker.
  stats.quiesce_pending = CountPendingPrepares(ctx.get());
  if (stats.quiesce_pending > 0) {
    StartRecoveryDaemons(cluster, config);
    cluster->RunToCompletion();
    StopRecoveryDaemons(cluster);
    RecoverDecidedTail(ctx.get());
    cluster->RunToCompletion();
  }
  core::Checker checker(cluster);
  stats.check = checker.CheckAllCross(ctx->group_names, stats.outcomes);
  stats.combined_entries = stats.check.combined_entries;
  stats.combined_txns = stats.check.combined_txns;
  if (!stats.check.ok) {
    PAXOSCP_LOG(kError) << "invariant violations:\n"
                        << stats.check.ToString();
  }
  // Counted after the quiesce: a give-up there is how a pending prepare
  // survives it.
  for (DcId dc = 0; dc < cluster->num_datacenters(); ++dc) {
    stats.recoveries_abandoned += cluster->service(dc)->recoveries_abandoned();
  }
  return std::move(stats);
}

RunStats RunExperiment(const core::ClusterConfig& cluster_config,
                       const RunnerConfig& config) {
  core::Cluster cluster(cluster_config);
  return RunExperiment(&cluster, config);
}

}  // namespace paxoscp::workload
