// Property-based sweeps: run the full stack across seeds x protocols x
// cluster shapes x fault regimes and assert, on every run, the paper's
// correctness obligations — (R1) replica agreement, (L1)/(L2) exactly the
// committed transactions in the log, (L3) one-copy serializability, and an
// acyclic multi-version serialization graph — regardless of message loss,
// datacenter outages, or contention level.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "paxos/value_selection.h"
#include "txn/messages.h"
#include "workload/runner.h"

namespace paxoscp {
namespace {

using workload::RunExperiment;
using workload::RunnerConfig;
using workload::RunStats;

struct PropertyCase {
  std::string cluster;
  txn::Protocol protocol;
  double loss;
  uint64_t seed;
  int num_attributes;
  double rate_tps;
};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& c = info.param;
  std::ostringstream os;
  os << c.cluster << "_" << txn::ProtocolName(c.protocol) << "_loss"
     << int(c.loss * 100) << "_seed" << c.seed << "_attrs"
     << c.num_attributes;
  std::string name = os.str();
  for (char& ch : name) {
    if (ch == '-' || ch == '.') ch = '_';
  }
  return name;
}

RunStats RunCase(const PropertyCase& c, int txns = 60) {
  core::ClusterConfig cluster = *core::ClusterConfig::FromCode(c.cluster);
  cluster.seed = c.seed * 31 + 7;
  cluster.loss_probability = c.loss;
  RunnerConfig config;
  config.total_txns = txns;
  config.num_threads = 4;
  config.stagger = 50 * kMillisecond;
  config.target_rate_tps = c.rate_tps;
  config.workload.num_attributes = c.num_attributes;
  config.client.protocol = c.protocol;
  config.seed = c.seed;
  return RunExperiment(cluster, config);
}

void AssertInvariants(const RunStats& stats) {
  EXPECT_TRUE(stats.all_threads_finished);
  ASSERT_TRUE(stats.check.ok) << stats.check.ToString();
  EXPECT_EQ(stats.attempted,
            stats.committed + stats.read_only + stats.aborted + stats.failed);
  // Accounting: every committed read/write txn appears in the log
  // (CheckOutcomes verified positions); totals must line up.
  EXPECT_EQ(stats.check.committed_txns_in_log, stats.committed);
}

class ProtocolSweep : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ProtocolSweep, InvariantsHold) {
  AssertInvariants(RunCase(GetParam()));
}

std::vector<PropertyCase> SweepCases() {
  std::vector<PropertyCase> cases;
  for (const std::string cluster : {"VV", "VVV", "VOC", "VVVOC"}) {
    for (txn::Protocol protocol :
         {txn::Protocol::kBasicPaxos, txn::Protocol::kPaxosCP}) {
      for (uint64_t seed : {1u, 2u, 3u}) {
        cases.push_back(
            PropertyCase{cluster, protocol, 0.0, seed, 30, 4.0});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Clusters, ProtocolSweep,
                         ::testing::ValuesIn(SweepCases()), CaseName);

class LossSweep : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(LossSweep, InvariantsHoldUnderLoss) {
  AssertInvariants(RunCase(GetParam(), /*txns=*/40));
}

std::vector<PropertyCase> LossCases() {
  std::vector<PropertyCase> cases;
  for (double loss : {0.02, 0.10, 0.25}) {
    for (txn::Protocol protocol :
         {txn::Protocol::kBasicPaxos, txn::Protocol::kPaxosCP}) {
      for (uint64_t seed : {4u, 5u}) {
        cases.push_back(PropertyCase{"VVV", protocol, loss, seed, 30, 4.0});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Loss, LossSweep, ::testing::ValuesIn(LossCases()),
                         CaseName);

class ContentionSweep : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ContentionSweep, InvariantsHoldUnderContention) {
  RunStats stats = RunCase(GetParam());
  AssertInvariants(stats);
  // Under contention some transactions must actually have competed; the
  // test is vacuous otherwise. (CP may still commit everything.)
  if (GetParam().protocol == txn::Protocol::kBasicPaxos) {
    EXPECT_GT(stats.aborted, 0) << "contention sweep produced no conflicts";
  }
}

std::vector<PropertyCase> ContentionCases() {
  std::vector<PropertyCase> cases;
  for (int attrs : {5, 10, 100}) {
    for (txn::Protocol protocol :
         {txn::Protocol::kBasicPaxos, txn::Protocol::kPaxosCP}) {
      for (uint64_t seed : {6u, 7u}) {
        cases.push_back(PropertyCase{"VVV", protocol, 0.0, seed, attrs,
                                     8.0});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Contention, ContentionSweep,
                         ::testing::ValuesIn(ContentionCases()), CaseName);

// ------------------------------------------------------- outage injection

class OutageSweep
    : public ::testing::TestWithParam<std::tuple<txn::Protocol, uint64_t>> {};

TEST_P(OutageSweep, MinorityOutageMidRunPreservesInvariants) {
  const auto [protocol, seed] = GetParam();
  core::ClusterConfig cluster_config = *core::ClusterConfig::FromCode("VVV");
  cluster_config.seed = seed;
  core::Cluster cluster(cluster_config);

  // Take one datacenter down partway through the run and bring it back
  // later: commits must continue (majority alive) and the recovered
  // replica must converge to an identical log.
  cluster.simulator()->ScheduleAt(3 * kSecond,
                                  [&] { cluster.SetDatacenterDown(2, true); });
  cluster.simulator()->ScheduleAt(
      12 * kSecond, [&] { cluster.SetDatacenterDown(2, false); });

  RunnerConfig config;
  config.total_txns = 40;
  config.num_threads = 4;
  config.target_rate_tps = 2.0;
  config.stagger = 100 * kMillisecond;
  config.workload.num_attributes = 50;
  config.client.protocol = protocol;
  config.seed = seed + 100;
  RunStats stats = RunExperiment(&cluster, config);

  EXPECT_TRUE(stats.all_threads_finished);
  ASSERT_TRUE(stats.check.ok) << stats.check.ToString();
  EXPECT_GT(stats.committed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Outage, OutageSweep,
    ::testing::Combine(::testing::Values(txn::Protocol::kBasicPaxos,
                                         txn::Protocol::kPaxosCP),
                       ::testing::Values(11u, 12u, 13u)));

// -------------------------------------------------- flapping datacenters

class FlappingSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlappingSweep, RepeatedOutagesNeverBreakSerializability) {
  const uint64_t seed = GetParam();
  core::ClusterConfig cluster_config =
      *core::ClusterConfig::FromCode("VVVOC");
  cluster_config.seed = seed;
  core::Cluster cluster(cluster_config);

  // Rotate a single-down datacenter every 2 simulated seconds.
  for (int step = 0; step < 12; ++step) {
    const DcId victim = step % 5;
    cluster.simulator()->ScheduleAt(
        (2 + step * 2) * kSecond,
        [&cluster, victim] { cluster.SetDatacenterDown(victim, true); });
    cluster.simulator()->ScheduleAt(
        (3 + step * 2) * kSecond,
        [&cluster, victim] { cluster.SetDatacenterDown(victim, false); });
  }

  RunnerConfig config;
  config.total_txns = 50;
  config.num_threads = 5;
  config.thread_dcs = {0, 1, 2, 3, 4};
  config.target_rate_tps = 1.0;
  config.stagger = 200 * kMillisecond;
  config.workload.num_attributes = 40;
  config.client.protocol = txn::Protocol::kPaxosCP;
  config.seed = seed;
  RunStats stats = RunExperiment(&cluster, config);

  EXPECT_TRUE(stats.all_threads_finished);
  ASSERT_TRUE(stats.check.ok) << stats.check.ToString();
}

INSTANTIATE_TEST_SUITE_P(Flapping, FlappingSweep,
                         ::testing::Values(21u, 22u, 23u, 24u));

// ------------------------------------------ settling a Paxos round early
//
// A prepare or accept broadcast resolves once the settle rule
// (txn::PrepareSettle / txn::AcceptSettle, D13) holds on the responses so
// far. These properties check, over response sets that Paxos can produce
// and every order in which their responses can arrive, that acting on the
// responses at the settle point is acting as the full set would.

using txn::BroadcastResult;
using txn::ServiceResponse;

/// A transaction on row "r" reading `reads` and writing `writes`.
wal::TxnRecord RowTxn(TxnId id, std::vector<std::string> reads,
                      std::vector<std::string> writes) {
  wal::TxnRecord t;
  t.id = id;
  t.origin_dc = TxnIdDc(id);
  for (const std::string& attr : reads) t.reads.push_back({{"r", attr}, 0, 0});
  for (const std::string& attr : writes) {
    t.writes.push_back({{"r", attr}, "v"});
  }
  return t;
}

wal::LogEntry Entry(std::vector<wal::TxnRecord> txns) {
  wal::LogEntry entry;
  entry.winner_dc = txns.front().origin_dc;
  entry.txns = std::move(txns);
  return entry;
}

/// The proposer's own value and the values its peers vote for. The peers'
/// transactions conflict with the own one and with one another in
/// different ways, so what combination proposes depends on which votes it
/// saw.
struct RoundValues {
  RoundValues() {
    const wal::TxnRecord o = RowTxn(MakeTxnId(0, 1), {"a"}, {"b"});
    const wal::TxnRecord a = RowTxn(MakeTxnId(1, 1), {}, {"x"});
    const wal::TxnRecord b = RowTxn(MakeTxnId(2, 1), {"x"}, {"y"});
    const wal::TxnRecord c = RowTxn(MakeTxnId(1, 2), {"c"}, {"a"});
    const wal::TxnRecord e = RowTxn(MakeTxnId(2, 2), {"b"}, {"e"});
    own = Entry({o});
    // Values a chosen one is drawn from; the last two hold the own txn.
    choosable = {Entry({a}), Entry({b, e}), Entry({c}), own, Entry({o, a})};
    others = {Entry({a}), Entry({b}), Entry({c}), Entry({e}),
              Entry({a, c}), Entry({b, e})};
  }

  wal::LogEntry own;
  std::vector<wal::LogEntry> choosable;
  std::vector<wal::LogEntry> others;
};

/// Draws the prepare responses of `d` acceptors to ballot {8, 0}: some
/// value V chosen at a ballot b (a majority voted V at b, and any vote above
/// b is for V, possibly after a later proposer re-proposed it) or nothing
/// chosen (no ballot holds a majority), plus lower-ballot votes for other
/// values, bottoms, refusals, silent acceptors, and reports of the decided
/// value V. A ballot carries one value, as ballots are unique per proposer.
BroadcastResult DrawPrepareResponses(Rng* rng, int d,
                                     const RoundValues& values) {
  const int majority = d / 2 + 1;
  const bool chosen = rng->Bernoulli(0.6);
  const wal::LogEntry& v =
      values.choosable[rng->Uniform(values.choosable.size())];
  const paxos::Ballot b{rng->UniformRange(2, 4),
                        static_cast<DcId>(rng->Uniform(d))};

  std::vector<int> order(d);
  for (int i = 0; i < d; ++i) order[i] = i;
  for (int i = d - 1; i > 0; --i) {
    std::swap(order[i], order[rng->Uniform(i + 1)]);
  }
  const int voters_at_b =
      chosen ? majority + static_cast<int>(rng->Uniform(d - majority + 1)) : 0;

  std::map<paxos::Ballot, const wal::LogEntry*> value_at;  // one per ballot
  std::map<paxos::Ballot, int> votes_at;
  BroadcastResult results(d);
  for (int rank = 0; rank < d; ++rank) {
    const int acceptor = order[rank];
    paxos::PrepareResult pr;
    if (rank < voters_at_b || (chosen && rng->Bernoulli(0.15))) {
      // V at b, or V re-proposed above b.
      const paxos::Ballot above{b.round + 1 + rng->UniformRange(0, 1),
                                static_cast<DcId>(rng->Uniform(d))};
      pr.vote_ballot =
          rank < voters_at_b && rng->Bernoulli(0.75) ? b : above;
      pr.vote_value = v;
    } else if (rng->Bernoulli(0.6)) {
      // A vote below b (nothing chosen: below round 5) that leaves its
      // ballot short of a majority.
      const paxos::Ballot lower{
          rng->UniformRange(0, (chosen ? b.round : 5) - 1),
          static_cast<DcId>(rng->Uniform(d))};
      if (votes_at[lower] + 1 < majority) {
        const wal::LogEntry*& value = value_at[lower];
        if (value == nullptr) {
          value = &values.others[rng->Uniform(values.others.size())];
        }
        ++votes_at[lower];
        pr.vote_ballot = lower;
        pr.vote_value = *value;
      }
    }
    const double reply = rng->NextDouble();
    net::TargetResult<ServiceResponse>& target = results[acceptor];
    target.dc = acceptor;
    if (reply < 0.12) {
      target.status = Status::TimedOut("rpc timeout");
      continue;
    }
    pr.promised = reply >= 0.24;  // else a refusal
    pr.next_bal = pr.promised ? paxos::Ballot{8, 0} : paxos::Ballot{9, 1};
    if (chosen && rng->Bernoulli(0.15)) pr.decided = v;
    target.response = txn::PrepareResponse{std::move(pr)};
  }
  return results;
}

/// `full` as the broadcast holds it when only the targets in `arrived` (a
/// bit per target) have answered: the others read non-OK.
BroadcastResult Arrived(const BroadcastResult& full, uint32_t arrived) {
  BroadcastResult so_far = full;
  for (size_t i = 0; i < so_far.size(); ++i) {
    if ((arrived >> i & 1) == 0) {
      so_far[i].status = Status::Unavailable("in flight");
      so_far[i].response = ServiceResponse{};
    }
  }
  return so_far;
}

/// What a proposer does next with a round's prepare responses, as
/// TransactionClient::RunInstance decides it: the value it acts on and, for
/// Paxos-CP, whether it stops as a loser. A decided report and a proposal of
/// the same value lead to the same outcome, so both are the same step.
struct Step {
  bool lost = false;
  uint64_t value = 0;

  bool operator==(const Step&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const Step& step) {
    return os << (step.lost ? "lost to " : "acts on ") << step.value;
  }
};

/// The next step, or nullopt when the responses call for another round.
std::optional<Step> NextStep(BroadcastResult results, int d,
                             const wal::LogEntry& own, txn::Protocol protocol) {
  paxos::Ballot max_seen;
  txn::PrepareTally tally = txn::TallyPrepares(&results, &max_seen);
  const wal::TxnRecord& own_txn = own.txns.front();
  if (tally.decided.has_value()) {
    return Step{protocol == txn::Protocol::kPaxosCP &&
                    !tally.decided->ContainsRecord(own_txn.id, own_txn.kind),
                tally.decided->Fingerprint()};
  }
  if (tally.promised() < d / 2 + 1) return std::nullopt;
  if (protocol == txn::Protocol::kPaxosCP) {
    const paxos::SelectionDecision decision = paxos::EnhancedFindWinningValue(
        tally.votes, tally.promised(), d, own, paxos::CombinePolicy{});
    return Step{decision.kind == paxos::SelectionKind::kLost,
                decision.value.Fingerprint()};
  }
  const std::optional<wal::LogEntry> winning =
      paxos::FindWinningValue(tally.votes);
  return Step{false, winning.has_value() ? winning->Fingerprint()
                                         : own.Fingerprint()};
}

/// Calls `at_prefix(arrived, early)` for every prefix of every order in
/// which the answering targets of `full` can arrive; `early` is false for
/// the prefix that holds every answer.
template <typename AtPrefix>
void ForEveryArrivalPrefix(const BroadcastResult& full, AtPrefix at_prefix) {
  std::vector<int> answering;
  for (size_t i = 0; i < full.size(); ++i) {
    if (full[i].status.ok()) answering.push_back(static_cast<int>(i));
  }
  do {
    uint32_t arrived = 0;
    for (size_t k = 0; k < answering.size(); ++k) {
      arrived |= 1u << answering[k];
      at_prefix(arrived, k + 1 < answering.size());
    }
  } while (std::next_permutation(answering.begin(), answering.end()));
}

TEST(SettleRuleProperty, SettlingAPrepareEarlyNeverChangesTheNextStep) {
  const RoundValues values;
  int early_on_decided = 0;
  int early_on_chosen = 0;
  int full_sets_that_combine = 0;
  for (const int d : {3, 5}) {
    const int majority = d / 2 + 1;
    const txn::Network::Settle settle = txn::PrepareSettle(majority);
    Rng rng(static_cast<uint64_t>(d) * 7919);
    for (int round = 0; round < 600; ++round) {
      const BroadcastResult full = DrawPrepareResponses(&rng, d, values);
      for (const txn::Protocol protocol :
           {txn::Protocol::kPaxosCP, txn::Protocol::kBasicPaxos}) {
        const std::optional<Step> full_step =
            NextStep(full, d, values.own, protocol);
        if (protocol == txn::Protocol::kPaxosCP && full_step.has_value()) {
          paxos::Ballot unused;
          BroadcastResult copy = full;
          const txn::PrepareTally tally = txn::TallyPrepares(&copy, &unused);
          if (!tally.decided.has_value() &&
              paxos::EnhancedFindWinningValue(tally.votes, tally.promised(),
                                              d, values.own, {})
                  .combined) {
            ++full_sets_that_combine;
          }
        }
        std::set<uint32_t> checked;  // sets of arrivals already checked
        ForEveryArrivalPrefix(full, [&](uint32_t arrived, bool early) {
          if (!checked.insert(arrived).second) return;
          const BroadcastResult so_far = Arrived(full, arrived);
          if (!settle(so_far)) return;
          ASSERT_TRUE(full_step.has_value());
          EXPECT_EQ(NextStep(so_far, d, values.own, protocol), full_step)
              << "D=" << d << " round " << round << " "
              << txn::ProtocolName(protocol) << " arrived mask " << arrived;
          if (protocol == txn::Protocol::kPaxosCP && early) {
            bool decided = false;
            for (const auto& t : so_far) {
              decided |= t.status.ok() &&
                         std::get<txn::PrepareResponse>(t.response)
                             .result.decided.has_value();
            }
            ++(decided ? early_on_decided : early_on_chosen);
          }
        });
      }
    }
  }
  // The draws exercise both ways a prepare settles early, and rounds whose
  // full set combines — the ones a looser rule would cut short.
  EXPECT_GT(early_on_decided, 1000);
  EXPECT_GT(early_on_chosen, 250);
  EXPECT_GT(full_sets_that_combine, 100);
}

TEST(SettleRuleProperty, SettledAcceptRoundHasAMajority) {
  int early = 0;
  for (const int d : {3, 5}) {
    const int majority = d / 2 + 1;
    const txn::Network::Settle settle = txn::AcceptSettle(majority);
    Rng rng(static_cast<uint64_t>(d) * 104729);
    for (int round = 0; round < 300; ++round) {
      BroadcastResult full(d);
      for (int i = 0; i < d; ++i) {
        full[i].dc = i;
        const double reply = rng.NextDouble();
        if (reply < 0.15) {
          full[i].status = Status::TimedOut("rpc timeout");
          continue;
        }
        paxos::AcceptResult ar;
        ar.accepted = reply >= 0.35;
        if (!ar.accepted) ar.next_bal = paxos::Ballot{9, 1};
        full[i].response = txn::AcceptResponse{ar};
      }
      ForEveryArrivalPrefix(full, [&](uint32_t arrived, bool is_early) {
        const BroadcastResult so_far = Arrived(full, arrived);
        if (!settle(so_far)) return;
        paxos::Ballot unused;
        EXPECT_GE(txn::TallyAccepts(so_far, &unused), majority);
        early += is_early ? 1 : 0;
      });
    }
  }
  EXPECT_GT(early, 10000);
}

}  // namespace
}  // namespace paxoscp
