// Unit tests for the Paxos module: ballots, the kvstore-backed acceptor
// (Algorithm 1), leader claims, and proposer value selection including
// every branch of enhancedFindWinningVal.
#include <gtest/gtest.h>

#include "kvstore/store.h"
#include "paxos/acceptor.h"
#include "paxos/ballot.h"
#include "paxos/value_selection.h"
#include "wal/log.h"

namespace paxoscp::paxos {
namespace {

wal::LogEntry EntryFor(TxnId id, std::vector<std::string> read_attrs = {},
                       std::vector<std::string> write_attrs = {"w"}) {
  wal::LogEntry e;
  e.winner_dc = TxnIdDc(id);
  wal::TxnRecord t;
  t.id = id;
  t.origin_dc = TxnIdDc(id);
  for (auto& attr : read_attrs) t.reads.push_back({{"r", attr}, 0, 0});
  for (auto& attr : write_attrs) t.writes.push_back({{"r", attr}, "v"});
  e.txns.push_back(std::move(t));
  return e;
}

// ---------------------------------------------------------------- Ballot

TEST(BallotTest, Ordering) {
  EXPECT_LT(kNullBallot, (Ballot{0, 0}));
  EXPECT_LT((Ballot{0, 2}), (Ballot{1, 0}));
  EXPECT_LT((Ballot{1, 0}), (Ballot{1, 1}));
  EXPECT_EQ((Ballot{3, 2}), (Ballot{3, 2}));
}

TEST(BallotTest, EncodeDecodeRoundTrip) {
  for (Ballot b : {kNullBallot, Ballot{0, 1}, Ballot{42, 3},
                   Ballot{INT64_MAX / 2, 15}}) {
    EXPECT_EQ(Ballot::Decode(b.Encode()), b) << b.ToString();
  }
}

TEST(BallotTest, DecodeEmptyIsNull) {
  EXPECT_TRUE(Ballot::Decode("").IsNull());
}

TEST(BallotTest, NullBallotEncodesEmpty) {
  // The store's missing-attribute convention: unset acceptor state reads as
  // "", so the null ballot must encode to exactly that.
  EXPECT_EQ(kNullBallot.Encode(), "");
}

TEST(BallotTest, ToStringIsHumanReadable) {
  // ToString is the log/debug form, distinct from the binary Encode().
  EXPECT_EQ((Ballot{3, 1}).ToString(), "3.1");
  EXPECT_EQ((Ballot{0, 2}).ToString(), "0.2");
  EXPECT_EQ(kNullBallot.ToString(), "null");
  EXPECT_NE((Ballot{300, 5}).ToString(), (Ballot{300, 5}).Encode());
}

TEST(BallotTest, NextBallotExceedsSeen) {
  EXPECT_EQ(NextBallot(kNullBallot, 2), (Ballot{1, 2}));
  EXPECT_EQ(NextBallot(Ballot{5, 0}, 2), (Ballot{6, 2}));
  EXPECT_GT(NextBallot(Ballot{5, 4}, 2), (Ballot{5, 4}));
}

TEST(BallotTest, FastPathClassification) {
  EXPECT_TRUE((Ballot{0, 3}).IsFastPath());
  EXPECT_FALSE((Ballot{1, 3}).IsFastPath());
  EXPECT_FALSE(kNullBallot.IsFastPath());
}

// -------------------------------------------------------------- Acceptor

class AcceptorTest : public ::testing::Test {
 protected:
  kvstore::MultiVersionStore store_;
  wal::WriteAheadLog log_{&store_, "g"};
  Acceptor acceptor_{&store_, &log_};
};

TEST_F(AcceptorTest, InitialStateIsNull) {
  Acceptor::State state = acceptor_.ReadState(1);
  EXPECT_TRUE(state.next_bal.IsNull());
  EXPECT_TRUE(state.vote_ballot.IsNull());
  EXPECT_FALSE(state.vote_value.has_value());
}

TEST_F(AcceptorTest, PrepareGrantsHigherBallot) {
  PrepareResult r = acceptor_.OnPrepare(1, Ballot{1, 0});
  EXPECT_TRUE(r.promised);
  EXPECT_EQ(r.next_bal, (Ballot{1, 0}));
  EXPECT_TRUE(r.vote_ballot.IsNull());
  EXPECT_FALSE(r.vote_value.has_value());
}

TEST_F(AcceptorTest, PrepareRejectsLowerOrEqualBallot) {
  ASSERT_TRUE(acceptor_.OnPrepare(1, Ballot{5, 1}).promised);
  EXPECT_FALSE(acceptor_.OnPrepare(1, Ballot{5, 1}).promised);  // equal
  PrepareResult lower = acceptor_.OnPrepare(1, Ballot{4, 2});
  EXPECT_FALSE(lower.promised);
  EXPECT_EQ(lower.next_bal, (Ballot{5, 1}));  // hint for nextPropNumber
}

TEST_F(AcceptorTest, PrepareReturnsLastVote) {
  const wal::LogEntry value = EntryFor(MakeTxnId(0, 1));
  ASSERT_TRUE(acceptor_.OnPrepare(1, Ballot{1, 0}).promised);
  ASSERT_TRUE(acceptor_.OnAccept(1, Ballot{1, 0}, value).accepted);
  PrepareResult r = acceptor_.OnPrepare(1, Ballot{2, 1});
  EXPECT_TRUE(r.promised);
  EXPECT_EQ(r.vote_ballot, (Ballot{1, 0}));
  ASSERT_TRUE(r.vote_value.has_value());
  EXPECT_EQ(r.vote_value->Fingerprint(), value.Fingerprint());
}

TEST_F(AcceptorTest, AcceptRequiresMatchingPromise) {
  const wal::LogEntry value = EntryFor(MakeTxnId(0, 1));
  // No promise yet and not a fast-path ballot: reject.
  EXPECT_FALSE(acceptor_.OnAccept(1, Ballot{1, 0}, value).accepted);
  ASSERT_TRUE(acceptor_.OnPrepare(1, Ballot{2, 0}).promised);
  // Stale ballot after a newer promise: reject (Algorithm 1 line 18).
  EXPECT_FALSE(acceptor_.OnAccept(1, Ballot{1, 0}, value).accepted);
  EXPECT_TRUE(acceptor_.OnAccept(1, Ballot{2, 0}, value).accepted);
}

TEST_F(AcceptorTest, AcceptFastPathOnUntouchedPosition) {
  const wal::LogEntry value = EntryFor(MakeTxnId(1, 1));
  EXPECT_TRUE(acceptor_.OnAccept(1, Ballot{0, 1}, value).accepted);
  Acceptor::State state = acceptor_.ReadState(1);
  EXPECT_EQ(state.vote_ballot, (Ballot{0, 1}));
}

TEST_F(AcceptorTest, FastPathRejectedAfterAnyPromise) {
  ASSERT_TRUE(acceptor_.OnPrepare(1, Ballot{1, 0}).promised);
  EXPECT_FALSE(
      acceptor_.OnAccept(1, Ballot{0, 1}, EntryFor(MakeTxnId(1, 1)))
          .accepted);
}

TEST_F(AcceptorTest, DuplicateAcceptIsIdempotent) {
  const wal::LogEntry value = EntryFor(MakeTxnId(0, 1));
  ASSERT_TRUE(acceptor_.OnPrepare(1, Ballot{1, 0}).promised);
  ASSERT_TRUE(acceptor_.OnAccept(1, Ballot{1, 0}, value).accepted);
  EXPECT_TRUE(acceptor_.OnAccept(1, Ballot{1, 0}, value).accepted);
}

TEST_F(AcceptorTest, VoteCanChangeAcrossBallots) {
  const wal::LogEntry v1 = EntryFor(MakeTxnId(0, 1));
  const wal::LogEntry v2 = EntryFor(MakeTxnId(1, 1));
  ASSERT_TRUE(acceptor_.OnPrepare(1, Ballot{1, 0}).promised);
  ASSERT_TRUE(acceptor_.OnAccept(1, Ballot{1, 0}, v1).accepted);
  ASSERT_TRUE(acceptor_.OnPrepare(1, Ballot{2, 1}).promised);
  ASSERT_TRUE(acceptor_.OnAccept(1, Ballot{2, 1}, v2).accepted);
  Acceptor::State state = acceptor_.ReadState(1);
  EXPECT_EQ(state.vote_value->Fingerprint(), v2.Fingerprint());
}

TEST_F(AcceptorTest, ApplyWritesLogAndRefreshesVote) {
  const wal::LogEntry value = EntryFor(MakeTxnId(0, 1));
  ASSERT_TRUE(acceptor_.OnApply(1, Ballot{1, 0}, value).ok());
  EXPECT_TRUE(log_.HasEntry(1));
  // A later prepare discovers the decided value.
  PrepareResult r = acceptor_.OnPrepare(1, Ballot{9, 1});
  ASSERT_TRUE(r.decided.has_value());
  EXPECT_EQ(r.decided->Fingerprint(), value.Fingerprint());
}

TEST_F(AcceptorTest, ConflictingApplyIsCorruption) {
  ASSERT_TRUE(
      acceptor_.OnApply(1, Ballot{1, 0}, EntryFor(MakeTxnId(0, 1))).ok());
  Status s = acceptor_.OnApply(1, Ballot{2, 1}, EntryFor(MakeTxnId(1, 1)));
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
}

TEST_F(AcceptorTest, PositionsAreIndependent) {
  ASSERT_TRUE(acceptor_.OnPrepare(1, Ballot{5, 0}).promised);
  EXPECT_TRUE(acceptor_.OnPrepare(2, Ballot{1, 1}).promised);
}

TEST_F(AcceptorTest, LeadershipClaimedExactlyOnce) {
  EXPECT_TRUE(acceptor_.TryClaimLeadership(1));
  EXPECT_FALSE(acceptor_.TryClaimLeadership(1));
  EXPECT_TRUE(acceptor_.TryClaimLeadership(2));  // per-position
}

// ------------------------------------------------------- value selection

LastVote Vote(DcId dc, Ballot ballot, std::optional<wal::LogEntry> value) {
  return LastVote{dc, ballot, std::move(value)};
}

TEST(FindWinningValueTest, AllBottomReturnsNullopt) {
  std::vector<LastVote> votes = {Vote(0, kNullBallot, std::nullopt),
                                 Vote(1, kNullBallot, std::nullopt)};
  EXPECT_FALSE(FindWinningValue(votes).has_value());
}

TEST(FindWinningValueTest, PicksMaxBallotValue) {
  const wal::LogEntry low = EntryFor(MakeTxnId(0, 1));
  const wal::LogEntry high = EntryFor(MakeTxnId(1, 1));
  std::vector<LastVote> votes = {Vote(0, Ballot{1, 0}, low),
                                 Vote(1, Ballot{3, 1}, high),
                                 Vote(2, kNullBallot, std::nullopt)};
  auto winning = FindWinningValue(votes);
  ASSERT_TRUE(winning.has_value());
  EXPECT_EQ(winning->Fingerprint(), high.Fingerprint());
}

TEST(CanAppendTest, RejectsReadFromPredecessorWrite) {
  std::vector<wal::TxnRecord> list = {
      EntryFor(MakeTxnId(0, 1), {}, {"a"}).txns[0]};
  EXPECT_FALSE(CanAppend(list, EntryFor(MakeTxnId(1, 1), {"a"}, {"b"})
                                   .txns[0]));
  EXPECT_TRUE(CanAppend(list, EntryFor(MakeTxnId(1, 2), {"c"}, {"a"})
                                  .txns[0]));  // ww overlap is fine
}

TEST(CombineTest, MergesCompatibleTransactions) {
  const wal::LogEntry own = EntryFor(MakeTxnId(0, 1), {"x"}, {"a"});
  std::vector<wal::TxnRecord> candidates = {
      EntryFor(MakeTxnId(1, 1), {"y"}, {"b"}).txns[0],
      EntryFor(MakeTxnId(2, 1), {"z"}, {"c"}).txns[0]};
  wal::LogEntry combined = CombineTransactions(own, candidates, {});
  EXPECT_EQ(combined.txns.size(), 3u);
  EXPECT_EQ(combined.txns[0].id, MakeTxnId(0, 1));  // own first
}

TEST(CombineTest, ExcludesConflictingCandidate) {
  const wal::LogEntry own = EntryFor(MakeTxnId(0, 1), {}, {"a"});
  std::vector<wal::TxnRecord> candidates = {
      EntryFor(MakeTxnId(1, 1), {"a"}, {"b"}).txns[0],  // reads own write
      EntryFor(MakeTxnId(2, 1), {"c"}, {"d"}).txns[0]};
  wal::LogEntry combined = CombineTransactions(own, candidates, {});
  EXPECT_EQ(combined.txns.size(), 2u);
  EXPECT_FALSE(combined.ContainsTxn(MakeTxnId(1, 1)));
  EXPECT_TRUE(combined.ContainsTxn(MakeTxnId(2, 1)));
}

TEST(CombineTest, OrderSearchFindsMaximumList) {
  // t1 reads "a" (own writes "a") => t1 can never follow own... but t2
  // writes nothing t1 reads, and t1 writes nothing t2 reads-from, so the
  // best list is [own, t2] or [own, t2, t1]? t1 reads "a" which own wrote:
  // t1 is excluded in any position after own. Expect [own, t2].
  const wal::LogEntry own = EntryFor(MakeTxnId(0, 1), {}, {"a"});
  wal::TxnRecord t1 = EntryFor(MakeTxnId(1, 1), {"a"}, {"q"}).txns[0];
  wal::TxnRecord t2 = EntryFor(MakeTxnId(2, 1), {"p"}, {"r"}).txns[0];
  wal::LogEntry combined = CombineTransactions(own, {t1, t2}, {});
  EXPECT_EQ(combined.txns.size(), 2u);
  EXPECT_TRUE(combined.ContainsTxn(MakeTxnId(2, 1)));
}

TEST(CombineTest, OrderMattersAndSearchFindsIt) {
  // t1 reads "b"; t2 writes "b". Order [t2, t1] is illegal (t1 reads-from
  // predecessor t2) but [t1, t2] is legal — the exhaustive search must find
  // the ordering that admits both.
  const wal::LogEntry own = EntryFor(MakeTxnId(0, 1), {}, {"a"});
  wal::TxnRecord t1 = EntryFor(MakeTxnId(1, 1), {"b"}, {"c"}).txns[0];
  wal::TxnRecord t2 = EntryFor(MakeTxnId(2, 1), {"d"}, {"b"}).txns[0];
  wal::LogEntry combined = CombineTransactions(own, {t2, t1}, {});
  ASSERT_EQ(combined.txns.size(), 3u);
  // t1 must precede t2 in the final list.
  size_t i1 = 0, i2 = 0;
  for (size_t i = 0; i < combined.txns.size(); ++i) {
    if (combined.txns[i].id == MakeTxnId(1, 1)) i1 = i;
    if (combined.txns[i].id == MakeTxnId(2, 1)) i2 = i;
  }
  EXPECT_LT(i1, i2);
}

TEST(CombineTest, DeduplicatesOwnTransaction) {
  const wal::LogEntry own = EntryFor(MakeTxnId(0, 1), {}, {"a"});
  std::vector<wal::TxnRecord> candidates = {own.txns[0],
                                            own.txns[0]};  // echoes of self
  wal::LogEntry combined = CombineTransactions(own, candidates, {});
  EXPECT_EQ(combined.txns.size(), 1u);
}

TEST(CombineTest, GreedyBeyondExhaustiveLimit) {
  const wal::LogEntry own = EntryFor(MakeTxnId(0, 1), {}, {"a"});
  std::vector<wal::TxnRecord> candidates;
  for (int i = 0; i < 10; ++i) {
    // += instead of `"y" + std::to_string(i)`: GCC 12 -O2 flags the
    // prepend-into-temporary form with a spurious -Wrestrict.
    std::string item = "y";
    item += std::to_string(i);
    candidates.push_back(
        EntryFor(MakeTxnId(1, 100 + i), {"x"}, {item}).txns[0]);
  }
  CombinePolicy policy;
  wal::LogEntry combined = CombineTransactions(own, candidates, policy);
  EXPECT_EQ(combined.txns.size(), 11u);  // all compatible
}

TEST(CombineTest, DisabledPolicyKeepsOwnOnly) {
  const wal::LogEntry own = EntryFor(MakeTxnId(0, 1), {}, {"a"});
  CombinePolicy policy;
  policy.enabled = false;
  wal::LogEntry combined = CombineTransactions(
      own, {EntryFor(MakeTxnId(1, 1), {"p"}, {"q"}).txns[0]}, policy);
  EXPECT_EQ(combined.txns.size(), 1u);
}

// ----------------------------------------------- enhancedFindWinningVal

TEST(EnhancedSelectionTest, NoVotesProposesOwn) {
  const wal::LogEntry own = EntryFor(MakeTxnId(0, 1));
  std::vector<LastVote> votes = {Vote(0, kNullBallot, std::nullopt),
                                 Vote(1, kNullBallot, std::nullopt),
                                 Vote(2, kNullBallot, std::nullopt)};
  SelectionDecision d = EnhancedFindWinningValue(votes, 3, 3, own, {});
  EXPECT_EQ(d.kind, SelectionKind::kPropose);
  EXPECT_EQ(d.value.Fingerprint(), own.Fingerprint());
  EXPECT_FALSE(d.combined);
}

TEST(EnhancedSelectionTest, CombinesInsideSafeWindow) {
  // One vote among three responses: no value can have a majority, so the
  // proposer merges the discovered transaction with its own.
  const wal::LogEntry own = EntryFor(MakeTxnId(0, 1), {"x"}, {"a"});
  const wal::LogEntry other = EntryFor(MakeTxnId(1, 1), {"y"}, {"b"});
  std::vector<LastVote> votes = {Vote(0, Ballot{1, 1}, other),
                                 Vote(1, kNullBallot, std::nullopt),
                                 Vote(2, kNullBallot, std::nullopt)};
  SelectionDecision d = EnhancedFindWinningValue(votes, 3, 3, own, {});
  EXPECT_EQ(d.kind, SelectionKind::kPropose);
  EXPECT_TRUE(d.combined);
  EXPECT_EQ(d.combined_txns, 1);
  EXPECT_TRUE(d.value.ContainsTxn(MakeTxnId(0, 1)));
  EXPECT_TRUE(d.value.ContainsTxn(MakeTxnId(1, 1)));
}

TEST(EnhancedSelectionTest, MissingResponsesShrinkTheWindow) {
  // Same single vote, but only two of five acceptors responded: the three
  // silent ones could all have voted for the same value, so combination is
  // unsafe and the basic rule applies (adopt the max-ballot vote).
  const wal::LogEntry own = EntryFor(MakeTxnId(0, 1));
  const wal::LogEntry other = EntryFor(MakeTxnId(1, 1));
  std::vector<LastVote> votes = {Vote(0, Ballot{1, 1}, other),
                                 Vote(1, kNullBallot, std::nullopt)};
  SelectionDecision d = EnhancedFindWinningValue(votes, 2, 5, own, {});
  EXPECT_EQ(d.kind, SelectionKind::kPropose);
  EXPECT_FALSE(d.combined);
  EXPECT_EQ(d.value.Fingerprint(), other.Fingerprint());  // adopted
}

TEST(EnhancedSelectionTest, SameBallotMajorityIsLost) {
  const wal::LogEntry own = EntryFor(MakeTxnId(0, 1));
  const wal::LogEntry winner = EntryFor(MakeTxnId(1, 1));
  std::vector<LastVote> votes = {Vote(0, Ballot{2, 1}, winner),
                                 Vote(1, Ballot{2, 1}, winner),
                                 Vote(2, kNullBallot, std::nullopt)};
  SelectionDecision d = EnhancedFindWinningValue(votes, 3, 3, own, {});
  EXPECT_EQ(d.kind, SelectionKind::kLost);
  EXPECT_EQ(d.value.Fingerprint(), winner.Fingerprint());
}

TEST(EnhancedSelectionTest, OwnInsideMajorityValueIsNotLost) {
  // Someone else combined our transaction into the winning list: we are
  // winning, not losing — fall through to the basic rule and drive it.
  const wal::LogEntry own = EntryFor(MakeTxnId(0, 1), {}, {"a"});
  wal::LogEntry list = EntryFor(MakeTxnId(1, 1), {}, {"b"});
  list.txns.push_back(own.txns[0]);
  std::vector<LastVote> votes = {Vote(0, Ballot{2, 1}, list),
                                 Vote(1, Ballot{2, 1}, list),
                                 Vote(2, kNullBallot, std::nullopt)};
  SelectionDecision d = EnhancedFindWinningValue(votes, 3, 3, own, {});
  EXPECT_EQ(d.kind, SelectionKind::kPropose);
  EXPECT_EQ(d.value.Fingerprint(), list.Fingerprint());
}

TEST(EnhancedSelectionTest, MixedBallotMajorityIsNotTreatedAsDecided) {
  // Three votes for the same value at *different* ballots do not prove the
  // value was chosen (docs/ARCHITECTURE.md note D1, the soundness
  // refinement): the
  // selection must fall back to the basic rule rather than reporting kLost.
  const wal::LogEntry own = EntryFor(MakeTxnId(0, 1));
  const wal::LogEntry leading = EntryFor(MakeTxnId(1, 1));
  std::vector<LastVote> votes = {Vote(0, Ballot{1, 1}, leading),
                                 Vote(1, Ballot{2, 1}, leading),
                                 Vote(2, Ballot{3, 1}, leading)};
  SelectionDecision d = EnhancedFindWinningValue(votes, 3, 3, own, {});
  EXPECT_EQ(d.kind, SelectionKind::kPropose);
  EXPECT_EQ(d.value.Fingerprint(), leading.Fingerprint());
}

TEST(EnhancedSelectionTest, TwoCompetingVotesCombine) {
  // D=5, all responded, two distinct single-vote values: window holds
  // (1 + 0 <= 2), so all three transactions can share the position.
  const wal::LogEntry own = EntryFor(MakeTxnId(0, 1), {}, {"a"});
  const wal::LogEntry v1 = EntryFor(MakeTxnId(1, 1), {}, {"b"});
  const wal::LogEntry v2 = EntryFor(MakeTxnId(2, 1), {}, {"c"});
  std::vector<LastVote> votes = {Vote(0, Ballot{1, 1}, v1),
                                 Vote(1, Ballot{1, 2}, v2),
                                 Vote(2, kNullBallot, std::nullopt),
                                 Vote(3, kNullBallot, std::nullopt),
                                 Vote(4, kNullBallot, std::nullopt)};
  SelectionDecision d = EnhancedFindWinningValue(votes, 5, 5, own, {});
  EXPECT_EQ(d.kind, SelectionKind::kPropose);
  EXPECT_EQ(d.combined_txns, 2);
  EXPECT_EQ(d.value.txns.size(), 3u);
}

}  // namespace
}  // namespace paxoscp::paxos
