#include "txn/txn.h"

#include <utility>

#include "txn/client.h"
#include "txn/cross.h"

namespace paxoscp::txn {

namespace {

sim::Coro<Result<kvstore::AttributeMap>> FailedReadRow(Status status) {
  co_return Result<kvstore::AttributeMap>(std::move(status));
}

}  // namespace

namespace internal {

Status InertError(const char* op) {
  return Status::FailedPrecondition(std::string("inert transaction handle: ") +
                                    op + " requires an active transaction");
}

sim::Coro<Result<std::string>> FailedRead(Status status) {
  co_return Result<std::string>(std::move(status));
}

}  // namespace internal

using internal::FailedRead;
using internal::InertError;

const char* OutcomeName(TxnOutcome outcome) {
  switch (outcome) {
    case TxnOutcome::kCommitted: return "committed";
    case TxnOutcome::kReadOnly: return "read-only";
    case TxnOutcome::kConflict: return "conflict";
    case TxnOutcome::kUnavailable: return "unavailable";
    case TxnOutcome::kUnknownOutcome: return "unknown-outcome";
  }
  return "?";
}

TxnOutcome ClassifyCommit(const CommitResult& result) {
  if (result.read_only) return TxnOutcome::kReadOnly;
  if (result.committed) return TxnOutcome::kCommitted;
  if (result.status.IsAborted()) return TxnOutcome::kConflict;
  return TxnOutcome::kUnknownOutcome;
}

// ------------------------------------------------------------------- Txn

TxnId Txn::id() const { return active() ? state_->id : 0; }

LogPos Txn::read_pos() const { return active() ? state_->read_pos : 0; }

const std::string& Txn::group() const {
  static const std::string kEmpty;
  return active() ? state_->group : kEmpty;
}

size_t Txn::read_set_size() const {
  return active() ? state_->reads.size() : 0;
}

sim::Coro<Result<std::string>> Txn::Read(std::string row,
                                         std::string attribute) {
  if (!Usable()) return FailedRead(InertError("Read"));
  if (wal::IsReservedAttribute(attribute)) {
    return FailedRead(wal::ReservedAttributeError());
  }
  // Forwarded (not wrapped in a member coroutine): the returned awaitable
  // binds the heap-stable TxnState, never `this`, so moving the handle
  // between call and await is harmless.
  return client_->ReadItem(state_.get(), std::move(row), std::move(attribute));
}

sim::Coro<Result<kvstore::AttributeMap>> Txn::ReadRow(std::string row) {
  if (!Usable()) return FailedReadRow(InertError("ReadRow"));
  return client_->ReadRowItems(state_.get(), std::move(row));
}

Status Txn::Write(const std::string& row, const std::string& attribute,
                  std::string value) {
  if (!Usable()) return InertError("Write");
  if (wal::IsReservedAttribute(attribute)) {
    return wal::ReservedAttributeError();
  }
  state_->writes[wal::ItemId{row, attribute}] = std::move(value);
  return Status::OK();
}

Status Txn::WriteRow(const std::string& row,
                     const kvstore::AttributeMap& attributes) {
  if (!Usable()) return InertError("WriteRow");
  for (const auto& [attribute, value] : attributes) {
    if (wal::IsReservedAttribute(attribute)) {
      return wal::ReservedAttributeError();
    }
  }
  for (const auto& [attribute, value] : attributes) {
    state_->writes[wal::ItemId{row, attribute}] = value;
  }
  return Status::OK();
}

sim::Coro<CommitResult> Txn::Commit() {
  if (!Usable()) {
    return internal::FailedCommit<CommitResult>(InertError("Commit"));
  }
  return client_->CommitTxn(StartCommit());
}

// --------------------------------------------------------------- Session

DcId Session::home() const {
  assert(client_ != nullptr);
  return client_->home();
}

sim::Coro<Txn> Session::Begin(std::string group) {
  if (client_ == nullptr) {
    assert(false && "Begin on an invalid (default) Session");
    return FailedBegin<Txn>(Status::FailedPrecondition("invalid session"));
  }
  return client_->BeginTxn(std::move(group));
}

template <typename CommitT, typename H, typename Groups>
sim::Coro<RetryResult<CommitT>> Session::RunWithRetry(
    sim::Coro<H> (TransactionClient::*begin)(Groups), Groups groups,
    std::function<sim::Coro<Status>(H*)> body, RetryPolicy retry) {
  RetryResult<CommitT> result;
  if (client_ == nullptr) {
    assert(false && "RunTransaction on an invalid (default) Session");
    result.attempts = 1;
    result.status = Status::FailedPrecondition("invalid session");
    co_return result;
  }
  sim::Simulator* sim = client_->simulator();
  const TimeMicros deadline_at =
      retry.deadline > 0 ? sim->Now() + retry.deadline : 0;
  for (;;) {
    ++result.attempts;
    H txn = co_await (client_->*begin)(groups);
    if (!txn.active()) {
      result.outcome = TxnOutcome::kUnavailable;
      result.status = txn.begin_status();
      co_return result;
    }
    Status body_status = co_await body(&txn);
    if (!body_status.ok()) {
      // Body errors (failed reads, application rejection) abort the
      // attempt; the transaction certainly did not commit.
      txn.Abort();
      result.outcome = TxnOutcome::kUnavailable;
      result.status = std::move(body_status);
      co_return result;
    }
    result.commit = co_await txn.Commit();
    result.status = result.commit.status;
    result.outcome = ClassifyCommit(result.commit);
    // Only conflicts are retried: kUnknownOutcome may already be decided
    // (a retry could commit twice), kUnavailable cannot make progress.
    if (result.outcome != TxnOutcome::kConflict) co_return result;
    if (result.attempts >= retry.max_attempts) co_return result;
    const TimeMicros backoff =
        client_->RandomBackoffIn(retry.backoff_min, retry.backoff_max);
    if (deadline_at != 0 && sim->Now() + backoff >= deadline_at) {
      co_return result;
    }
    co_await sim::SleepFor(sim, backoff);
  }
}

sim::Coro<TxnResult> Session::RunTransaction(std::string group, TxnBody body,
                                             RetryPolicy retry) {
  return RunWithRetry<CommitResult>(&TransactionClient::BeginTxn,
                                    std::move(group), std::move(body), retry);
}

sim::Coro<CrossTxnResult> Session::RunTransaction(
    std::vector<std::string> groups, CrossTxnBody body, RetryPolicy retry) {
  return RunWithRetry<CrossCommitResult>(&TransactionClient::BeginCrossTxn,
                                         std::move(groups), std::move(body),
                                         retry);
}

}  // namespace paxoscp::txn
