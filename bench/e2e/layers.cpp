#include <algorithm>
#include <any>
#include <cstdio>
#include <map>
#include <type_traits>

#include "core/checker.h"
#include "e2e.h"
#include "kvstore/store.h"
#include "txn/messages.h"
#include "wal/log.h"
#include "workload/generator.h"

namespace paxoscp::e2e {
namespace {

/// The service request behind an endpoint's request parameter, whatever
/// type the network hands to endpoints.
template <typename Request>
const txn::ServiceRequest& AsServiceRequest(const Request& request) {
  if constexpr (std::is_same_v<Request, std::any>) {
    return std::any_cast<const txn::ServiceRequest&>(request);
  } else {
    return request;
  }
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double Nanos(Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count();
}

/// Group names of a rep, in the order the runner creates them.
std::vector<std::string> GroupNames(const workload::RunnerConfig& config) {
  std::vector<std::string> groups;
  for (int g = 0; g < std::max(config.workload.num_groups, 1); ++g) {
    groups.push_back(workload::Generator::GroupName(config.workload, g));
  }
  return groups;
}

/// Round-trips every entry through Encode/Decode and recomputes its
/// fingerprint, each as one timed loop over the log.
void MeasureCodec(const std::string& group,
                  const std::map<LogPos, wal::LogEntry>& log,
                  LayerTotals* totals, Trace* trace,
                  std::vector<std::string>* errors) {
  std::vector<std::string> encoded;
  encoded.reserve(log.size());
  const Clock::time_point t0 = Clock::now();
  for (const auto& [pos, entry] : log) encoded.push_back(entry.Encode());
  const Clock::time_point t1 = Clock::now();
  std::vector<wal::LogEntry> decoded;
  decoded.reserve(log.size());
  for (const std::string& bytes : encoded) {
    Result<wal::LogEntry> entry = wal::LogEntry::Decode(bytes);
    if (!entry.ok()) {
      errors->push_back("[" + group + "] decode failed: " +
                        entry.status().ToString());
      return;
    }
    decoded.push_back(*std::move(entry));
  }
  const Clock::time_point t2 = Clock::now();
  std::vector<uint64_t> fingerprints;
  fingerprints.reserve(log.size());
  for (const auto& [pos, entry] : log) {
    fingerprints.push_back(entry.Fingerprint());
  }
  const Clock::time_point t3 = Clock::now();
  trace->Span("wal.encode", t0, t1);
  trace->Span("wal.decode", t1, t2);
  trace->Span("wal.fingerprint", t2, t3);

  size_t i = 0;
  for (const auto& [pos, entry] : log) {
    if (!(decoded[i] == entry) ||
        decoded[i].Fingerprint() != fingerprints[i]) {
      errors->push_back("[" + group + "] codec round trip changed entry " +
                        std::to_string(pos));
    }
    totals->encoded_bytes += encoded[i].size();
    totals->records += entry.txns.size();
    ++i;
  }
  totals->entries += log.size();
  totals->encode_ns += Nanos(t1 - t0);
  totals->decode_ns += Nanos(t2 - t1);
  totals->fingerprint_ns += Nanos(t3 - t2);
}

/// Replays the merged log into a fresh store and WAL, then serves every
/// recorded read again at its read position: the replayed provenance must
/// match what the transaction observed during the run.
void MeasureReplay(const std::string& group, const std::string& row,
                   const kvstore::AttributeMap& initial_row,
                   const std::map<LogPos, wal::LogEntry>& log,
                   LayerTotals* totals, Trace* trace,
                   std::vector<std::string>* errors) {
  kvstore::MultiVersionStore store;
  wal::WriteAheadLog wal(&store, group);
  if (Status s = wal.LoadInitialRow(row, initial_row); !s.ok()) {
    errors->push_back("[" + group + "] replay load: " + s.ToString());
    return;
  }
  const Clock::time_point t0 = Clock::now();
  for (const auto& [pos, entry] : log) {
    if (Status s = wal.SetEntry(pos, entry); !s.ok()) {
      errors->push_back("[" + group + "] replay SetEntry: " + s.ToString());
      return;
    }
  }
  const Clock::time_point t1 = Clock::now();
  const LogPos last = log.empty() ? 0 : log.rbegin()->first;
  if (Status s = wal.ApplyThrough(last); !s.ok()) {
    errors->push_back("[" + group + "] replay ApplyThrough: " + s.ToString());
    return;
  }
  const Clock::time_point t2 = Clock::now();
  uint64_t reads = 0;
  uint64_t mismatches = 0;
  for (const auto& [pos, entry] : log) {
    for (const wal::TxnRecord& record : entry.txns) {
      for (const wal::ReadRecord& read : record.reads) {
        if (wal::IsReservedAttribute(read.item.attribute)) continue;
        const wal::ItemRead served = wal.ReadItem(read.item, record.read_pos);
        ++reads;
        if (served.writer != read.observed_writer ||
            served.written_pos != read.observed_pos) {
          ++mismatches;
        }
      }
    }
  }
  const Clock::time_point t3 = Clock::now();
  trace->Span("wal.set_entry", t0, t1);
  trace->Span("wal.apply", t1, t2);
  trace->Span("wal.read_item", t2, t3);
  if (mismatches > 0) {
    errors->push_back("[" + group + "] replayed reads disagree with the run: " +
                      std::to_string(mismatches) + " of " +
                      std::to_string(reads));
  }
  totals->set_entry_us += Micros(t1 - t0);
  totals->apply_us += Micros(t2 - t1);
  totals->read_item_ns += Nanos(t3 - t2);
  totals->reads_replayed += reads;
}

}  // namespace

// --------------------------------------------------------- JSON, Trace

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    out.push_back(c);
  }
  return out + "\"";
}

double Trace::Since(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

void Trace::Span(std::string_view name, Clock::time_point start,
                 Clock::time_point end, std::string_view args_json) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                Since(start), Micros(end - start));
  std::string event = "{\"name\":" + JsonString(name) + "," + buf;
  if (!args_json.empty()) {
    event += ",\"args\":";
    event += args_json;
  }
  event += "}";
  events_.push_back(std::move(event));
}

void Trace::Counter(std::string_view name, Clock::time_point at,
                    const std::vector<std::pair<std::string, double>>& values) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"ph\":\"C\",\"pid\":1,\"ts\":%.3f",
                Since(at));
  std::string event = "{\"name\":" + JsonString(name) + "," + buf +
                      ",\"args\":{";
  for (size_t i = 0; i < values.size(); ++i) {
    char value[48];
    std::snprintf(value, sizeof(value), "%.17g", values[i].second);
    event += (i == 0 ? "" : ",") + JsonString(values[i].first) + ":" + value;
  }
  event += "}}";
  events_.push_back(std::move(event));
}

bool Trace::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < events_.size(); ++i) {
    std::fprintf(f, "%s%s\n", events_[i].c_str(),
                 i + 1 < events_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------- LayerTotals

void LayerTotals::CountRequest(std::string_view name, bool wan) {
  ++(wan ? wan_requests : local_requests);
  for (RequestCount& r : requests) {
    if (r.name == name) {
      ++r.count;
      return;
    }
  }
  requests.push_back(RequestCount{name, 1});
}

uint64_t LayerTotals::Requests(std::string_view name) const {
  for (const RequestCount& r : requests) {
    if (r.name == name) return r.count;
  }
  return 0;
}

void InstallCountingEndpoints(core::Cluster* cluster, LayerTotals* totals) {
  for (DcId dc = 0; dc < cluster->num_datacenters(); ++dc) {
    txn::TransactionService* service = cluster->service(dc);
    // Two pointers, like the cluster's own endpoint, so std::function keeps
    // the lambda inline and the network's per-request copy of the handler
    // does not allocate: allocation counts stay those of an untraced run.
    cluster->network()->RegisterEndpoint(
        dc, [service, totals](DcId from, const auto* request) {
          totals->CountRequest(txn::RequestName(AsServiceRequest(*request)),
                               from != service->dc());
          return service->Handle(from, request);
        });
  }
}

// ------------------------------------------------------------- analysis

void AnalyzeFinishedRep(core::Cluster* cluster, const Rep& rep,
                        const workload::RunStats& stats, LayerTotals* totals,
                        Trace* trace, std::vector<std::string>* errors) {
  const workload::RunnerConfig& config = rep.runner;
  const std::vector<std::string> groups = GroupNames(config);

  // Single-group outcomes leave the group implied; name it so the re-run
  // also cross-checks client outcomes against the log.
  std::vector<core::ClientOutcome> outcomes = stats.outcomes;
  if (groups.size() == 1) {
    for (core::ClientOutcome& o : outcomes) o.group = groups.front();
  }
  core::Checker checker(cluster);
  const Clock::time_point c0 = Clock::now();
  const core::CheckReport full = checker.CheckAllCross(groups, outcomes);
  const Clock::time_point c1 = Clock::now();
  trace->Span("core.CheckAllCross", c0, c1);
  totals->check_us += Micros(c1 - c0);
  if (!full.ok) errors->push_back("checker re-run: " + full.ToString());

  for (const std::string& group : groups) {
    // The row as loaded before the run: the store's version at position 0
    // (the runs collect no garbage, so it is still there).
    const std::string key =
        cluster->service(0)->GroupLog(group)->DataKey(config.workload.row);
    const Result<kvstore::RowVersion> loaded = cluster->store(0)->Read(key, 0);
    if (!loaded.ok()) {
      errors->push_back("[" + group + "] initial row: " +
                        loaded.status().ToString());
      continue;
    }
    const kvstore::AttributeMap& initial_row = *loaded->attributes;
    std::map<LogPos, wal::LogEntry> log;
    core::CheckReport report;
    const Clock::time_point r0 = Clock::now();
    report = checker.CheckReplication(group, &log);
    const Clock::time_point r1 = Clock::now();
    core::Checker::CheckOneCopySerializability(log, &report);
    const Clock::time_point r2 = Clock::now();
    core::Checker::CheckSerializationGraph(log, &report);
    const Clock::time_point r3 = Clock::now();
    trace->Span("core.CheckReplication", r0, r1);
    trace->Span("core.CheckOneCopySerializability", r1, r2);
    trace->Span("core.CheckSerializationGraph", r2, r3);
    totals->replication_us += Micros(r1 - r0);
    totals->l3_us += Micros(r2 - r1);
    totals->mvsg_us += Micros(r3 - r2);
    if (!report.ok) {
      errors->push_back("[" + group + "] sub-checks: " + report.ToString());
    }
    MeasureCodec(group, log, totals, trace, errors);
    MeasureReplay(group, config.workload.row, initial_row, log, totals, trace,
                  errors);
  }

  const Clock::time_point k0 = Clock::now();
  for (DcId dc = 0; dc < cluster->num_datacenters(); ++dc) {
    const kvstore::MultiVersionStore* store = cluster->store(dc);
    for (const std::string& key : store->KeysWithPrefix("")) {
      ++totals->keys;
      totals->versions += store->VersionCount(key);
    }
    totals->learns += cluster->service(dc)->learn_instances();
    totals->reads_served += cluster->service(dc)->reads_served();
  }
  trace->Span("kvstore.scan", k0, Clock::now());
}

}  // namespace paxoscp::e2e
