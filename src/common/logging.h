// Minimal leveled logger. Protocol-level traces are invaluable when
// debugging distributed interleavings, but must cost nothing when disabled,
// so PAXOSCP_LOG checks LogEnabled(level) before it builds the line.
#pragma once

#include <sstream>
#include <string>

namespace paxoscp {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Global log level; defaults to kWarn so tests and benches stay quiet.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();
bool LogEnabled(LogLevel level);

/// Writes one line to stderr, prefixed with the level name.
void LogMessage(LogLevel level, const std::string& msg);

namespace logging_internal {

/// Builds a log line from stream-style arguments, then emits it.
class LineBuilder {
 public:
  explicit LineBuilder(LogLevel level) : level_(level) {}
  ~LineBuilder() { LogMessage(level_, os_.str()); }

  template <typename T>
  LineBuilder& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace logging_internal
}  // namespace paxoscp

/// Usage: PAXOSCP_LOG(kDebug) << "proposer " << id << " promoted";
#define PAXOSCP_LOG(level)                                        \
  if (!::paxoscp::LogEnabled(::paxoscp::LogLevel::level)) {       \
  } else                                                          \
    ::paxoscp::logging_internal::LineBuilder(::paxoscp::LogLevel::level)
