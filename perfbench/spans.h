// In-memory span log for the benchmark's traced run. Spans are recorded
// from the benchmark's own files, around the public calls each layer is
// made of (see traced.h); nothing inside the simulator is instrumented.
// Every span carries its name, start, end, parent span, op id and round,
// so a layer's self time (its duration minus the union of its children)
// can be summed per round after the run, and the whole log can be written
// out as a Chrome trace when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // since the log's epoch
  std::int64_t end_ns = 0;
  int parent = -1;  // index of the enclosing span, -1 for a root
  int op = -1;      // the op the span belongs to, -1 for round-level work
  int round = -1;
  int thread = 0;   // small per-thread index (Chrome trace lane)
};

// An exact work count recorded at a layer boundary (bytes assembled,
// instructions retired, ...), attributed like a span.
struct Count {
  const char* name = "";
  std::uint64_t value = 0;
  int op = -1;
  int round = -1;
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  int Open(const char* name, int parent, int op, int round);
  void Close(int id);
  void AddCount(const char* name, std::uint64_t value, int op, int round);

  // Per round (index 0 .. rounds-1), each span name's summed self time in
  // milliseconds (a span's duration minus the part of it covered by its
  // children, which may run on other threads) and summed duration, and
  // each count's sum. Call after every span has closed.
  struct Times {
    std::vector<double> self_ms;
    std::vector<double> duration_ms;
  };
  std::map<std::string, Times> TimesPerRound(int rounds) const;
  std::map<std::string, std::vector<std::uint64_t>> CountsPerRound(
      int rounds) const;

  // The log as Chrome trace_event JSON (one "X" event per span; the span
  // id, parent, op and round ride in args) plus the counts.
  roload::Status WriteChromeTrace(const std::string& path) const;

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::vector<Count> counts_;  // guarded by mu_
};

// Where the layer calls on this thread record to: the log (null = tracing
// off, every ScopedSpan is a no-op), the span new spans nest under, and
// the op and round they belong to.
struct SpanContext {
  SpanLog* log = nullptr;
  int parent = -1;
  int op = -1;
  int round = -1;
};

SpanContext& CurrentContext();

// Installs a context on this thread for the guard's lifetime (campaign
// workers adopt the pass span as parent and their cell as op).
class ContextGuard {
 public:
  explicit ContextGuard(const SpanContext& context);
  ~ContextGuard();
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  SpanContext saved_;
};

// Records one span around its scope; nested ScopedSpans on the same thread
// become its children.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_ = -1;
  int saved_parent_ = -1;
};

// Adds a count to the current op (no-op with tracing off).
void RecordCount(const char* name, std::uint64_t value);

// Records "<name>" as the KiB of memory this thread faulted in during its
// scope (minor page faults x page size): the resident memory a constructor
// or loader touched. Per-thread, so campaign workers do not see each
// other's faults.
class ScopedRssCount {
 public:
  explicit ScopedRssCount(const char* name);
  ~ScopedRssCount();
  ScopedRssCount(const ScopedRssCount&) = delete;
  ScopedRssCount& operator=(const ScopedRssCount&) = delete;

 private:
  const char* name_;
  long faults_ = 0;
};

}  // namespace perfbench
