#include "spans.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <utility>

#include "support/json.h"

namespace perfbench {
namespace {

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

long ThreadMinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

}  // namespace

int SpanLog::Open(const char* name, int parent, int op, int round) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = op;
  span.round = round;
  span.thread = ThreadIndex();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::Close(int id) {
  const std::int64_t end =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

void SpanLog::AddCount(const char* name, std::uint64_t value, int op,
                       int round) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.push_back(Count{name, value, op, round});
}

std::map<std::string, SpanLog::Times> SpanLog::TimesPerRound(
    int rounds) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, Times> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.round < 0 || span.round >= rounds) continue;
    // Union of the child intervals, clipped to the span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    Times& times = out[span.name];
    times.self_ms.resize(static_cast<std::size_t>(rounds), 0.0);
    times.duration_ms.resize(static_cast<std::size_t>(rounds), 0.0);
    const auto round = static_cast<std::size_t>(span.round);
    const std::int64_t duration = span.end_ns - span.start_ns;
    times.self_ms[round] += static_cast<double>(duration - covered) / 1e6;
    times.duration_ms[round] += static_cast<double>(duration) / 1e6;
  }
  return out;
}

std::map<std::string, std::vector<std::uint64_t>> SpanLog::CountsPerRound(
    int rounds) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<std::uint64_t>> out;
  for (const Count& count : counts_) {
    if (count.round < 0 || count.round >= rounds) continue;
    auto& per_round = out[count.name];
    per_round.resize(static_cast<std::size_t>(rounds), 0);
    per_round[static_cast<std::size_t>(count.round)] += count.value;
  }
  return out;
}

roload::Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  roload::JsonWriter json(/*pretty=*/false);
  json.BeginObject();
  json.KV("schema", "perfbench.spans.v1");
  json.Key("traceEvents").BeginArray();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    json.BeginObject();
    json.KV("name", span.name);
    json.KV("ph", "X");
    json.KV("pid", 1);
    json.KV("tid", span.thread);
    json.KV("ts", static_cast<std::uint64_t>(span.start_ns / 1000));
    json.KV("dur",
            static_cast<std::uint64_t>((span.end_ns - span.start_ns) / 1000));
    json.Key("args").BeginObject();
    json.KV("id", static_cast<int>(i));
    json.KV("parent", span.parent);
    json.KV("op", span.op);
    json.KV("round", span.round);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Key("counts").BeginArray();
  for (const Count& count : counts_) {
    json.BeginObject();
    json.KV("name", count.name);
    json.KV("value", count.value);
    json.KV("op", count.op);
    json.KV("round", count.round);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return roload::Status::Internal("cannot write " + path);
  out << json.str() << '\n';
  out.close();
  if (!out) return roload::Status::Internal("write failed: " + path);
  return roload::Status::Ok();
}

SpanContext& CurrentContext() {
  thread_local SpanContext context;
  return context;
}

ContextGuard::ContextGuard(const SpanContext& context)
    : saved_(CurrentContext()) {
  CurrentContext() = context;
}

ContextGuard::~ContextGuard() { CurrentContext() = saved_; }

ScopedSpan::ScopedSpan(const char* name) {
  SpanContext& context = CurrentContext();
  if (context.log == nullptr) return;
  saved_parent_ = context.parent;
  id_ = context.log->Open(name, context.parent, context.op, context.round);
  context.parent = id_;
}

ScopedSpan::~ScopedSpan() {
  if (id_ < 0) return;
  SpanContext& context = CurrentContext();
  context.log->Close(id_);
  context.parent = saved_parent_;
}

void RecordCount(const char* name, std::uint64_t value) {
  const SpanContext& context = CurrentContext();
  if (context.log == nullptr) return;
  context.log->AddCount(name, value, context.op, context.round);
}

ScopedRssCount::ScopedRssCount(const char* name) : name_(name) {
  if (CurrentContext().log != nullptr) faults_ = ThreadMinorFaults();
}

ScopedRssCount::~ScopedRssCount() {
  if (CurrentContext().log == nullptr) return;
  const long faults = ThreadMinorFaults() - faults_;
  const long page_kib = sysconf(_SC_PAGESIZE) / 1024;
  RecordCount(name_, static_cast<std::uint64_t>(faults > 0 ? faults : 0) *
                         static_cast<std::uint64_t>(page_kib));
}

}  // namespace perfbench
