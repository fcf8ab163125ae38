#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recording for the traced run. The benchmark opens a span
// around each call it makes into a layer's public functions; spans of one
// transaction share its id, and nesting (one thread, strictly nested
// calls) gives each span its parent. Nothing here runs in the untraced
// runs that produce the end-to-end metrics.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One thread's spans. Not thread-safe: each client thread owns one.
class SpanLog {
 public:
  struct Span {
    const char* name;  // string literal
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;    // index into this log, -1 for a root
    uint64_t txn;
  };

  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// False once the log is full; the caller then stops tracing new
  /// transactions (an open transaction may still finish).
  bool accepting() const { return spans_.size() + 64 <= capacity_; }

  int32_t Open(const char* name, uint64_t txn) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, NowNanos(), 0, parent, txn});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void Close() {
    spans_[static_cast<std::size_t>(open_.back())].end_ns = NowNanos();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Opens a span for its scope; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t txn) : log_(log) {
    if (log_ != nullptr) log_->Open(name, txn);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Per span name: calls, summed duration, and summed self time (duration
/// minus the time its child spans cover).
struct SpanTotals {
  uint64_t calls = 0;
  double total_us = 0;
  double self_us = 0;
  double MeanSelfUs() const { return calls == 0 ? 0 : self_us / calls; }
};

std::map<std::string, SpanTotals> Aggregate(const std::vector<SpanLog>& logs);

/// Durations (us) of every root span named `name`.
std::vector<double> RootDurationsUs(const std::vector<SpanLog>& logs,
                                    const char* name);

/// Writes every span as CSV (thread, index, name, start_ns, end_ns,
/// parent, txn). Returns false when the file cannot be written.
bool WriteSpans(const std::vector<SpanLog>& logs, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
