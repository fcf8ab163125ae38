#include "perfbench/src/trace.h"

#include <cstring>
#include <fstream>

namespace perfbench {

std::map<std::string, SpanTotals> Aggregate(const std::vector<SpanLog>& logs) {
  std::map<std::string, SpanTotals> out;
  for (const SpanLog& log : logs) {
    const std::vector<SpanLog::Span>& spans = log.spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const SpanLog::Span& s : spans) {
      if (s.parent >= 0 && s.end_ns != 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanLog::Span& s = spans[i];
      if (s.end_ns == 0) continue;  // never closed
      SpanTotals& t = out[s.name];
      const int64_t dur = s.end_ns - s.start_ns;
      ++t.calls;
      t.total_us += static_cast<double>(dur) / 1e3;
      t.self_us += static_cast<double>(dur - child_ns[i]) / 1e3;
    }
  }
  return out;
}

std::vector<double> RootDurationsUs(const std::vector<SpanLog>& logs,
                                    const char* name) {
  std::vector<double> out;
  for (const SpanLog& log : logs) {
    for (const SpanLog::Span& s : log.spans()) {
      if (s.parent < 0 && s.end_ns != 0 && std::strcmp(s.name, name) == 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  return out;
}

bool WriteSpans(const std::vector<SpanLog>& logs, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread,index,name,start_ns,end_ns,parent,txn\n";
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const std::vector<SpanLog::Span>& spans = logs[t].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanLog::Span& s = spans[i];
      out << t << ',' << i << ',' << s.name << ',' << s.start_ns << ','
          << s.end_ns << ',' << s.parent << ',' << s.txn << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
