#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string_view>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const char* name, int parent, std::uint64_t request) {
  spans_.push_back(Span{name, now_ns(), 0, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : cover) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    t.count += 1;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

double closure_ratio(const std::vector<Span>& spans,
                     const std::string& decomposition,
                     const std::string& whole) {
  std::int64_t parts = 0;
  std::int64_t total = 0;
  for (const Span& s : spans) {
    if (std::string_view(s.name).rfind(whole, 0) == 0) total += s.end_ns - s.start_ns;
    if (s.parent >= 0 &&
        spans[static_cast<std::size_t>(s.parent)].name == std::string_view(decomposition)) {
      parts += s.end_ns - s.start_ns;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(parts) / static_cast<double>(total);
}

}  // namespace perfbench
