// In-memory spans recorded by the benchmark around its calls into the
// program's public functions (nothing inside the program is traced).
//
// A span has a name, start and end (steady clock, ns), the index of the
// span that caused it (-1 for a root) and the id of the request it
// belongs to. Spans stay in memory until the run ends, then are written
// out as JSON lines and reduced to per-layer self times.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

/// Span names are string literals (static storage), so recording a span
/// allocates nothing beyond the vector slot.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

class Tracer {
 public:
  int open(const char* name, int parent, std::uint64_t request);
  void close(int index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op, which is how the untraced
/// replay runs the very same code path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent,
             std::uint64_t request)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const noexcept { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

/// Writes one JSON object per span to `path`; false on I/O failure.
bool write_spans(const std::vector<Span>& spans, const std::string& path);

/// Self time of every span (ns): its duration minus the part of its
/// interval covered by the union of its children's intervals.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Per span name: count, total duration and total self time (ns). The
/// per-layer figures are mean self times.
struct SpanTotals {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  double mean_self_us() const {
    return count == 0 ? 0.0 : static_cast<double>(self_ns) / 1e3 / static_cast<double>(count);
  }
};
std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& spans);

/// Closure of a decomposition: the summed durations of the children of
/// every span named `decomposition`, over the summed durations of every
/// span whose name starts with `whole`. Near 1 when the timed children account for the
/// whole call; 0 when there is nothing to compare.
double closure_ratio(const std::vector<Span>& spans,
                     const std::string& decomposition,
                     const std::string& whole);

}  // namespace perfbench
