// Self-tests of the benchmark's own arithmetic, run at the start of
// every invocation: a wrong percentile or span sum would silently skew
// every figure, so the run refuses to start instead.
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

std::string check(bool ok, const std::string& what) { return ok ? "" : what; }

std::string test_percentile() {
  const std::vector<double> v = {35, 20, 50, 15, 40};
  std::string e;
  if (!(e = check(percentile(v, 30) == 20, "p30 of 5 is the 2nd rank")).empty()) return e;
  if (!(e = check(percentile(v, 40) == 20, "p40 of 5 is the 2nd rank")).empty()) return e;
  if (!(e = check(percentile(v, 50) == 35, "p50 of 5 is the 3rd rank")).empty()) return e;
  if (!(e = check(percentile(v, 100) == 50, "p100 is the maximum")).empty()) return e;
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  if (!(e = check(percentile(hundred, 99) == 99, "p99 of 1..100 is 99")).empty()) return e;
  if (!(e = check(percentile({1, 2, kInf}, 50) == 2, "a miss stays in the tail")).empty()) {
    return e;
  }
  if (!(e = check(std::isinf(percentile({1, 2, kInf}, 99)), "a miss is the p99")).empty()) {
    return e;
  }
  const auto refused = [](const std::vector<double>& samples, double p) {
    try {
      (void)checked_tail(samples, p);
      return false;
    } catch (const std::runtime_error&) {
      return true;
    }
  };
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  if (!(e = check(checked_tail(thousand, 99) == 990, "p99 over 1000 leaves 10 beyond")).empty()) {
    return e;
  }
  thousand.pop_back();
  if (!(e = check(refused(thousand, 99), "p99 over 999 leaves 9 beyond")).empty()) return e;
  if (!(e = check(refused(hundred, 95), "p95 over 100 leaves 5 beyond")).empty()) return e;
  if (!(e = check(checked_tail(hundred, 90) == 90, "p90 over 100 leaves 10 beyond")).empty()) {
    return e;
  }
  std::vector<double> stalled;
  for (int part = 0; part < 3; ++part) {
    for (int i = 1; i <= 20; ++i) stalled.push_back(part == 1 ? kInf : i);
  }
  return check(median_of(split(stalled, 3), 50) == 10, "one spoiled part moves no median");
}

std::string test_ladder() {
  std::vector<int> ran;
  const auto capacity = [&ran](int cap) {
    return [&ran, cap](int k) {
      ran.push_back(k);
      return k <= cap;
    };
  };
  const auto always = [] { return true; };
  if (climb_ladder(2, 2, 20, capacity(7), always) != 7 ||
      ran != std::vector<int>{2, 4, 6, 8, 7}) {
    return "ladder refines to the skipped rung that passes";
  }
  ran.clear();
  if (climb_ladder(2, 2, 20, capacity(6), always) != 6) {
    return "ladder keeps the last pass when the skipped rung fails";
  }
  ran.clear();
  if (climb_ladder(2, 2, 20, capacity(1), always) != 1 || ran != std::vector<int>{2, 1}) {
    return "ladder bisects below a failing first rung";
  }
  ran.clear();
  if (climb_ladder(2, 2, 20, capacity(-5), always) != -1) {
    return "ladder reports no goodput when nothing passes";
  }
  ran.clear();
  if (climb_ladder(0, 4, 40, capacity(13), always) != 13 ||
      ran != std::vector<int>{0, 4, 8, 12, 16, 14, 13}) {
    return "ladder bisects a wide stride";
  }
  ran.clear();
  if (climb_ladder(2, 2, 10, capacity(99), always) != 10) return "ladder stops at its top";
  ran.clear();
  int budget = 2;
  if (climb_ladder(2, 2, 20, capacity(99), [&budget] { return budget-- > 0; }) != 4) {
    return "ladder stops when the budget runs out";
  }
  if (std::fabs(ladder_rate(1000, 4, 8) - 4000) > 1e-9) return "ladder rate doubles per 4 rungs";
  return "";
}

std::string test_spans() {
  const std::vector<Span> spans = {
      {"parent", 0, 100, -1, 1},  {"a", 10, 30, 0, 1}, {"b", 20, 50, 0, 1},
      {"c", 60, 70, 0, 1},        {"d", 90, 120, 0, 1}, {"a.child", 12, 18, 1, 1}};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  if (self[0] != 40) return "self time subtracts the union of children, clipped";
  if (self[1] != 14) return "self time of a span with one child";
  if (self[3] != 10) return "self time of a leaf is its duration";
  const std::vector<Span> closure = {
      {"service.execute_request.bandwidth", 0, 100, -1, 1},
      {"replay.execute_request", 100, 200, -1, 1},
      {"topology.make", 100, 150, 1, 1},
      {"core.evaluate", 150, 195, 1, 1}};
  if (std::fabs(closure_ratio(closure, "replay.execute_request", "service.execute_request.") -
                0.95) > 1e-12) {
    return "closure is the decomposition's children over the whole";
  }
  const auto totals = totals_by_name(spans);
  if (totals.at("parent").mean_self_us() != 0.04) return "per-name self time totals";
  return "";
}

std::string test_config() {
  const Config c = Config::parse("a=1;b=x,y;c=2.5");
  if (c.get_int("a") != 1 || c.get_list("b").size() != 2 || c.get_double("c") != 2.5) {
    return "config parse";
  }
  return "";
}

}  // namespace

std::string run_self_tests() {
  for (const auto& test : {test_percentile, test_ladder, test_spans, test_config}) {
    const std::string failure = test();
    if (!failure.empty()) return failure;
  }
  return "";
}

}  // namespace perfbench
