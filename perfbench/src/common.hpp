// Shared plumbing of the perfbench binary: run options, the workload
// configuration handed down from config.json, and the result record.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One workload's configuration: the flat key=value section of
/// config.json that run.py passes down as `k=v;k=v`. Getters throw on a
/// missing or malformed key, so config.json is the only source of
/// workload settings.
class Config {
 public:
  static Config parse(const std::string& text);

  std::int64_t get_int(const std::string& key) const;
  double get_double(const std::string& key) const;
  const std::string& get_string(const std::string& key) const;
  /// Comma-separated list.
  std::vector<std::string> get_list(const std::string& key) const;
  std::vector<int> get_int_list(const std::string& key) const;

  const std::map<std::string, std::string>& values() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  Config config;
  /// Scratch directory for sockets, logs and checkpoints (relative to
  /// the checkout root, so socket paths stay short).
  std::string run_dir;
  /// Where results and spans are written.
  std::string out_dir;
  std::string mbusd;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `failed` counts error replies of any code,
/// lost replies, timeouts, quarantined or abandoned points and output
/// mismatches; any mismatch also clears `correct`.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> mismatches;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void mismatch(const std::string& what) {
    correct = false;
    failed += 1;
    if (mismatches.size() < 20) mismatches.push_back(what);
  }
};

Result run_serve(const Options& options);
Result run_fleet(const Options& options);
Result run_campaign(const Options& options);

/// Returns an empty string when every self-test passes, else the first
/// failure.
std::string run_self_tests();

/// Peak resident set (MB) of the largest child process reaped so far.
double children_peak_rss_mb();

/// Monotonic seconds (steady clock).
double now_s();

/// `value` as %.17g: every digit, and the bit-exact form the service's
/// replies use.
std::string fmt_g17(double value);

/// Host and build fingerprint as a JSON object: nproc, CPU model,
/// compiler, build type, MBUS_NATIVE, MBUS_NO_OBS.
std::string host_fingerprint_json();

}  // namespace perfbench
