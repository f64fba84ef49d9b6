// perfbench: the repository benchmark binary (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --config 'k=v;k=v' [--run-dir d] [--out-dir d]
//
// Runs one workload from the seed, checks every output against the
// in-process library, prints each metric as `metric <name> <value>
// <unit>` and, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// A run with a correctness mismatch reports correct=false and exits 1
// after that line. Bad arguments or a failing self-test exit 2 without a
// result line.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace {

using namespace perfbench;

std::string result_json(const Result& result) {
  std::string out = std::string("{\"correct\": ") +
                    (result.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(result.attempted) +
                    ", \"failed\": " + std::to_string(result.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + fmt_g17(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

// The metric lists of BENCHMARK.json, in its order. Every run reports
// every metric of its kind (run.py checks the names against the file).
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},          {"req_p50_us", "us"},   {"req_tail_us", "us"},
    {"work_per_s", "1/s"},     {"peak_rss_mb", "MB"}};
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"service.protocol.parse_request_us", "us"},
    {"service.protocol.format_reply_us", "us"},
    {"service.execute_request_us.bandwidth", "us"},
    {"service.execute_request_us.sweep", "us"},
    {"service.execute_request_us.simulate", "us"},
    {"workload.build_us.uniform", "us"},
    {"workload.build_us.hier4", "us"},
    {"topology.make_us", "us"},
    {"analysis.bandwidth_us", "us"},
    {"core.evaluate_self_us", "us"},
    {"service.execute_closure", "ratio"},
    {"service.server.request_us", "us"},
    {"util.pool.queue_wait_us", "us"},
    {"util.pool.task_run_us", "us"},
    {"util.pool.busy_frac", "ratio"},
    {"service.server.shed_frac", "ratio"},
    {"service.server.residual_us", "us"},
    {"sim.cycles_per_s.fast", "1/s"},
    {"sim.cycles_per_s.fallback", "1/s"},
    {"sim.fallback_cycle_frac", "ratio"},
    {"service.client.hedges_issued", "count"},
    {"service.client.hedge_waste_frac", "ratio"},
    {"service.client.retries", "count"},
    {"service.fleet.served_imbalance", "ratio"},
    {"service.fleet.ready_s", "s"},
    {"analysis.campaign.point_ms", "ms"},
    {"sim.fault_timeline_us", "us"},
    {"analysis.checkpoint.flush_us", "us"},
    {"analysis.supervisor.overhead_frac", "ratio"},
    {"bench.generator_late_p99_us", "us"},
    {"bench.trace_overhead_frac", "ratio"}};

/// Orders `measured` by the canonical list. A per-layer metric the
/// workload does not exercise reads 0 (its layer did no work there); a
/// missing end-to-end metric or an unlisted name is a benchmark bug.
std::vector<Metric> canonical(const std::vector<Metric>& measured, bool trace) {
  const auto& names = trace ? kPerLayer : kEndToEnd;
  std::vector<Metric> out;
  for (const auto& [name, unit] : names) {
    const auto it = std::find_if(measured.begin(), measured.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == measured.end() && !trace) {
      throw std::logic_error("end-to-end metric " + name + " was not measured");
    }
    if (it != measured.end() && it->unit != unit) {
      throw std::logic_error("metric " + name + " has unit " + it->unit);
    }
    out.push_back(Metric{name, it == measured.end() ? 0.0 : it->value, unit});
  }
  for (const Metric& m : measured) {
    if (std::none_of(names.begin(), names.end(), [&](const auto& n) { return n.first == m.name; })) {
      throw std::logic_error("metric " + m.name + " is not in the canonical list");
    }
  }
  return out;
}

void make_dirs(const std::string& path) {
  std::string prefix;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!prefix.empty()) ::mkdir(prefix.c_str(), 0755);
    }
    if (i < path.size()) prefix += path[i];
  }
}

Options parse_args(int argc, char** argv) {
  Options options;
  options.run_dir = ".bench_build/run";
  options.out_dir = ".bench_build/out";
  options.mbusd = PERFBENCH_MBUSD;
  bool have_seed = false;
  bool have_config = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::stoi(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--config") {
      options.config = Config::parse(value);
      have_config = true;
    } else if (flag == "--run-dir") {
      options.run_dir = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.workload.empty() || !have_seed || !have_config) {
    throw std::invalid_argument("--workload, --seed and --config are required");
  }
  if (options.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  return options;
}

int run(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  const std::string self_test = run_self_tests();
  if (!self_test.empty()) {
    std::cerr << "perfbench: self-test failed: " << self_test << "\n";
    return 2;
  }
  make_dirs(options.run_dir);
  make_dirs(options.out_dir);

  Result result;
  if (options.workload == "serve_closed_form") {
    result = run_serve(options);
  } else if (options.workload == "fleet_simulate") {
    result = run_fleet(options);
  } else if (options.workload == "campaign_faults") {
    result = run_campaign(options);
  } else {
    throw std::invalid_argument("unknown workload " + options.workload);
  }

  result.metrics = canonical(result.metrics, options.trace);
  for (Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.mismatch("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  for (const std::string& what : result.mismatches) {
    std::cout << "MISMATCH " << what << "\n";
  }
  const std::string host = host_fingerprint_json();
  std::cout << "host " << host << "\n";
  std::cout << "fail_frac " << fmt_g17(static_cast<double>(result.failed) /
                                           static_cast<double>(std::max<std::int64_t>(1, result.attempted)))
            << " (failed " << result.failed << " of " << result.attempted << ")\n";
  for (const Metric& m : result.metrics) {
    std::cout << "metric " << m.name << " " << fmt_g17(m.value) << " " << m.unit << "\n";
  }

  std::string config_json = "{";
  for (const auto& [key, value] : options.config.values()) {
    if (config_json.size() > 1) config_json += ",";
    config_json += "\"" + key + "\":\"" + value + "\"";
  }
  config_json += "}";
  const std::string line = result_json(result);
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  std::ofstream(path) << "{\"workload\":\"" << options.workload
                      << "\",\"seed\":" << options.seed
                      << ",\"seconds\":" << options.seconds
                      << ",\"host\":" << host << ",\"config\":" << config_json
                      << ",\"result\":" << line << "}\n";
  std::cout << line << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
}
