// campaign_faults: the batch user's path — run_supervised_campaign with
// forked workers, the fast engine, bus and module fail/repair, and the
// checkpoint on.
//
// The same seeded campaign runs back to back for the window; each run
// gets a fresh checkpoint. A before_point hook, which runs inside the
// workers, appends "<pid> <steady-clock ns>" to a file as each point
// starts; consecutive starts on one worker give the point latency, and
// the first start after the call gives the set-up time (workers
// spawned and the first point under way).
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>

#include "analysis/availability.hpp"
#include "analysis/bandwidth.hpp"
#include "analysis/supervisor.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "replay.hpp"
#include "sim/fault_process.hpp"
#include "sim/kernel.hpp"
#include "sim/replicate.hpp"
#include "stats.hpp"
#include "topology/factory.hpp"
#include "trace.hpp"
#include "util/format.hpp"

namespace perfbench {

namespace {

mbus::CampaignSpec campaign_spec(const Options& o) {
  const Config& c = o.config;
  mbus::CampaignSpec spec;
  spec.schemes = c.get_list("schemes");
  spec.buses = static_cast<int>(c.get_int("buses"));
  spec.groups = static_cast<int>(c.get_int("groups"));
  spec.classes = static_cast<int>(c.get_int("classes"));
  spec.process.bus_mtbf = c.get_double("bus_mtbf");
  spec.process.bus_mttr = c.get_double("bus_mttr");
  spec.process.module_mtbf = c.get_double("module_mtbf");
  spec.process.module_mttr = c.get_double("module_mttr");
  spec.horizon = c.get_int("horizon");
  spec.window_cycles = c.get_int("window_cycles");
  spec.replications = static_cast<int>(c.get_int("replications"));
  spec.base_seed = o.seed;
  spec.engine = mbus::EngineKind::kFast;
  return spec;
}

/// One point the way the campaign computes it, call by call, under a
/// point span, after the real run_campaign_point_with_retries call.
void replay_point(const mbus::CampaignSpec& spec, const mbus::RequestModel& model,
                  const std::string& scheme, int replication, Tracer* tracer,
                  std::uint64_t id) {
  {
    const ScopedSpan s(tracer, "analysis.campaign.point", -1, id);
    mbus::CampaignPoint point;
    mbus::run_campaign_point_with_retries(spec, model, scheme, replication, nullptr, point);
  }
  const ScopedSpan d(tracer, "replay.campaign_point", -1, id);
  mbus::TopologySpec tspec;
  tspec.scheme = scheme;
  tspec.processors = model.num_processors();
  tspec.memories = model.num_memories();
  tspec.buses = spec.buses;
  tspec.groups = spec.groups;
  tspec.classes = spec.classes;
  std::unique_ptr<mbus::Topology> topology;
  {
    const ScopedSpan s(tracer, "topology.make", d.index(), id);
    topology = mbus::make_topology(tspec);
  }
  {
    const ScopedSpan s(tracer, "analysis.bandwidth", d.index(), id);
    (void)mbus::analytical_bandwidth(*topology, model.symmetric_request_probability(1e-6));
  }
  mbus::SimConfig config;
  {
    const ScopedSpan s(tracer, "sim.fault_timeline", d.index(), id);
    config.faults = mbus::generate_fault_timeline(
        spec.process, spec.buses, spec.process.module_mtbf > 0.0 ? model.num_memories() : 0,
        spec.horizon,
        mbus::derive_stream_seed(spec.base_seed, mbus::cat(scheme, "/faults"), spec.buses,
                                 replication));
  }
  config.cycles = spec.horizon;
  config.warmup = 1000;
  config.batches = static_cast<int>(std::min<std::int64_t>(20, spec.horizon));
  config.window_cycles = spec.window_cycles;
  config.seed = mbus::derive_stream_seed(spec.base_seed, mbus::cat(scheme, "/sim"),
                                         spec.buses, replication);
  config.engine = spec.engine;
  {
    const bool fast = mbus::fast_kernel_supported(*topology, config);
    const ScopedSpan s(tracer, fast ? "sim.run.fast" : "sim.run.fallback", d.index(), id);
    (void)mbus::simulate(*topology, model, config);
  }
  {
    const ScopedSpan s(tracer, "sim.connectivity", d.index(), id);
    (void)mbus::connectivity_fraction(*topology, config.faults, spec.horizon);
    (void)mbus::first_disconnect_cycle(*topology, config.faults, spec.horizon);
  }
}

}  // namespace

Result run_campaign(const Options& o) {
  const Config& c = o.config;
  const int n = static_cast<int>(c.get_int("n"));
  const mbus::Workload workload =
      build_workload(c.get_string("workload"), n, n, c.get_string("rate"));
  const mbus::RequestModel& model = workload.model();

  const std::string starts_path = o.run_dir + "/campaign.starts";
  mbus::SupervisorSpec sup;
  sup.campaign = campaign_spec(o);
  sup.campaign.checkpoint_path = o.run_dir + "/campaign.ckpt";
  sup.campaign.fresh_checkpoint = true;
  sup.workers = static_cast<int>(c.get_int("workers"));
  sup.campaign.before_point = [starts_path](const std::string&, int) {
    const std::string line = std::to_string(getpid()) + " " + std::to_string(now_ns()) + "\n";
    const int fd = ::open(starts_path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd >= 0) {
      (void)::write(fd, line.data(), line.size());  // O_APPEND: one atomic line
      ::close(fd);
    }
  };

  Result result;
  std::vector<std::vector<std::string>> runs;  // point JSON per campaign run
  std::vector<double> setups;
  std::vector<double> point_us;
  double wall_s = 0.0;
  std::vector<double> run_rates;  // verified points/s of each campaign run
  auto& registry = mbus::obs::MetricsRegistry::global();
  const mbus::obs::MetricsSnapshot before = registry.snapshot();
  const double stop_at = now_s() + o.seconds * c.get_double("window_share");
  const std::int64_t min_runs = c.get_int("min_runs");
  while (static_cast<std::int64_t>(runs.size()) < min_runs || now_s() < stop_at) {
    std::ofstream(starts_path, std::ios::trunc).flush();
    const std::int64_t t0 = now_ns();
    const mbus::SupervisedCampaign run = mbus::run_supervised_campaign(sup, model);
    const double run_s = static_cast<double>(now_ns() - t0) / 1e9;
    wall_s += run_s;

    std::map<long, std::vector<std::int64_t>> by_worker;
    std::ifstream in(starts_path);
    long pid = 0;
    std::int64_t at = 0;
    std::int64_t first = -1;
    while (in >> pid >> at) {
      by_worker[pid].push_back(at);
      if (first < 0 || at < first) first = at;
    }
    if (first >= 0) setups.push_back(static_cast<double>(first - t0) / 1e9);
    for (auto& [worker, times] : by_worker) {
      std::sort(times.begin(), times.end());
      for (std::size_t i = 1; i < times.size(); ++i) {
        point_us.push_back(static_cast<double>(times[i] - times[i - 1]) / 1e3);
      }
    }

    std::vector<std::string> points;
    std::int64_t ok = 0;
    for (const mbus::CampaignPoint& p : run.campaign.points()) {
      points.push_back(mbus::campaign_point_to_json(p));
      ++result.attempted;
      if (p.ok) {
        ++ok;
      } else {
        ++result.failed;  // failed, cancelled, quarantined or abandoned
      }
    }
    run_rates.push_back(static_cast<double>(ok) / run_s);
    runs.push_back(std::move(points));
  }
  const mbus::obs::MetricsSnapshot delta =
      mbus::obs::snapshot_delta(before, registry.snapshot());

  // Every point must equal the in-process campaign with the same spec.
  mbus::CampaignSpec reference_spec = campaign_spec(o);
  reference_spec.threads = static_cast<int>(c.get_int("verify_threads"));
  const mbus::Campaign reference = mbus::Campaign::run(reference_spec, model);
  for (const auto& points : runs) {
    if (points.size() != reference.points().size()) {
      result.mismatch("supervised campaign has a different point count");
      continue;
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::string want = mbus::campaign_point_to_json(reference.points()[i]);
      if (points[i] != want) result.mismatch("point differs from in-process: " + points[i]);
    }
  }
  // The median campaign, so one run slowed by the host moves nothing.
  const double points_per_s = percentile(run_rates, 50.0);
  std::cout << "campaign: " << runs.size() << " runs, " << result.attempted << " points in "
            << wall_s << " s, points_per_s " << points_per_s << "\n";

  if (!o.trace) {
    result.add("setup_s", percentile(setups, 50.0), "s");
    result.add("req_p50_us", percentile(point_us, 50.0), "us");
    result.add("req_tail_us", checked_tail(point_us, c.get_double("tail_percentile")), "us");
    result.add("work_per_s", points_per_s, "1/s");
    result.add("peak_rss_mb", children_peak_rss_mb(), "MB");
    return result;
  }

  // In-process replay of the campaign's first points, with and without spans.
  const mbus::CampaignSpec spec = campaign_spec(o);
  std::vector<std::pair<std::string, int>> grid;
  for (const std::string& scheme : spec.schemes) {
    for (int r = 0; r < spec.replications; ++r) grid.emplace_back(scheme, r);
  }
  // Interleave schemes so the replayed prefix covers every scheme.
  std::stable_sort(grid.begin(), grid.end(),
                   [](const auto& a, const auto& b) { return a.second < b.second; });
  grid.resize(std::min<std::size_t>(grid.size(),
                                    static_cast<std::size_t>(c.get_int("replay_points"))));
  // Untraced and traced replays alternate point by point, each going
  // first half the time, so a drift in host speed lands on both alike.
  Tracer tracer;
  double plain_s = 0.0;
  double traced_s = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (i % 2 == 0);
      const double t0 = now_s();
      replay_point(spec, model, grid[i].first, grid[i].second, traced ? &tracer : nullptr, i);
      (traced ? traced_s : plain_s) += now_s() - t0;
    }
  }
  write_spans(tracer.spans(), o.out_dir + "/spans-campaign_faults-seed" +
                                  std::to_string(o.seed) + ".jsonl");

  const auto totals = totals_by_name(tracer.spans());
  const auto get = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const double point_ms = get("analysis.campaign.point").mean_self_us() / 1e3;
  const double sim_cycles = static_cast<double>(spec.horizon);  // measured cycles
  const SpanTotals fast = get("sim.run.fast");
  const SpanTotals fallback = get("sim.run.fallback");
  result.add("analysis.campaign.point_ms", point_ms, "ms");
  result.add("sim.fault_timeline_us", get("sim.fault_timeline").mean_self_us(), "us");
  const auto flush = delta.histograms.find("checkpoint.flush_us");
  result.add("analysis.checkpoint.flush_us",
             flush == delta.histograms.end() ? 0.0 : flush->second.mean(), "us");
  result.add("analysis.supervisor.overhead_frac",
             1.0 - static_cast<double>(result.attempted) * point_ms / 1e3 /
                       (static_cast<double>(sup.workers) * wall_s),
             "ratio");
  result.add("topology.make_us", get("topology.make").mean_self_us(), "us");
  result.add("analysis.bandwidth_us", get("analysis.bandwidth").mean_self_us(), "us");
  result.add("sim.cycles_per_s.fast",
             fast.count == 0 ? 0.0 : sim_cycles * static_cast<double>(fast.count) /
                                         (static_cast<double>(fast.total_ns) / 1e9),
             "1/s");
  result.add("sim.cycles_per_s.fallback",
             fallback.count == 0 ? 0.0 : sim_cycles * static_cast<double>(fallback.count) /
                                             (static_cast<double>(fallback.total_ns) / 1e9),
             "1/s");
  result.add("sim.fallback_cycle_frac",
             static_cast<double>(fallback.count) /
                 static_cast<double>(std::max<std::int64_t>(1, fast.count + fallback.count)),
             "ratio");
  result.add("bench.trace_overhead_frac", plain_s > 0.0 ? traced_s / plain_s - 1.0 : 0.0,
             "ratio");
  return result;
}

}  // namespace perfbench
