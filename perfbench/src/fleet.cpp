// fleet_simulate: a closed loop of resilient clients into a replicated
// fleet.
//
// A FleetSupervisor starts the replicas (their start-up is the set-up
// time); then each caller thread, with its own MbusClient in the default
// ClientConfig (pick-two routing, auto hedge), calls op=simulate
// engine=fast back to back for the window.
//
// Pick-two routing by latency EWMA is bistable with two callers and two
// replicas: both clients either settle on different replicas or herd
// onto one (a replica a client stops choosing keeps its old EWMA, so it
// is not tried again), and which happens is decided by the first few
// calls. One long client pair would report one coin flip per run, so
// the window is cut into episodes, each with fresh clients, and the run
// reports over all of them. The request pool is every
// (scheme, workload, N) once; each caller walks its own seeded
// permutation of it, so every run sees the same mix in a different
// order. Some N exceed the fast kernel's 64-wide masks and silently run
// on the reference engine; the fallback share is taken from
// fast_kernel_supported(), never from the reply's engine= field.
#include <algorithm>
#include <iostream>
#include <map>
#include <thread>

#include "obs/metrics.hpp"
#include "replay.hpp"
#include "service/client.hpp"
#include "service/fleet.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "util/subprocess.hpp"

namespace perfbench {

namespace {

using mbus::service::Op;
using mbus::service::ServiceRequest;

struct Call {
  int request = 0;  ///< Index into the pool.
  bool warmup = false;
  double elapsed_us = 0.0;
  mbus::service::CallResult result;
};

std::vector<ServiceRequest> request_pool(const Options& o) {
  const Config& c = o.config;
  mbus::Xoshiro256 rng(o.seed);
  std::vector<ServiceRequest> pool;
  for (const std::string& scheme : c.get_list("schemes")) {
    for (const std::string& workload : c.get_list("workloads")) {
      for (const int n : c.get_int_list("n")) {
        // B = N / b_divisor divides N and is even, so every scheme builds
        // (single and k-classes need B | M, partial-g needs g = 2 | B).
        ServiceRequest r;
        r.op = Op::kSimulate;
        r.topo.scheme = scheme;
        r.topo.processors = r.topo.memories = n;
        r.topo.buses = n / static_cast<int>(c.get_int("b_divisor"));
        r.topo.groups = 2;
        r.topo.classes = 0;
        r.workload = workload;
        r.rate = c.get_string("rate");
        r.cycles = c.get_int("cycles");
        r.warmup = c.get_int("warmup");
        r.seed = rng.next();
        r.engine = mbus::EngineKind::kFast;
        pool.push_back(r);
      }
    }
  }
  return pool;
}

}  // namespace

Result run_fleet(const Options& o) {
  const Config& c = o.config;
  const mbus::ScopedSigpipeIgnore sigpipe;
  const std::vector<ServiceRequest> pool = request_pool(o);

  mbus::service::FleetConfig fc;
  fc.socket_dir = o.run_dir + "/fleet";
  fc.replicas = static_cast<int>(c.get_int("replicas"));
  fc.server.workers = static_cast<int>(c.get_int("replica_workers"));
  const std::int64_t grace_ms = c.get_int("drain_grace_ms");

  Result result;
  std::vector<double> setups;
  const auto start_fleet = [&](mbus::service::FleetSupervisor& fleet) {
    const double t0 = now_s();
    fleet.start();
    setups.push_back(now_s() - t0);
  };
  const auto stop_fleet = [&](mbus::service::FleetSupervisor& fleet) {
    const mbus::service::FleetReport report = fleet.stop(grace_ms);
    if (!report.all_exited_zero) result.mismatch("fleet did not drain: " + report.summary());
  };
  // Extra set-up samples; replicas fork, so no other thread may run yet.
  for (std::int64_t i = 1; i < c.get_int("setup_samples"); ++i) {
    mbus::service::FleetSupervisor fleet(fc);
    start_fleet(fleet);
    stop_fleet(fleet);
  }
  mbus::service::FleetSupervisor fleet(fc);
  start_fleet(fleet);

  const int callers = static_cast<int>(c.get_int("callers"));
  std::vector<std::vector<Call>> calls(static_cast<std::size_t>(callers));
  std::vector<mbus::service::ClientStats> stats(static_cast<std::size_t>(callers));
  const std::int64_t warmup_calls = c.get_int("warmup_calls");
  const std::int64_t episodes = c.get_int("episodes");
  const double start = now_s();
  const double stop_issuing = start + o.seconds * c.get_double("window_share");
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < callers; ++t) {
      threads.emplace_back([&, t] {
        std::vector<int> order(pool.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
        mbus::Xoshiro256 rng(o.seed * 7919 + static_cast<std::uint64_t>(t) + 1);
        std::shuffle(order.begin(), order.end(), rng);
        auto& mine = calls[static_cast<std::size_t>(t)];
        auto& my_stats = stats[static_cast<std::size_t>(t)];
        std::size_t j = 0;
        for (std::int64_t e = 0; e < episodes; ++e) {
          mbus::service::ClientConfig cc;
          cc.replicas = fleet.socket_paths();
          cc.seed = (o.seed * 31 + static_cast<std::uint64_t>(t)) * 1009 +
                    static_cast<std::uint64_t>(e);
          mbus::service::MbusClient client(cc);
          // Warm-up: identical cheap calls first, so the client's routing
          // state (per-replica latency EWMA) starts level instead of being
          // frozen at whatever its first call happened to cost. Untimed;
          // still checked and counted below.
          for (std::int64_t w = 0; w < warmup_calls; ++w) {
            Call call;
            call.result = client.call(pool.front());
            call.warmup = true;
            mine.push_back(std::move(call));
          }
          const double episode_end =
              start + (stop_issuing - start) * static_cast<double>(e + 1) /
                          static_cast<double>(episodes);
          for (; now_s() < episode_end; ++j) {
            Call call;
            call.request = order[j % order.size()];
            const double t0 = now_s();
            call.result = client.call(pool[static_cast<std::size_t>(call.request)]);
            call.elapsed_us = (now_s() - t0) * 1e6;
            mine.push_back(std::move(call));
          }
          const mbus::service::ClientStats& s = client.stats();
          my_stats.hedges_issued += s.hedges_issued;
          my_stats.hedges_won += s.hedges_won;
          my_stats.retries += s.retries;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double window_s = now_s() - start;
  stop_fleet(fleet);

  // Check every reply after the window: byte-identical to in-process
  // execute_request of the same request under the same id.
  std::map<int, mbus::service::ServiceReply> expected;
  std::vector<double> latency_us;
  double cycles = 0.0;
  double fallback_cycles = 0.0;
  std::vector<std::int64_t> served_by(static_cast<std::size_t>(fc.replicas), 0);
  for (const auto& mine : calls) {
    for (const Call& call : mine) {
      ++result.attempted;
      if (!call.result.ok) {
        ++result.failed;
        if (!call.warmup) latency_us.push_back(kInf);
        continue;
      }
      auto it = expected.find(call.request);
      if (it == expected.end()) {
        it = expected.emplace(call.request,
                              mbus::service::execute_request(
                                  pool[static_cast<std::size_t>(call.request)], nullptr))
                 .first;
      }
      mbus::service::ServiceReply want = it->second;
      want.id = call.result.request_id;
      const std::string got = mbus::service::format_reply(call.result.reply);
      if (mbus::service::format_reply(want) != got) {
        result.mismatch("simulate reply differs from execute_request: " + got);
        if (!call.warmup) latency_us.push_back(kInf);
        continue;
      }
      if (call.warmup) continue;
      latency_us.push_back(call.elapsed_us);
      const double n = static_cast<double>(call.result.reply.field_int("measured_cycles"));
      cycles += n;
      if (!runs_fast_kernel(pool[static_cast<std::size_t>(call.request)])) fallback_cycles += n;
      if (call.result.served_by >= 0 && call.result.served_by < fc.replicas) {
        ++served_by[static_cast<std::size_t>(call.result.served_by)];
      }
    }
  }
  const double tail_p = c.get_double("tail_percentile");
  std::cout << "fleet: " << result.attempted << " calls in " << window_s
            << " s, sim_cycles_per_s " << cycles / window_s << ", fallback cycle share "
            << (cycles > 0 ? fallback_cycles / cycles : 0.0) << "\n";

  if (!o.trace) {
    result.add("setup_s", percentile(setups, 50.0), "s");
    result.add("req_p50_us", percentile(latency_us, 50.0), "us");
    result.add("req_tail_us", checked_tail(latency_us, tail_p), "us");
    result.add("work_per_s", cycles / window_s, "1/s");
    result.add("peak_rss_mb", children_peak_rss_mb(), "MB");
    return result;
  }

  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ServiceRequest r = pool[i];
    r.id = i + 1;
    payloads.push_back(mbus::service::format_request(r));
  }
  const ReplayOutcome replay = replay_requests(payloads);
  write_spans(replay.spans, o.out_dir + "/spans-fleet_simulate-seed" +
                                std::to_string(o.seed) + ".jsonl");
  if (mbus::obs::kEnabled && replay.reference_runs_counted != replay.reference_runs_predicted) {
    std::cerr << "fleet: WARNING sim.runs.reference delta " << replay.reference_runs_counted
              << " but fast_kernel_supported() predicts " << replay.reference_runs_predicted
              << "\n";
  }
  add_replay_metrics(replay, result);
  result.add("sim.fallback_cycle_frac", cycles > 0 ? fallback_cycles / cycles : 0.0, "ratio");
  mbus::service::ClientStats total;
  for (const auto& s : stats) {
    total.hedges_issued += s.hedges_issued;
    total.hedges_won += s.hedges_won;
    total.retries += s.retries;
  }
  result.add("service.client.hedges_issued", static_cast<double>(total.hedges_issued), "count");
  result.add("service.client.hedge_waste_frac",
             total.hedges_issued > 0
                 ? 1.0 - static_cast<double>(total.hedges_won) / static_cast<double>(total.hedges_issued)
                 : 0.0,
             "ratio");
  result.add("service.client.retries", static_cast<double>(total.retries), "count");
  const auto [lo, hi] = std::minmax_element(served_by.begin(), served_by.end());
  std::int64_t served = 0;
  for (const std::int64_t s : served_by) served += s;
  result.add("service.fleet.served_imbalance",
             served > 0 ? static_cast<double>(*hi - *lo) / static_cast<double>(served) : 0.0,
             "ratio");
  result.add("service.fleet.ready_s", percentile(setups, 50.0), "s");
  return result;
}

}  // namespace perfbench
