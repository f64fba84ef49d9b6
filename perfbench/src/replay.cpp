#include "replay.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string_view>

#include "analysis/bandwidth.hpp"
#include "bignum/bigrational.hpp"
#include "core/evaluate.hpp"
#include "obs/metrics.hpp"
#include "sim/kernel.hpp"
#include "sim/replicate.hpp"
#include "topology/factory.hpp"

namespace perfbench {

namespace {

using mbus::service::Op;
using mbus::service::ServiceRequest;

/// The simulator configuration execute_request uses for op=simulate.
mbus::SimConfig sim_config(const ServiceRequest& request) {
  mbus::SimConfig config;
  config.cycles = request.cycles;
  config.warmup = request.warmup;
  config.seed = request.seed;
  config.resubmit_blocked = request.resubmit;
  config.engine = request.engine;
  return config;
}

/// execute_request's last step, re-done: the reply's %.17g fields.
std::size_t reply_fields(
    const ServiceRequest& request,
    const std::vector<std::pair<std::unique_ptr<mbus::Topology>, mbus::Evaluation>>& evaluated) {
  mbus::service::ServiceReply reply = mbus::service::make_ok_reply(request.id);
  reply.fields["op"] = mbus::service::to_string(request.op);
  const mbus::Evaluation& e = evaluated.front().second;
  if (request.op == Op::kBandwidth) {
    reply.fields["bandwidth"] = fmt_g17(e.analytic_bandwidth);
    reply.fields["x"] = fmt_g17(e.request_probability);
    reply.fields["crossbar"] = fmt_g17(e.crossbar_bandwidth);
    reply.fields["perf_cost"] = fmt_g17(e.perf_cost_ratio);
    reply.fields["pa"] = fmt_g17(e.acceptance_probability);
  } else if (request.op == Op::kSimulate) {
    const mbus::SimResult& sim = *e.simulation;
    reply.fields["bandwidth"] = fmt_g17(sim.bandwidth);
    reply.fields["ci_half_width"] = fmt_g17(sim.bandwidth_ci.half_width);
    reply.fields["analytic"] = fmt_g17(e.analytic_bandwidth);
    reply.fields["blocked_fraction"] = fmt_g17(sim.blocked_fraction);
    reply.fields["offered_load"] = fmt_g17(sim.offered_load);
    reply.fields["bus_utilization"] = fmt_g17(sim.bus_utilization);
    reply.fields["mean_service_cycles"] = fmt_g17(sim.mean_service_cycles);
    reply.fields["measured_cycles"] = std::to_string(sim.measured_cycles);
    reply.fields["reps"] = std::to_string(sim.replications);
    reply.fields["engine"] = mbus::to_string(request.engine);
  } else {
    std::string joined;
    for (const auto& [point, each] : evaluated) {
      if (!joined.empty()) joined += ',';
      joined += fmt_g17(each.analytic_bandwidth);
    }
    reply.fields["bmax"] = std::to_string(evaluated.size());
    reply.fields["bandwidths"] = joined;
  }
  return reply.fields.size();
}

const char* execute_span(Op op) {
  switch (op) {
    case Op::kBandwidth: return "service.execute_request.bandwidth";
    case Op::kSweep: return "service.execute_request.sweep";
    case Op::kSimulate: return "service.execute_request.simulate";
    case Op::kPing: break;
  }
  return "service.execute_request.ping";
}

/// One request through every layer; `tracer` null = spans off.
std::size_t replay_one(const std::string& payload, std::uint64_t id,
                       Tracer* tracer, ReplayOutcome& sims) {
  const ScopedSpan root(tracer, "request", -1, id);
  const int r = root.index();
  std::size_t reply_bytes = 0;
  ServiceRequest request;
  {
    const ScopedSpan s(tracer, "service.protocol.parse_request", r, id);
    request = mbus::service::parse_request(payload);
  }
  mbus::service::ServiceReply reply;
  {
    const ScopedSpan s(tracer, execute_span(request.op), r, id);
    reply = mbus::service::execute_request(request, nullptr);
  }
  std::string text;
  {
    const ScopedSpan s(tracer, "service.protocol.format_reply", r, id);
    text = mbus::service::format_reply(reply);
  }

  // The decomposition: execute_request's own steps, in its order.
  std::unique_ptr<mbus::Topology> topology;
  std::optional<mbus::Workload> workload;
  std::vector<std::pair<std::unique_ptr<mbus::Topology>, mbus::Evaluation>> evaluated;
  {
    const ScopedSpan d(tracer, "replay.execute_request", r, id);
    {
      const ScopedSpan s(tracer, "topology.make", d.index(), id);
      topology = mbus::make_topology(request.topo);
    }
    {
      const ScopedSpan s(tracer,
                         request.workload == "uniform" ? "workload.build.uniform"
                                                       : "workload.build.hier4",
                         d.index(), id);
      workload.emplace(build_workload(request.workload, request.topo.processors,
                                      request.topo.memories, request.rate));
    }
    mbus::EvaluationOptions options;
    if (request.op == Op::kSimulate) {
      options.simulate = true;
      options.sim = sim_config(request);
      options.parallel.replications = request.replications;
      options.parallel.threads = 1;
    }
    const int bmax = request.op == Op::kSweep
                         ? (request.bmax > 0 ? request.bmax : request.topo.buses)
                         : 0;
    for (int b = 1; b <= std::max(bmax, 1); ++b) {
      std::unique_ptr<mbus::Topology> point;
      if (request.op == Op::kSweep) {
        mbus::TopologySpec spec = request.topo;
        spec.buses = b;
        const ScopedSpan s(tracer, "topology.make", d.index(), id);
        point = mbus::make_topology(spec);
      }
      const mbus::Topology& evaluate_on = point ? *point : *topology;
      const ScopedSpan s(tracer,
                         request.op == Op::kSimulate ? "core.evaluate.simulate" : "core.evaluate",
                         d.index(), id);
      const mbus::Evaluation e = mbus::evaluate(evaluate_on, *workload, options);
      evaluated.emplace_back(std::move(point), e);
    }
    const ScopedSpan s(tracer, "service.reply_fields", d.index(), id);
    reply_bytes += reply_fields(request, evaluated);
  }

  // Probes splitting core.evaluate: the closed form and the simulator.
  for (const auto& [point, e] : evaluated) {
    const ScopedSpan s(tracer, "analysis.bandwidth", r, id);
    (void)mbus::analytical_bandwidth(point ? *point : *topology, e.request_probability);
  }
  if (request.op == Op::kSimulate) {
    const bool fast = runs_fast_kernel(request);
    const ScopedSpan s(tracer, fast ? "sim.run.fast" : "sim.run.fallback", r, id);
    const mbus::SimResult sim = mbus::run_replications(
        *topology, workload->model(), sim_config(request),
        std::max(1, request.replications), topology->name(), 1);
    (fast ? sims.fast_cycles : sims.fallback_cycles) +=
        static_cast<double>(sim.measured_cycles);
  }
  return text.size() + reply_bytes;
}

}  // namespace

mbus::Workload build_workload(const std::string& workload, int n, int m,
                              const std::string& rate) {
  const mbus::BigRational r = mbus::BigRational::parse(rate);
  if (workload == "uniform") return mbus::Workload::uniform(n, m, r);
  return mbus::Workload::hierarchical_nxn(
      {4, n / 4},
      {mbus::BigRational::parse("0.6"), mbus::BigRational::parse("0.3"),
       mbus::BigRational::parse("0.1")},
      r);
}

bool runs_fast_kernel(const ServiceRequest& request) {
  const std::unique_ptr<mbus::Topology> topology =
      mbus::make_topology(request.topo);
  return mbus::fast_kernel_supported(*topology, sim_config(request));
}

ReplayOutcome replay_requests(const std::vector<std::string>& payloads) {
  ReplayOutcome out;
  ReplayOutcome scratch;
  out.requests = payloads.size();
  for (const std::string& payload : payloads) {
    const ServiceRequest request = mbus::service::parse_request(payload);
    if (request.op == Op::kSimulate && !runs_fast_kernel(request)) {
      // execute_request, core.evaluate and the sim.run probe each run it.
      out.reference_runs_predicted += 3 * std::max(1, request.replications);
    }
  }
  // Warm allocators and caches so neither pass pays first-touch.
  for (std::size_t i = 0; i < std::min<std::size_t>(payloads.size(), 20); ++i) {
    out.reply_bytes += replay_one(payloads[i], i, nullptr, scratch);
  }
  // Untraced and traced passes alternate chunk by chunk, each going first
  // half the time, so a drift in host speed lands on both alike.
  Tracer tracer;
  std::int64_t counted = 0;
  const std::size_t chunks = std::min<std::size_t>(10, payloads.size());
  for (std::size_t k = 0; k < chunks; ++k) {
    const std::size_t from = k * payloads.size() / chunks;
    const std::size_t to = (k + 1) * payloads.size() / chunks;
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (k % 2 == 0);
      const std::int64_t before =
          mbus::obs::MetricsRegistry::global().counter("sim.runs.reference").value();
      const double start = now_s();
      for (std::size_t i = from; i < to; ++i) {
        out.reply_bytes += replay_one(payloads[i], i, traced ? &tracer : nullptr,
                                      traced ? out : scratch);
      }
      (traced ? out.traced_s : out.plain_s) += now_s() - start;
      if (traced) {
        counted += mbus::obs::MetricsRegistry::global().counter("sim.runs.reference").value() -
                   before;
      }
    }
  }
  out.reference_runs_counted = counted;
  out.spans = tracer.spans();
  return out;
}

void add_replay_metrics(const ReplayOutcome& outcome, Result& result) {
  const auto totals = totals_by_name(outcome.spans);
  const auto get = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  result.add("service.protocol.parse_request_us",
             get("service.protocol.parse_request").mean_self_us(), "us");
  result.add("service.protocol.format_reply_us",
             get("service.protocol.format_reply").mean_self_us(), "us");
  for (const char* op : {"bandwidth", "sweep", "simulate"}) {
    result.add(std::string("service.execute_request_us.") + op,
               get(std::string("service.execute_request.") + op).mean_self_us(), "us");
  }
  for (const char* wl : {"uniform", "hier4"}) {
    result.add(std::string("workload.build_us.") + wl,
               get(std::string("workload.build.") + wl).mean_self_us(), "us");
  }
  result.add("topology.make_us", get("topology.make").mean_self_us(), "us");
  result.add("analysis.bandwidth_us", get("analysis.bandwidth").mean_self_us(), "us");
  // evaluate() minus its closed form, over closed-form requests only: for
  // op=simulate the split would be lost in the simulator's own noise.
  std::map<std::uint64_t, std::int64_t> self_ns;
  std::int64_t evaluations = 0;
  for (const Span& s : outcome.spans) {
    if (s.name == std::string_view("core.evaluate")) {
      self_ns[s.request] += s.end_ns - s.start_ns;
      ++evaluations;
    }
  }
  std::int64_t evaluate_self_ns = 0;
  for (const Span& s : outcome.spans) {
    if (s.name == std::string_view("analysis.bandwidth") && self_ns.count(s.request) != 0) {
      self_ns[s.request] -= s.end_ns - s.start_ns;
    }
  }
  for (const auto& [request, ns] : self_ns) evaluate_self_ns += ns;
  result.add("core.evaluate_self_us",
             evaluations == 0 ? 0.0
                              : static_cast<double>(evaluate_self_ns) / 1e3 /
                                    static_cast<double>(evaluations),
             "us");
  const SpanTotals fast = get("sim.run.fast");
  const SpanTotals fallback = get("sim.run.fallback");
  result.add("service.execute_closure",
             closure_ratio(outcome.spans, "replay.execute_request",
                           "service.execute_request."),
             "ratio");
  result.add("sim.cycles_per_s.fast",
             fast.total_ns == 0 ? 0.0 : outcome.fast_cycles / (static_cast<double>(fast.total_ns) / 1e9),
             "1/s");
  result.add("sim.cycles_per_s.fallback",
             fallback.total_ns == 0
                 ? 0.0
                 : outcome.fallback_cycles / (static_cast<double>(fallback.total_ns) / 1e9),
             "1/s");
  result.add("bench.trace_overhead_frac",
             outcome.plain_s > 0.0 ? outcome.traced_s / outcome.plain_s - 1.0 : 0.0,
             "ratio");
}

}  // namespace perfbench
