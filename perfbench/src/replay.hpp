// In-process replay of served requests with spans around every call
// into the layers a request passes through (serve_closed_form and
// fleet_simulate share it).
//
// Per request the replay records, under one root span:
//   service.protocol.parse_request, service.execute_request.<op>,
//   service.protocol.format_reply — the served path as the daemon runs it;
//   replay.execute_request — the same work execute_request does, re-done
//     call by call (topology.make, workload.build.<wl>, core.evaluate,
//     service.reply_fields), whose children must add up to
//     execute_request (the closure check);
//   analysis.bandwidth and sim.run.<fast|fallback> — the closed form and
//     the simulator called on their own, to split core.evaluate.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "core/system.hpp"
#include "service/protocol.hpp"
#include "trace.hpp"

namespace perfbench {

/// The workload execute_request builds: "uniform", or "hier4", the
/// paper's two-level {4, N/4} hierarchy with aggregate fractions
/// 0.6 / 0.3 / 0.1 (N = M). `rate` is the decimal request rate r.
mbus::Workload build_workload(const std::string& workload, int n, int m,
                              const std::string& rate);

/// True when the fast kernel really runs `request`'s simulation (per
/// mbus::fast_kernel_supported), false when it silently falls back to
/// the reference engine. Never read from the reply's engine= field,
/// which echoes the requested engine.
bool runs_fast_kernel(const mbus::service::ServiceRequest& request);

struct ReplayOutcome {
  std::vector<Span> spans;
  std::size_t requests = 0;
  double plain_s = 0.0;   ///< Replay with spans off.
  double traced_s = 0.0;  ///< The same requests with spans on.
  /// sim.runs.reference delta over the traced pass, and the number of
  /// reference runs runs_fast_kernel() predicts for it.
  std::int64_t reference_runs_counted = 0;
  std::int64_t reference_runs_predicted = 0;
  /// Simulated cycles of the traced sim.run probes, by engine.
  double fast_cycles = 0.0;
  double fallback_cycles = 0.0;
  /// Total formatted reply bytes (keeps every reply observable).
  std::size_t reply_bytes = 0;
};

/// Replays every payload twice, untraced and traced.
ReplayOutcome replay_requests(const std::vector<std::string>& payloads);

/// Adds the request-path per-layer metrics derived from `outcome`.
void add_replay_metrics(const ReplayOutcome& outcome, Result& result);

}  // namespace perfbench
