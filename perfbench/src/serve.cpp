// serve_closed_form: an open loop into one mbusd daemon.
//
// One single-threaded generator sends a seeded, valid-by-construction
// mix of op=bandwidth and op=sweep requests over a few connections at
// fixed rates, each request timed from the moment it was due (so a stall
// delays every request behind it). The reference step runs at one fixed
// rate and gives the latency metrics; the ladder then climbs fixed rates
// until the tail misses the latency limit, which gives goodput. Every
// rate step gets a fresh daemon, so each step's --metrics-out snapshot
// is its own and every start-up is a set-up sample.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "replay.hpp"
#include "service/protocol.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace perfbench {

namespace {

using mbus::service::Op;
using mbus::service::ServiceRequest;

// ---- the request mix ------------------------------------------------------

/// Draws requests that every mbusd accepts. Validity rules (N = M):
///   bandwidth — any scheme; B divides N (single, k-classes with K = B);
///               partial-g's g divides both B and N;
///   sweep     — every B in 1..bmax must build, which holds for full,
///               partial-g with g = 1 and k-classes with K = 1, never for
///               single (it needs B | M for each B), so single is not swept.
struct Mix {
  std::vector<std::string> schemes, workloads, rates;
  std::vector<int> ns, buses, groups;
  double sweep_share = 0.0;
  int sweep_bmax = 0;

  std::vector<ServiceRequest> templates;
  std::map<std::string, int> index;

  explicit Mix(const Config& c)
      : schemes(c.get_list("schemes")),
        workloads(c.get_list("workloads")),
        rates(c.get_list("rates")),
        ns(c.get_int_list("n")),
        buses(c.get_int_list("b")),
        groups(c.get_int_list("g")),
        sweep_share(c.get_double("sweep_share")),
        sweep_bmax(static_cast<int>(c.get_int("sweep_bmax"))) {}

  template <typename T>
  static const T& pick(const std::vector<T>& from, mbus::Xoshiro256& rng) {
    return from[rng.next() % from.size()];
  }

  int draw(mbus::Xoshiro256& rng) {
    ServiceRequest r;
    r.workload = pick(workloads, rng);
    r.rate = pick(rates, rng);
    r.topo.processors = r.topo.memories = pick(ns, rng);
    if (rng.uniform01() < sweep_share) {
      static const std::vector<std::string> swept = {"full", "partial-g", "k-classes"};
      r.op = Op::kSweep;
      r.topo.scheme = pick(swept, rng);
      r.topo.buses = r.bmax = sweep_bmax;
      r.topo.groups = 1;
      r.topo.classes = 1;
    } else {
      r.op = Op::kBandwidth;
      r.topo.scheme = pick(schemes, rng);
      r.topo.buses = pick(buses, rng);
      r.topo.groups = r.topo.scheme == "partial-g" ? pick(groups, rng) : 2;
      r.topo.classes = 0;
    }
    const std::string key = mbus::service::format_request(r);
    const auto [it, fresh] = index.emplace(key, static_cast<int>(templates.size()));
    if (fresh) templates.push_back(r);
    return it->second;
  }
};

// ---- the daemon -----------------------------------------------------------

/// One mbusd child. If a step throws, the destructor still kills and
/// reaps it, so no daemon outlives the benchmark.
struct Daemon {
  pid_t pid = -1;
  std::string socket;
  std::string metrics_path;
  double setup_s = 0.0;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
};

bool ping(const std::string& socket) {
  const int fd = mbus::try_connect_unix(socket);
  if (fd < 0) return false;
  mbus::set_nonblocking(fd);  // read_available drains until EAGAIN
  ServiceRequest request;
  request.id = 1;
  request.op = Op::kPing;
  bool ok = false;
  if (mbus::write_frame(fd, mbus::service::format_request(request))) {
    mbus::FrameReader reader;
    std::string payload;
    pollfd p{fd, POLLIN, 0};
    const double deadline = now_s() + 2.0;
    while (!ok && now_s() < deadline && mbus::poll_eintr(&p, 1, 100) >= 0) {
      if (!reader.read_available(fd)) break;
      if (reader.next_frame(payload)) ok = mbus::service::parse_reply(payload).ok;
    }
  }
  mbus::close_fd(fd);
  return ok;
}

/// Starts mbusd and returns once it answers a ping (that wait is setup_s).
void start_daemon(const Options& o, const Config& c, Daemon& d) {
  d.socket = o.run_dir + "/serve.sock";
  d.metrics_path = o.run_dir + "/serve.metrics.json";
  const std::string log = o.run_dir + "/mbusd.log";
  std::remove(d.metrics_path.c_str());
  std::vector<std::string> args = {
      o.mbusd, "--socket", d.socket, "--workers", c.get_string("workers"),
      "--queue-capacity", c.get_string("queue_capacity"), "--metrics-out",
      d.metrics_path};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  // posix_spawn, not fork: start-up cost must not grow with the size of
  // this process (the generator holds every frame and reply in memory).
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const double t0 = now_s();
  const int spawned = posix_spawn(&d.pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    d.pid = -1;
    throw std::runtime_error(std::string("cannot start mbusd: ") + std::strerror(spawned));
  }
  while (!ping(d.socket)) {
    int status = 0;
    if (waitpid(d.pid, &status, WNOHANG) == d.pid) {
      d.pid = -1;
      throw std::runtime_error("mbusd exited during start-up; see " + log);
    }
    if (now_s() - t0 > 10.0) throw std::runtime_error("mbusd answered no ping within 10 s");
    usleep(200);
  }
  d.setup_s = now_s() - t0;
}

/// SIGTERMs the daemon (it drains and exits 0), reaps it, and loads its
/// metrics snapshot and peak RSS. Returns false unless it exited 0 with a
/// snapshot.
bool stop_daemon(Daemon& d, mbus::obs::MetricsSnapshot& snapshot, double& peak_rss_mb) {
  kill(d.pid, SIGTERM);
  int status = 0;
  rusage usage{};
  const double deadline = now_s() + 15.0;
  while (wait4(d.pid, &status, WNOHANG, &usage) == 0) {
    if (now_s() > deadline) return false;  // the destructor kills it
    usleep(1000);
  }
  d.pid = -1;
  peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  std::ifstream in(d.metrics_path);
  std::stringstream text;
  text << in.rdbuf();
  const bool have = mbus::obs::snapshot_from_json(text.str(), snapshot);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 && (have || !mbus::obs::kEnabled);
}

// ---- one open-loop rate step ---------------------------------------------

struct Step {
  double rate = 0.0;
  double seconds = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  bool daemon_clean = true;
  mbus::obs::MetricsSnapshot snapshot;

  std::vector<int> templates;        ///< Per request: index into Mix.
  std::vector<std::string> replies;  ///< Per request: ok reply payload.
  std::int64_t attempted = 0;
  std::int64_t errors = 0;  ///< Error replies of any code.
  std::int64_t lost = 0;    ///< No reply by the drain deadline.
  std::map<std::string, std::int64_t> error_codes;
  std::int64_t backlog = 0;  ///< Unanswered when the last request was sent.

  std::vector<double> latency_us;  ///< Measured window; misses = +inf.
  std::vector<double> late_us;     ///< Generator lateness, measured window.
  std::int64_t measured_ok = 0;

  double late_p99_us = 0.0;
  double p50_us = 0.0;
  double tail_us = 0.0;
  double ok_per_s = 0.0;
  bool pass = false;
};

struct Conn {
  int fd = -1;
  std::string out;
  mbus::FrameReader reader;
  bool alive = true;
};

void flush(Conn& conn) {
  while (conn.alive && !conn.out.empty()) {
    const ssize_t n = ::write(conn.fd, conn.out.data(), conn.out.size());
    if (n > 0) {
      conn.out.erase(0, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) conn.alive = false;
      return;
    }
  }
}

/// Reply header: "mbus-rep v1 id=<n> status=ok|error [code=<c>] ...".
bool reply_header(const std::string& payload, std::uint64_t& id, bool& ok,
                  std::string& code) {
  static const std::string prefix = "mbus-rep v1 id=";
  if (payload.compare(0, prefix.size(), prefix) != 0) return false;
  char* end = nullptr;
  id = std::strtoull(payload.c_str() + prefix.size(), &end, 10);
  const std::string rest(end);
  ok = rest.rfind(" status=ok", 0) == 0;
  if (!ok) {
    const std::size_t at = rest.find("code=");
    code = at == std::string::npos ? "?" : rest.substr(at + 5, rest.find(' ', at) - at - 5);
  }
  return true;
}

Step run_step(const Options& o, Mix& mix, double rate, double seconds,
              std::uint64_t step_seed) {
  const Config& c = o.config;
  const int connections = static_cast<int>(c.get_int("connections"));
  const double warmup_s = c.get_double("warmup_s");
  Step st;
  st.rate = rate;
  st.seconds = seconds;

  const auto n = static_cast<std::size_t>(std::llround(rate * (warmup_s + seconds)));
  const auto n_warm = static_cast<std::size_t>(std::llround(rate * warmup_s));
  mbus::Xoshiro256 rng(step_seed);
  std::vector<std::string> frames(n);
  st.templates.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    st.templates[i] = mix.draw(rng);
    ServiceRequest r = mix.templates[static_cast<std::size_t>(st.templates[i])];
    r.id = i + 1;
    frames[i] = mbus::encode_frame(mbus::service::format_request(r));
  }
  st.replies.assign(n, std::string());

  Daemon daemon;
  start_daemon(o, c, daemon);
  st.setup_s = daemon.setup_s;
  std::vector<Conn> conns(static_cast<std::size_t>(connections));
  for (Conn& conn : conns) {
    conn.fd = mbus::connect_unix(daemon.socket);
    mbus::set_nonblocking(conn.fd);
  }

  const double interval_ns = 1e9 / rate;
  const std::int64_t t0 = now_ns() + 20'000'000;
  const auto due = [&](std::size_t i) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
  };
  std::vector<std::int64_t> recv_ns(n, -1);
  std::int64_t last_recv = t0;
  std::vector<std::int64_t> sent_ns(n, 0);
  std::vector<pollfd> fds(conns.size());
  std::size_t next = 0;
  std::size_t answered = 0;
  std::int64_t drain_deadline = 0;
  const std::int64_t drain_ns = c.get_int("drain_ms") * 1'000'000;
  std::string payload;
  for (;;) {
    std::int64_t now = now_ns();
    while (next < n && due(next) <= now) {
      Conn& conn = conns[next % conns.size()];
      conn.out += frames[next];
      sent_ns[next] = now;
      ++next;
    }
    for (Conn& conn : conns) flush(conn);
    if (next == n && drain_deadline == 0) {
      drain_deadline = now + drain_ns;
      st.backlog = static_cast<std::int64_t>(next - answered);
    }
    if (answered == n || (drain_deadline != 0 && now >= drain_deadline)) break;
    if (std::none_of(conns.begin(), conns.end(), [](const Conn& x) { return x.alive; })) break;

    const std::int64_t wait = std::max<std::int64_t>(
        0, (next < n ? due(next) : drain_deadline) - now_ns());
    for (std::size_t k = 0; k < conns.size(); ++k) {
      fds[k] = pollfd{conns[k].alive ? conns[k].fd : -1,
                      static_cast<short>(POLLIN | (conns[k].out.empty() ? 0 : POLLOUT)), 0};
    }
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
    }
    now = now_ns();
    for (std::size_t k = 0; k < conns.size(); ++k) {
      Conn& conn = conns[k];
      if (!conn.alive || (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!conn.reader.read_available(conn.fd)) conn.alive = false;
      while (conn.reader.next_frame(payload)) {
        std::uint64_t id = 0;
        bool ok = false;
        std::string code;
        if (!reply_header(payload, id, ok, code) || id == 0 || id > n ||
            recv_ns[id - 1] >= 0) {
          st.error_codes["unparsable_or_duplicate"] += 1;
          continue;
        }
        recv_ns[id - 1] = now;
        last_recv = now;
        ++answered;
        if (ok) {
          st.replies[id - 1] = payload;
        } else {
          st.error_codes[code] += 1;
        }
      }
    }
  }
  for (Conn& conn : conns) mbus::close_fd(conn.fd);
  st.daemon_clean = stop_daemon(daemon, st.snapshot, st.peak_rss_mb);

  st.attempted = static_cast<std::int64_t>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool replied = recv_ns[i] >= 0;
    const bool ok = replied && !st.replies[i].empty();
    if (!replied) ++st.lost;
    if (replied && !ok) ++st.errors;
    if (i < n_warm) continue;
    st.latency_us.push_back(ok ? static_cast<double>(recv_ns[i] - due(i)) / 1e3 : kInf);
    st.late_us.push_back(i < next ? static_cast<double>(sent_ns[i] - due(i)) / 1e3 : kInf);
    if (ok) ++st.measured_ok;
  }
  // Each figure is the median over equal sub-windows of the step, so a
  // host stall that spoils one sub-window moves nothing, while an
  // overloaded server spoils them all.
  const double tail_p = c.get_double("tail_percentile");
  const auto parts = split(st.latency_us, static_cast<std::size_t>(c.get_int("subwindows")));
  st.late_p99_us = percentile(st.late_us, 99.0);
  st.p50_us = median_of(parts, 50.0);
  st.tail_us = median_of(parts, tail_p);
  // Achieved rate: ok replies over the measured window as it really ran
  // (first measured due time to the last reply).
  st.ok_per_s = static_cast<double>(st.measured_ok) * 1e9 /
                static_cast<double>(std::max<std::int64_t>(1, last_recv - due(n_warm)));
  st.pass = st.tail_us <= c.get_double("latency_limit_us") &&
            st.backlog <= connections * c.get_int("queue_capacity");
  std::cerr << "serve: rate " << rate << "/s: sub-window medians p50 " << st.p50_us << " p"
            << tail_p << " " << st.tail_us << " us; whole step p99 "
            << percentile(st.latency_us, 99) << " us, late p99 " << st.late_p99_us
            << " us, ok " << st.ok_per_s << "/s, errors " << st.errors << ", lost " << st.lost
            << ", backlog " << st.backlog << (st.pass ? " -> pass" : " -> FAIL") << "\n";
  return st;
}

double pool_busy_us(const mbus::obs::MetricsSnapshot& s) {
  double busy = 0.0;
  for (const auto& [name, value] : s.counters) {
    if (name.rfind("pool.worker.", 0) == 0 && name.size() > 8 &&
        name.compare(name.size() - 8, 8, ".busy_us") == 0 &&
        name != "pool.worker.inline.busy_us") {
      busy += static_cast<double>(value);
    }
  }
  return busy;
}

double hist_mean(const mbus::obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.mean();
}

std::int64_t counter(const mbus::obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

}  // namespace

Result run_serve(const Options& o) {
  const Config& c = o.config;
  const mbus::ScopedSigpipeIgnore sigpipe;
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on time for due sends
  Mix mix(c);
  const double start = now_s();
  const double seconds = o.seconds;

  // The reference step is valid only if the generator kept its schedule:
  // at this light load a p99 lateness past max_late_us means the host
  // starved this process as well as the daemon, so the step runs again,
  // up to step_attempts times; the last attempt stands either way. (Ladder
  // rungs are not rerun: near capacity the daemon itself takes the CPU the
  // generator needs.) Every attempt's replies are still checked.
  std::vector<Step> steps;
  for (std::int64_t attempt = 1;; ++attempt) {
    steps.push_back(run_step(o, mix, c.get_double("reference_rate"),
                             seconds * c.get_double("reference_share"), o.seed));
    if (steps.back().late_p99_us <= c.get_double("max_late_us") ||
        attempt >= c.get_int("step_attempts")) {
      break;
    }
    std::cerr << "serve: the generator ran late, so the host was starved; step rerun\n";
  }
  const std::size_t ref_index = steps.size() - 1;
  const double ladder_budget = seconds * (1.0 - c.get_double("reference_share"));
  const double ladder_start = now_s();
  std::map<int, std::size_t> rung_step;
  std::vector<std::size_t> rungs_run;  // accepted rung steps, in run order
  const int best = climb_ladder(
      static_cast<int>(c.get_int("ladder_first")), static_cast<int>(c.get_int("ladder_stride")),
      static_cast<int>(c.get_int("ladder_last")),
      [&](int k) {
        const double rate = ladder_rate(c.get_double("ladder_base"),
                                        static_cast<int>(c.get_int("ladder_steps_per_doubling")), k);
        steps.push_back(run_step(o, mix, rate, seconds * c.get_double("step_share"),
                                 o.seed * 1000003ULL + static_cast<std::uint64_t>(k) + 1));
        const std::size_t at = steps.size() - 1;
        rung_step[k] = at;
        rungs_run.push_back(at);
        return steps[at].pass;
      },
      [&] { return now_s() - ladder_start < ladder_budget; });
  const double window_s = now_s() - start;

  // Outputs are checked after the timed window: every ok reply must be
  // byte-identical to in-process execute_request of the same request.
  Result result;
  std::map<int, mbus::service::ServiceReply> expected;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    Step& st = steps[s];
    if (!st.daemon_clean) result.mismatch("mbusd did not drain to exit 0 with a metrics snapshot");
    for (std::size_t i = 0; i < st.replies.size(); ++i) {
      if (st.replies[i].empty()) continue;
      const int t = st.templates[i];
      auto it = expected.find(t);
      if (it == expected.end()) {
        it = expected.emplace(t, mbus::service::execute_request(
                                     mix.templates[static_cast<std::size_t>(t)], nullptr))
                 .first;
      }
      mbus::service::ServiceReply want = it->second;
      want.id = i + 1;
      if (mbus::service::format_reply(want) != st.replies[i]) {
        result.mismatch("reply differs from execute_request: " + st.replies[i]);
      }
    }
  }
  // Operations count in the reference step, the rate the benchmark claims
  // to serve. The ladder is a capacity probe: its misses decide goodput,
  // and shed replies above capacity are the server's designed answer.
  result.attempted += steps[ref_index].attempted;
  result.failed += steps[ref_index].errors + steps[ref_index].lost;
  for (const Step& st : steps) {
    for (const auto& [code, count] : st.error_codes) {
      std::cout << "serve: rate " << st.rate << "/s: " << count << " replies " << code << "\n";
    }
  }

  const Step& ref = steps[ref_index];
  const int best_step = best >= 0 ? static_cast<int>(rung_step[best]) : -1;
  std::vector<double> setups;
  for (const Step& st : steps) setups.push_back(st.setup_s);
  std::cout << "serve: setup samples (s):";
  for (const double v : setups) std::cout << " " << v;
  std::cout << "\n";
  const double goodput = best >= 0 ? steps[static_cast<std::size_t>(best_step)].ok_per_s : 0.0;
  std::cout << "serve: goodput_rps " << goodput << " (rung " << best << ", "
            << (best >= 0 ? steps[static_cast<std::size_t>(best_step)].rate : 0.0)
            << "/s offered), reference p50 " << ref.p50_us << " us, tail "
            << ref.tail_us << " us over " << ref.latency_us.size()
            << " requests, window " << window_s << " s\n";

  if (!o.trace) {
    result.add("setup_s", percentile(setups, 50.0), "s");
    result.add("req_p50_us", ref.p50_us, "us");
    result.add("req_tail_us", ref.tail_us, "us");
    result.add("work_per_s", goodput, "1/s");
    // The smallest peak RSS among the run's daemons (one per step): the
    // footprint no daemon sheds. Memory moved into caches raises every
    // daemon's peak, while glibc adds a ~20 MB malloc arena at random
    // when threads contend, which the minimum ignores.
    double rss = kInf;
    for (const Step& st : steps) rss = std::min(rss, st.peak_rss_mb);
    result.add("peak_rss_mb", rss, "MB");
    return result;
  }

  // Per-layer: the daemon's own counters, then the in-process replay of
  // the reference step's requests with spans around each layer call.
  std::vector<std::string> payloads;
  const auto replayed = std::min<std::size_t>(ref.templates.size(),
                                              static_cast<std::size_t>(c.get_int("replay_requests")));
  for (std::size_t i = 0; i < replayed; ++i) {
    ServiceRequest r = mix.templates[static_cast<std::size_t>(ref.templates[i])];
    r.id = i + 1;
    payloads.push_back(mbus::service::format_request(r));
  }
  const ReplayOutcome replay = replay_requests(payloads);
  write_spans(replay.spans, o.out_dir + "/spans-serve_closed_form-seed" +
                                std::to_string(o.seed) + ".jsonl");
  add_replay_metrics(replay, result);
  const auto totals = totals_by_name(replay.spans);
  double execute_ns = 0.0;
  double executes = 0.0;
  for (const auto& [name, t] : totals) {
    if (name.rfind("service.execute_request.", 0) == 0) {
      execute_ns += static_cast<double>(t.total_ns);
      executes += static_cast<double>(t.count);
    }
  }
  const double queue_wait = hist_mean(ref.snapshot, "pool.queue_wait_us");
  result.add("service.server.request_us", hist_mean(ref.snapshot, "svc.request_us"), "us");
  result.add("util.pool.queue_wait_us", queue_wait, "us");
  result.add("util.pool.task_run_us", hist_mean(ref.snapshot, "pool.task_run_us"), "us");
  if (best >= 0) {
    const Step& top = steps[static_cast<std::size_t>(best_step)];
    result.add("util.pool.busy_frac",
               pool_busy_us(top.snapshot) /
                   (c.get_double("workers") * (top.seconds + c.get_double("warmup_s")) * 1e6),
               "ratio");
  }
  const auto failing = std::find_if(rungs_run.begin(), rungs_run.end(),
                                    [&](std::size_t at) { return !steps[at].pass; });
  if (failing != rungs_run.end()) {
    const Step& first_fail = steps[*failing];
    const double shed = static_cast<double>(counter(first_fail.snapshot, "svc.requests.shed"));
    const double admitted = static_cast<double>(counter(first_fail.snapshot, "svc.requests.accepted"));
    result.add("service.server.shed_frac", shed + admitted > 0 ? shed / (shed + admitted) : 0.0,
               "ratio");
  }
  const auto mean_of = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.mean_self_us();
  };
  result.add("service.server.residual_us",
             ref.p50_us - (mean_of("service.protocol.parse_request") +
                           (executes > 0 ? execute_ns / 1e3 / executes : 0.0) +
                           mean_of("service.protocol.format_reply") + queue_wait),
             "us");
  result.add("bench.generator_late_p99_us", ref.late_p99_us, "us");
  return result;
}

}  // namespace perfbench
