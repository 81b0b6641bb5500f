// Shared harness for the figure/table reproduction benches.
//
// Each experiment runs an application on a fresh simulated machine and
// reports:
//   * modeled time — the max per-processor virtual clock (CM-5-like cost
//     model; the primary series, host-independent),
//   * wall time — host seconds (informative only; everything serializes
//     onto the host's cores),
//   * transport counters (messages, MB moved, polls, socket sweeps, sleeps),
//   * per-(space, protocol) DSM counters (ace::obs) — which space cost what.
// EXPERIMENTS.md records the model constants and the paper-vs-measured
// comparison for every row printed here.
//
// Every bench funnels its rows through bench::report(), which prints the
// uniform breakdown table and writes machine-readable BENCH_<name>.json
// (schema in EXPERIMENTS.md) for scripted consumption.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "adapt/advisor.hpp"
#include "am/delivery.hpp"
#include "apps/api.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace bench {

struct RunResult {
  double modeled_s = 0;  ///< max virtual clock, seconds
  /// Honest wall time: on the process backend the max across ranks of each
  /// rank's run() duration (real IPC!), else this process's measurement.
  double wall_s = 0;
  /// The transport counters (messages, bytes, polls, `recv` sweeps, sleeps,
  /// barriers), summed over ranks.
  ace::am::Stats am;
  /// Which backend carried the run ("thread" / "proc-socket").
  std::string backend = "thread";
  /// What the SPMD body returned: agreed bit for bit by every rank, or
  /// the rank-ordered sum of a Partial body's parts (0 for a body that
  /// returns nothing).  Only the harness writes it; compared bit-for-bit
  /// between backends by the conformance suite.
  double checksum = 0;
  /// The rank-ordered sum of a Partial body's `calls` (0 otherwise).
  std::uint64_t calls = 0;
  /// Per-(space, protocol) breakdown, merged across processors (for CRL
  /// runs: one pseudo-space labeled "CRL-SC").  Message/byte counts here
  /// cover space-attributed traffic (protocol, lock, and map messages);
  /// collective and barrier traffic stays machine-level in `am`.
  /// Segments that counted nothing at all are left out.
  std::vector<ace::obs::SpaceMetrics> spaces;
  /// Adaptive-advisor decision logs, when the run attached advisors
  /// (adapt::auto_space / auto modes); empty otherwise.  Serialized into the
  /// BENCH json's "advisor" section.
  std::vector<ace::adapt::SpaceDecisions> decisions;

  double mbytes() const { return static_cast<double>(am.bytes_sent) / 1e6; }
};

/// Optional per-run knobs (backend selection, virtual-time tracing, fault
/// injection).
struct RunOptions {
  /// Which Machine backend carries the processors (--backend=thread|proc).
  /// With kProc every run_ace/run_crl call forks its rank processes and
  /// joins them when the machine is destroyed at end of scope, so code
  /// after the call runs on rank 0 only.
  ace::am::Backend backend = ace::am::Backend::kThread;
  /// kWall makes modeled_s read the host clock too (--time=wall); wall_s is
  /// always honest wall time regardless.
  ace::am::TimeMode time_mode = ace::am::TimeMode::kModeled;
  /// When non-empty, record a trace and export it here as Chrome
  /// trace-event JSON (load in Perfetto / chrome://tracing).
  std::string trace_path;
  /// Non-zero: run under a seeded am::ChaosPolicy (legal delivery
  /// perturbation — see am/delivery.hpp).  Modeled times then include the
  /// injected jitter; the default 0 keeps the exact FIFO fast path.
  std::uint64_t chaos_seed = 0;
};

/// The run flags the paper benches share, as parse_run_options reads them.
struct RunFlags {
  std::uint32_t procs = 8;  ///< --procs
  std::uint64_t seed = 1;   ///< --seed (application input seed)
  bool trace = false;       ///< --trace
  RunOptions run;           ///< --backend, --time, --chaos-seed

  /// `run`, plus TRACE_<stem>.json as the trace file under --trace.
  RunOptions traced(const std::string& stem) const {
    RunOptions o = run;
    if (trace) o.trace_path = "TRACE_" + stem + ".json";
    return o;
  }
};

/// Read --procs --seed --backend --time --trace --chaos-seed.  Exits with
/// status 2 on an unknown --backend; the caller still owns cli.finish().
inline RunFlags parse_run_options(ace::Cli& cli) {
  RunFlags f;
  f.procs = static_cast<std::uint32_t>(cli.get_int("procs", f.procs));
  f.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(f.seed)));
  f.trace = cli.get_bool("trace", false);
  f.run.chaos_seed = static_cast<std::uint64_t>(cli.get_int("chaos-seed", 0));
  const std::string backend = cli.get_string("backend", "thread");
  if (!ace::am::parse_backend(backend, f.run.backend)) {
    std::fprintf(stderr, "unknown --backend=%s (want thread|proc)\n",
                 backend.c_str());
    std::exit(2);
  }
  if (cli.get_string("time", "modeled") == "wall")
    f.run.time_mode = ace::am::TimeMode::kWall;
  return f;
}

/// Build the machine a run asked for (the factory keeps benches
/// backend-neutral).  With Backend::kProc this forks: ranks 1..N-1 execute
/// the same SPMD code from here until the machine is destroyed.
inline std::unique_ptr<ace::am::Machine> make_machine(std::uint32_t procs,
                                                      const RunOptions& opt) {
  return ace::am::Machine::create(
      {.nprocs = procs, .backend = opt.backend, .time_mode = opt.time_mode});
}

/// The application API an SPMD body is handed on each runtime.
inline apps::AceApi api_for(ace::RuntimeProc& rp) { return apps::AceApi(rp); }
inline apps::CrlApi api_for(crl::CrlProc& cp) { return apps::CrlApi(cp); }

/// What a body returns when each rank holds only its part of the result
/// (a kernel's checksum over its own home regions, the calls it made).
struct Partial {
  double checksum = 0;
  std::uint64_t calls = 0;
};

/// The set-up phase of a run that has none.
struct NoSetup {
  NoSetup operator()(auto&) const { return {}; }
};

/// Run an SPMD body on a fresh machine and runtime `Rt` (ace::Runtime or
/// crl::CrlRuntime).  Unless `setup` is NoSetup, a set-up phase runs
/// first: `setup(api)` returns this processor's state, which stays in the
/// harness's slot for that processor, and the machine's stats and the
/// runtime's per-space metrics are reset, so the row measures the body
/// alone.  The body `fn(api, state)` returns the run's checksum (a double),
/// nothing, or its rank's Partial.  Each processor's value leaves the run
/// through the one Machine::gather: a double must agree bit for bit across
/// ranks, and Partials are summed in rank order from rank 0.
template <class Rt, class Setup, class Fn>
RunResult run(std::uint32_t procs, Setup&& setup, Fn&& fn,
              const RunOptions& opt) {
  constexpr bool kSetup = !std::is_same_v<std::decay_t<Setup>, NoSetup>;
  static_assert(!kSetup || std::is_same_v<Rt, ace::Runtime>,
                "only the Ace runtime keeps per-space metrics to reset");
  auto machine_ptr = make_machine(procs, opt);
  ace::am::Machine& machine = *machine_ptr;
  Rt rt(machine);
  if (opt.chaos_seed != 0) machine.set_chaos({.seed = opt.chaos_seed});
  using Api = std::conditional_t<std::is_same_v<Rt, ace::Runtime>,
                                 apps::AceApi, apps::CrlApi>;
  using State = std::invoke_result_t<Setup&, Api&>;
  using R = std::invoke_result_t<Fn&, Api&, State&>;
  static_assert(std::is_void_v<R> || std::is_same_v<R, double> ||
                    std::is_same_v<R, Partial>,
                "an SPMD body returns its checksum (double), its Partial or "
                "nothing");
  // One slot per processor, written only by that processor.
  std::vector<State> states(procs);
  std::vector<Partial> parts(procs);
  if constexpr (kSetup) {
    rt.run([&](auto& proc) {
      auto api = api_for(proc);
      states[proc.me()] = setup(api);
    });
    machine.reset_stats();
    rt.reset_metrics();
  }
  // The trace covers the body only: set-up events would overlap it in
  // virtual time once the clocks are reset.
  if (!opt.trace_path.empty()) machine.enable_tracing();
  rt.run([&](auto& proc) {
    auto api = api_for(proc);
    State& state = states[proc.me()];
    if constexpr (std::is_void_v<R>)
      fn(api, state);
    else if constexpr (std::is_same_v<R, Partial>)
      parts[proc.me()] = fn(api, state);
    else
      parts[proc.me()].checksum = fn(api, state);
  });
  if (!opt.trace_path.empty() && machine.is_primary()) {
    if (machine.write_trace(opt.trace_path))
      std::fprintf(stderr, "trace written to %s\n", opt.trace_path.c_str());
    else
      std::fprintf(stderr, "trace write FAILED: %s\n", opt.trace_path.c_str());
  }
  RunResult r;
  const auto gathered =
      machine.gather([&](ace::am::Proc& p) { return parts[p.id()]; });
  r.checksum = std::is_same_v<R, Partial> ? 0.0 : gathered[0].checksum;
  for (const Partial& part : gathered) {
    if constexpr (std::is_same_v<R, Partial>) {
      r.checksum += part.checksum;
      r.calls += part.calls;
    } else if (machine.is_primary()) {
      ACE_CHECK_MSG(
          std::memcmp(&part.checksum, &r.checksum, sizeof r.checksum) == 0,
          "ranks returned different checksums");
    }
  }
  r.modeled_s = static_cast<double>(machine.max_vclock_ns()) * 1e-9;
  r.wall_s = static_cast<double>(machine.last_run_wall_ns()) * 1e-9;
  r.backend = ace::am::backend_name(machine.backend());
  r.am = machine.aggregate_stats();
  if constexpr (std::is_same_v<Rt, ace::Runtime>) {
    r.spaces = rt.aggregate_space_metrics();
    r.decisions = ace::adapt::collect_decisions(rt);
  } else {
    // CRL has no spaces; surface its counters as one pseudo-space row so
    // the BENCH json schema is uniform across the Ace/CRL comparison.
    ace::obs::SpaceMetrics m;
    m.protocol = "CRL-SC";
    m.dsm = rt.aggregate_stats();
    m.msgs = r.am.msgs_sent;
    m.bytes = r.am.bytes_sent;
    r.spaces.push_back(std::move(m));
  }
  std::erase_if(r.spaces, [](const ace::obs::SpaceMetrics& m) {
    return m.dsm == ace::DsmStats{} && m.msgs == 0 && m.bytes == 0;
  });
  return r;
  // ~Machine here: on the process backend ranks 1..N-1 exit inside it, so
  // everything after a run is rank-0-only code.
}

/// Ace and CRL runs of a body `fn(api)` without a set-up phase.
template <class Fn>
RunResult run_ace(std::uint32_t procs, Fn&& fn, const RunOptions& opt = {}) {
  return run<ace::Runtime>(
      procs, NoSetup{}, [&fn](auto& api, NoSetup&) { return fn(api); }, opt);
}
template <class Fn>
RunResult run_crl(std::uint32_t procs, Fn&& fn, const RunOptions& opt = {}) {
  return run<crl::CrlRuntime>(
      procs, NoSetup{}, [&fn](auto& api, NoSetup&) { return fn(api); }, opt);
}

/// An Ace run with a set-up phase: `fn(api, state)` (see run).
template <class Setup, class Fn>
RunResult run_ace(std::uint32_t procs, Setup&& setup, Fn&& fn,
                  const RunOptions& opt) {
  return run<ace::Runtime>(procs, std::forward<Setup>(setup),
                           std::forward<Fn>(fn), opt);
}

/// Sum `r` into `into` (multi-instance benches like TSP average out noise
/// by accumulating several runs into one row).  Space rows merge by
/// (space, protocol).
inline void accumulate(RunResult& into, const RunResult& r) {
  into.modeled_s += r.modeled_s;
  into.wall_s += r.wall_s;
  into.am.merge(r.am);
  into.checksum += r.checksum;
  into.calls += r.calls;
  into.backend = r.backend;
  auto all = into.spaces;
  all.insert(all.end(), r.spaces.begin(), r.spaces.end());
  into.spaces = ace::obs::merge_by_key(all);
}

/// One labeled result for bench::report — e.g. {"em3d", "ace-custom", res}.
struct Row {
  std::string label;    ///< what ran (app, configuration, grain size, ...)
  std::string variant;  ///< which system/strategy produced it ("" if n/a)
  RunResult res;
};

/// Serialize `rows` as the BENCH_<name>.json document (schema: see
/// EXPERIMENTS.md).  Returned string ends with a newline.
inline std::string to_json(const std::string& name,
                           const std::vector<Row>& rows) {
  ace::obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", name);
  w.key("rows");
  w.begin_array();
  for (const auto& row : rows) {
    w.begin_object();
    w.kv("label", row.label);
    w.kv("variant", row.variant);
    w.kv("backend", row.res.backend);
    w.kv("modeled_s", row.res.modeled_s);
    w.kv("wall_s", row.res.wall_s);
    w.kv("msgs", row.res.am.msgs_sent);
    w.kv("mbytes", row.res.mbytes());
    for (const auto& [name, field] : ace::am::kStatsFields)
      w.kv(name, row.res.am.*field);
    w.kv("checksum", row.res.checksum);
    {
      // Exact bit pattern next to the (rounded) decimal rendering, so
      // cross-backend parity can be asserted from the json alone.
      std::uint64_t bits = 0;
      std::memcpy(&bits, &row.res.checksum, sizeof bits);
      w.kv("checksum_bits", bits);
    }
    w.key("spaces");
    w.begin_array();
    for (const auto& sm : row.res.spaces) {
      w.begin_object();
      w.kv("space", static_cast<std::uint64_t>(sm.space));
      w.kv("protocol", sm.protocol);
      for (const auto& [name, field] : ace::kDsmFields)
        w.kv(name, sm.dsm.*field);
      w.kv("msgs", sm.msgs);
      w.kv("bytes", sm.bytes);
      w.end_object();
    }
    w.end_array();
    if (!row.res.decisions.empty()) {
      // Compact advisor log (the full signatures/cost vectors live in the
      // ADVISOR_<tag>.json written by ace::adapt::write_report).
      w.key("advisor");
      w.begin_array();
      for (const auto& sd : row.res.decisions) {
        w.begin_object();
        w.kv("space", static_cast<std::uint64_t>(sd.space));
        w.kv("mode", sd.execute ? "auto" : "advise");
        w.key("decisions");
        w.begin_array();
        for (const auto& d : sd.decisions) {
          w.begin_object();
          w.kv("epoch", d.epoch);
          w.kv("current", d.current);
          w.kv("chosen", d.chosen);
          w.kv("reason", d.reason);
          w.kv("switched", d.switched);
          w.end_object();
        }
        w.end_array();
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str() + "\n";
}

/// Print the uniform breakdown table (one line per run plus an indented
/// line per space) and write BENCH_<name>.json to the working directory.
inline void report(const std::string& name, const std::vector<Row>& rows) {
  ace::Table t({"run", "variant", "modeled(s)", "wall(s)", "msgs", "MB",
                "space", "protocol", "rd miss", "wr miss"});
  for (const auto& row : rows) {
    t.add_row({row.label, row.variant, ace::fmt_f(row.res.modeled_s, 4),
               ace::fmt_f(row.res.wall_s, 3),
               ace::fmt_i(static_cast<long long>(row.res.am.msgs_sent)),
               ace::fmt_f(row.res.mbytes(), 2), "", "", "", ""});
    for (const auto& sm : row.res.spaces) {
      t.add_row({"", "", "", "",
                 ace::fmt_i(static_cast<long long>(sm.msgs)),
                 ace::fmt_f(static_cast<double>(sm.bytes) / 1e6, 2),
                 ace::fmt_i(sm.space), sm.protocol,
                 ace::fmt_i(static_cast<long long>(sm.dsm.read_misses)),
                 ace::fmt_i(static_cast<long long>(sm.dsm.write_misses))});
    }
  }
  std::printf("\n-- %s: per-space breakdown --\n", name.c_str());
  t.print();

  const std::string path = "BENCH_" + name + ".json";
  const std::string doc = to_json(name, rows);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace bench
