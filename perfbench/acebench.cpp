// acebench: one iteration of one workload of the repository benchmark.
//
// perfbench/run.py runs this binary once per iteration, so an abort, a
// watchdog hang or a failing child rank costs one iteration (counted in the
// run's `failed`), not the whole run.  Each invocation prints one JSON
// object on stdout; README.md lists its fields.
//
//   acebench --workload=NAME --seed=N [--trace=0|1]
//
// --trace=1 instantiates the applications over BenchApi<true>
// (layer_api.hpp), which times every call into the Ace runtime from outside.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "acec/annotate.hpp"
#include "acec/kernels.hpp"
#include "acec/lint.hpp"
#include "acec/passes.hpp"
#include "acec/verify.hpp"
#include "apps/em3d.hpp"
#include "apps/miglock.hpp"
#include "common/cli.hpp"
#include "layer_api.hpp"
#include "obs/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;
using ace::am::Backend;
using ace::am::ProcId;

constexpr std::uint32_t kProcs = 4;
// A blocked wait this long is a hang: the deadlock report aborts the
// iteration well inside run.py's per-iteration timeout.
constexpr std::uint32_t kWatchdogMs = 30'000;

enum class App { kEm3d, kMigLock, kKernels };

/// The workloads (README.md says why each exists).  `length` is EM3D time
/// steps, MigLock rounds per processor, or the Table-4 kernel scale.
struct Workload {
  const char* name;
  App app;
  Backend backend;
  const char* protocol;
  bool map_per_access;
  std::uint32_t length;
};

constexpr Workload kWorkloads[] = {
    {"em3d-sc-proc", App::kEm3d, Backend::kProc, ace::proto_names::kSC, true,
     25},
    {"em3d-static-thread", App::kEm3d, Backend::kThread,
     ace::proto_names::kStaticUpdate, false, 500},
    {"miglock-sc-thread", App::kMigLock, Backend::kThread,
     ace::proto_names::kSC, false, 25'000},
    {"kernels-dc-thread", App::kKernels, Backend::kThread, "", false, 25},
};

/// One iteration's outcome.  `ok` turns false when an output check fails.
struct Result {
  bool ok = true;
  std::string why;
  double setup_s = 0;
  double wall_s = 0;
  double modeled_s = 0;
  std::uint64_t msgs = 0;
  double peak_rss_mb = 0;
  double checksum = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counts;  ///< layers
  std::vector<std::pair<std::string, double>> reals;          ///< layers
  struct XCheck {
    std::string name;
    std::uint64_t outside, runtime;
  };
  std::vector<XCheck> xchecks;

  void fail(const std::string& w) {
    if (ok) why = w;
    ok = false;
  }
  void count(std::string name, std::uint64_t v) {
    counts.emplace_back(std::move(name), v);
  }
  void real(std::string name, double v) {
    reals.emplace_back(std::move(name), v);
  }
};

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::string hex(std::uint64_t bits) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, bits);
  return buf;
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

/// Peak resident set, in MiB, of this process and of every rank it forked
/// and reaped.  This process's own peak is VmHWM: RUSAGE_SELF would carry
/// the peak of whatever process exec'd this one.
double peak_rss_mb() {
  long self_kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &self_kb) == 1) break;
    std::fclose(f);
  }
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);  // ru_maxrss is in KiB on Linux
  return static_cast<double>(std::max(self_kb, kids.ru_maxrss)) / 1024.0;
}

ace::DsmStats dsm_total(const std::vector<ace::obs::SpaceMetrics>& spaces) {
  ace::DsmStats d;
  for (const auto& s : spaces) d.merge(s.dsm);
  return d;
}

/// The runtime's own counters: the `dsm`, `protocols` and `am` layers.
/// Needs r.wall_s set.
void add_counter_layers(Result& r, const ace::DsmStats& d,
                        const ace::am::Stats& am) {
  r.count("dsm.maps", d.maps);
  r.count("dsm.map_meta_misses", d.map_meta_misses);
  r.count("protocols.read_misses", d.read_misses);
  r.count("protocols.write_misses", d.write_misses);
  r.count("protocols.invalidations", d.invalidations);
  r.real("protocols.inv_per_write", ratio(d.invalidations, d.start_writes));
  r.count("protocols.recalls", d.recalls);
  r.count("protocols.updates", d.updates);
  r.count("protocols.fetches", d.fetches);
  r.count("protocols.writebacks", d.writebacks);
  r.count("am.msgs", am.msgs_sent);
  r.real("am.mbytes", static_cast<double>(am.bytes_sent) / 1e6);
  r.count("am.polls", am.polls);
  r.count("am.barriers", am.barriers);
  r.real("am.msgs_per_poll", ratio(am.msgs_received, am.polls));
  r.real("am.us_per_msg",
         am.msgs_sent == 0
             ? 0.0
             : r.wall_s * 1e6 / static_cast<double>(am.msgs_sent));
}

/// The `ace` and `apps` layers from the gathered rank records, and the
/// cross-check of the outside call counts against the runtime's counters.
void add_call_layers(Result& r, const std::vector<RankRecord>& recs,
                     const ace::DsmStats& d) {
  std::array<FamilyAcc, kFamilies> fam{};
  Hist read_lat, write_lat, lock_lat;
  double compute_ns = 0;
  for (const RankRecord& rec : recs) {
    std::uint64_t busy = 0;
    for (unsigned f = 0; f < kFamilies; ++f) {
      fam[f].calls += rec.fam[f].calls;
      fam[f].closes += rec.fam[f].closes;
      fam[f].busy_ns += rec.fam[f].busy_ns;
      busy += rec.fam[f].busy_ns;
    }
    read_lat.merge(rec.read_lat);
    write_lat.merge(rec.write_lat);
    lock_lat.merge(rec.lock_lat);
    compute_ns += static_cast<double>(rec.end_ns - rec.body_start_ns) -
                  static_cast<double>(busy);
  }
  // Busy and compute times are means per rank, comparable with wall_s.
  const double per_rank_s = 1e-9 / kProcs;
  for (unsigned f = 0; f < kFamilies; ++f) {
    const std::string base = std::string("ace.") + kFamilyName[f];
    if (f != kColl) r.count(base + ".calls", fam[f].calls);
    r.real(base + ".busy_s", static_cast<double>(fam[f].busy_ns) * per_rank_s);
  }
  r.real("ace.read.p50_us", read_lat.quantile_ns(0.50) / 1e3);
  r.real("ace.read.p99_us", read_lat.quantile_ns(0.99) / 1e3);
  r.real("ace.write.p99_us", write_lat.quantile_ns(0.99) / 1e3);
  r.real("ace.lock.p99_us", lock_lat.quantile_ns(0.99) / 1e3);
  r.real("apps.compute_s", compute_ns * per_rank_s);

  r.xchecks = {
      {"start_reads", fam[kRead].calls, d.start_reads},
      {"start_writes", fam[kWrite].calls, d.start_writes},
      {"maps", fam[kMap].calls, d.maps},
      {"unmaps", fam[kMap].closes, d.unmaps},
      {"locks", fam[kLock].calls, d.locks},
      {"unlocks", fam[kLock].closes, d.unlocks},
      {"barriers", fam[kBarrier].calls, d.barriers},
      {"acquires+releases", fam[kAcqRel].calls, d.acquires + d.releases},
  };
  for (const auto& x : r.xchecks)
    if (x.outside != x.runtime)
      r.fail("outside " + x.name + " count differs from the runtime's");
}

/// EM3D's oracle: every final node value equals em3d_reference's, and the
/// checksum equals the reference values folded the way allreduce_sum folds
/// them (per-rank partial sums, added in rank order), bit for bit.
void check_em3d(Result& r, const apps::Em3dParams& p,
                const apps::Em3dResult& out) {
  const auto [e, h] = apps::em3d_reference(p, kProcs);
  if (out.e_final != e || out.h_final != h) {
    r.fail("EM3D node values differ from em3d_reference");
    return;
  }
  double want = 0;
  for (ProcId rank = 0; rank < kProcs; ++rank) {
    double local = 0;
    for (std::size_t i = 0; i < e.size(); ++i)
      if (apps::rr_owner(i, kProcs) == rank) local += e[i];
    for (std::size_t i = 0; i < h.size(); ++i)
      if (apps::rr_owner(i, kProcs) == rank) local += h[i];
    want += local;
  }
  if (bits_of(out.checksum) != bits_of(want))
    r.fail("EM3D checksum bits differ from the rank-ordered reference sum");
}

/// MigLock's oracle: each critical section adds updates*(updates+1)/2 to
/// one counter, so the counters sum to exactly this.
void check_miglock(Result& r, const apps::MigLockParams& p, double checksum) {
  const std::uint64_t want = std::uint64_t{kProcs} * p.rounds *
                             (p.updates * (p.updates + 1) / 2);
  if (checksum != static_cast<double>(want))
    r.fail("MigLock checksum is not procs*rounds*updates*(updates+1)/2");
}

/// EM3D or MigLock on a fresh machine.  Set-up runs from Machine::create to
/// the end of the application's first barrier; the measured run from there
/// to the end of the SPMD body (both the max across ranks).
Result run_app(const Workload& w, std::uint64_t seed, bool traced) {
  apps::Em3dParams ep;
  ep.seed = seed;
  ep.steps = w.length;
  ep.protocol = w.protocol;
  ep.map_per_access = w.map_per_access;
  apps::MigLockParams mp;
  mp.n_locks = 4;
  mp.rounds = w.length;
  mp.reads = 4;
  mp.updates = 2;
  mp.protocol = w.protocol;

  std::vector<RankRecord> recs(kProcs);
  apps::Em3dResult out;  // rank 0's result (MigLock fills the checksum)
  ace::DsmStats dsm;
  ace::am::Stats am;
  double modeled_s = 0;
  const std::uint64_t t_create = now_ns();
  {
    const auto machine = ace::am::Machine::create(
        {.nprocs = kProcs, .backend = w.backend, .watchdog_ms = kWatchdogMs});
    ace::Runtime rt(*machine);
    rt.run([&](ace::RuntimeProc& rp) {
      RankRecord& rec = recs[rp.me()];
      rec.body_start_ns = now_ns();
      apps::AceApi inner(rp);
      const auto body = [&](auto& api) {
        if (w.app == App::kEm3d) {
          apps::Em3dResult res = apps::em3d_run(api, ep);
          if (rp.me() == 0) out = std::move(res);
        } else {
          const double ck = apps::miglock_run(api, mp).checksum;
          if (rp.me() == 0) out.checksum = ck;
        }
      };
      if (traced) {
        BenchApi<true> api(inner, rec);
        body(api);
      } else {
        BenchApi<false> api(inner, rec);
        body(api);
      }
      rec.end_ns = now_ns();
    });
    // Collectives on the process backend: every rank takes part and rank 0
    // receives the machine-wide view.
    dsm = dsm_total(rt.aggregate_space_metrics());
    if (machine->multiprocess()) {
      const ProcId me = machine->self_rank();
      std::vector<std::byte> mine(sizeof(RankRecord));
      std::memcpy(mine.data(), &recs[me], sizeof(RankRecord));
      const auto blobs = machine->gather_blobs(mine);
      if (machine->is_primary())
        for (ProcId p = 0; p < kProcs; ++p) {
          ACE_CHECK(blobs[p].size() == sizeof(RankRecord));
          std::memcpy(&recs[p], blobs[p].data(), sizeof(RankRecord));
        }
    }
    am = machine->aggregate_stats();
    modeled_s = static_cast<double>(machine->max_vclock_ns()) * 1e-9;
  }  // ~Machine: on the process backend ranks 1..3 exit here.

  Result r;
  for (const RankRecord& rec : recs) {
    if (rec.first_barrier_ns == 0 || rec.end_ns == 0) {
      r.fail("a rank recorded no barrier or no end");
      continue;
    }
    r.setup_s = std::max(
        r.setup_s, static_cast<double>(rec.first_barrier_ns - t_create) * 1e-9);
    r.wall_s = std::max(
        r.wall_s,
        static_cast<double>(rec.end_ns - rec.first_barrier_ns) * 1e-9);
  }
  r.modeled_s = modeled_s;
  r.msgs = am.msgs_sent;
  r.checksum = out.checksum;
  if (w.app == App::kEm3d)
    check_em3d(r, ep, out);
  else
    check_miglock(r, mp, out.checksum);
  add_counter_layers(r, dsm, am);
  // Only here: on the kernels the interpreter's direct calls (the DC level)
  // bypass the start_reads counter, so the ratio would have no base.
  r.real("protocols.read_hit_ratio",
         1.0 - ratio(dsm.read_misses, dsm.start_reads));
  if (traced) add_call_layers(r, recs, dsm);
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

/// Compile one kernel annotate→LI→MC→DC and verify every stage and every
/// pass delta, as table4_compiler_opts does.  Returns the diagnostic count.
std::size_t compile_kernel(const ace::ir::KernelCase& kc,
                           const ace::Registry& reg, ace::ir::PassReport& rep,
                           ace::ir::Function& dc, std::uint64_t& compile_ns,
                           std::uint64_t& verify_ns) {
  using namespace ace::ir;
  const auto& sp = kc.space_protocols;
  const std::uint64_t t0 = now_ns();
  const Function base = annotate(kc.program);
  const Function li =
      opt_loop_invariance(base, analyze(base, sp, reg), &rep);
  const Function mc = opt_merge_calls(li, analyze(li, sp, reg), &rep);
  dc = opt_direct_calls(mc, analyze(mc, sp, reg), reg, &rep);
  const std::uint64_t t1 = now_ns();

  std::vector<Diag> diags;
  const auto add = [&](const std::vector<Diag>& ds) {
    diags.insert(diags.end(), ds.begin(), ds.end());
  };
  const auto stage = [&](const Function& f, bool post_dc) {
    add(verify(f, sp, reg, {.null_hooks_elided = post_dc}));
    add(lint(f, analyze(f, sp, reg)));
  };
  stage(base, false);
  add(check_pass(base, li, PassKind::kLoopInvariance, sp, reg));
  stage(li, false);
  add(check_pass(li, mc, PassKind::kMergeCalls, sp, reg));
  stage(mc, false);
  add(check_pass(mc, dc, PassKind::kDirectCalls, sp, reg));
  stage(dc, true);
  verify_ns += now_ns() - t1;
  compile_ns += t1 - t0;
  if (!diags.empty()) std::fputs(to_string(diags).c_str(), stderr);
  return diags.size();
}

struct KernelRun {
  double checksum = 0;
  double setup_s = 0;  ///< machine, runtime and the kernel's own set-up
  double wall_s = 0;
  double modeled_s = 0;
  ace::DsmStats dsm;
  ace::am::Stats am;
  std::uint64_t insts = 0, protocol_calls = 0, interp_ns = 0;
};

/// One kernel on a fresh machine: `f` through the interpreter, or the
/// hand-optimized version when `f` is null.  Mirrors table4_compiler_opts'
/// run_variant (stats reset after set-up), so the numbers compare.
KernelRun run_kernel(const ace::ir::KernelCase& kc,
                     const ace::ir::Function* f) {
  using namespace ace::ir;
  KernelRun k;
  const std::uint64_t t0 = now_ns();
  const auto machine = ace::am::Machine::create(
      {.nprocs = kProcs, .watchdog_ms = kWatchdogMs});
  ace::Runtime rt(*machine);
  std::vector<KernelArgs> args(kProcs);
  rt.run([&](ace::RuntimeProc& rp) { args[rp.me()] = kc.setup(rp); });
  machine->reset_stats();
  rt.reset_metrics();
  k.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

  std::vector<ExecStats> es(kProcs);
  std::vector<std::uint64_t> ns(kProcs, 0);
  std::vector<double> sums(kProcs, 0);
  rt.run([&](ace::RuntimeProc& rp) {
    const ProcId me = rp.me();
    const std::uint64_t e0 = now_ns();
    if (f != nullptr)
      es[me] = execute(*f, rp, args[me]);
    else
      kc.hand(rp, args[me]);
    ns[me] = now_ns() - e0;
    rp.proc().barrier();
    sums[me] = kc.checksum(rp, args[me]);
  });
  k.wall_s = static_cast<double>(machine->last_run_wall_ns()) * 1e-9;
  k.modeled_s = static_cast<double>(machine->max_vclock_ns()) * 1e-9;
  k.am = machine->aggregate_stats();
  k.dsm = dsm_total(rt.aggregate_space_metrics());
  for (ProcId p = 0; p < kProcs; ++p) {
    k.checksum += sums[p];
    k.insts += es[p].insts;
    k.protocol_calls += es[p].protocol_calls;
    k.interp_ns += ns[p];
  }
  return k;
}

/// Table 4's five kernels at the DC level.  Set-up covers the registry,
/// compiling and verifying all five, and each kernel's machine, runtime and
/// own set-up; the measured run is the five interpreted executions.  The
/// hand-optimized versions, the oracle, run afterwards and are not measured.
/// The interpreter calls the runtime directly, not through the Api concept,
/// so the `ace` call timings do not exist here; `acec` stands in.
Result run_kernels(std::uint32_t scale) {
  using namespace ace::ir;
  Result r;
  const std::uint64_t t0 = now_ns();
  const ace::Registry reg = ace::Registry::with_builtins();
  const std::vector<KernelCase> cases = table4_cases(scale);
  PassReport rep;
  std::vector<Function> dcs(cases.size());
  std::uint64_t compile_ns = 0, verify_ns = 0;
  std::size_t ndiags = 0;
  for (std::size_t i = 0; i < cases.size(); ++i)
    ndiags += compile_kernel(cases[i], reg, rep, dcs[i], compile_ns, verify_ns);
  r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (ndiags != 0) r.fail("acec verification reported diagnostics");

  ace::DsmStats dsm;
  ace::am::Stats am;
  std::uint64_t insts = 0, calls = 0, interp_ns = 0;
  std::vector<double> dc_sums(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const KernelRun k = run_kernel(cases[i], &dcs[i]);
    r.setup_s += k.setup_s;
    r.wall_s += k.wall_s;
    r.modeled_s += k.modeled_s;
    r.checksum += k.checksum;
    dsm.merge(k.dsm);
    am.merge(k.am);
    insts += k.insts;
    calls += k.protocol_calls;
    interp_ns += k.interp_ns;
    dc_sums[i] = k.checksum;
  }
  r.msgs = am.msgs_sent;
  add_counter_layers(r, dsm, am);
  r.real("acec.compile_s", static_cast<double>(compile_ns) * 1e-9);
  r.real("acec.verify_s", static_cast<double>(verify_ns) * 1e-9);
  r.count("acec.insts", insts);
  r.count("acec.protocol_calls", calls);
  r.count("acec.hoisted", rep.hoisted_maps + rep.hoisted_pairs);
  r.count("acec.merged", rep.merged_maps + rep.merged_pairs);
  r.count("acec.direct", rep.direct_calls);
  r.count("acec.removed_null", rep.removed_null);
  r.real("acec.interp_ns_per_inst", ratio(interp_ns, insts));
  r.peak_rss_mb = peak_rss_mb();  // before the oracle runs add to it

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const double want = run_kernel(cases[i], nullptr).checksum;
    // The tolerance table4_compiler_opts applies across optimization levels.
    if (std::abs(dc_sums[i] - want) > 1e-9 * std::max(1.0, std::abs(want)))
      r.fail(cases[i].name + ": DC checksum differs from the hand version's");
  }
  return r;
}

std::string to_json(const Result& r) {
  ace::obs::JsonWriter j;
  j.begin_object();
  j.kv("ok", r.ok);
  j.kv("why", r.why);
  j.kv("setup_s", r.setup_s);
  j.kv("wall_s", r.wall_s);
  j.kv("modeled_s", r.modeled_s);
  j.kv("msgs", r.msgs);
  j.kv("peak_rss_mb", r.peak_rss_mb);
  j.kv("checksum_bits", hex(bits_of(r.checksum)));
  j.key("layers");
  j.begin_object();
  for (const auto& [name, v] : r.counts) j.kv(name, v);
  for (const auto& [name, v] : r.reals) j.kv(name, v);
  j.end_object();
  j.key("xcheck");
  j.begin_object();
  for (const auto& x : r.xchecks) {
    j.key(x.name);
    j.begin_array();
    j.value(x.outside);
    j.value(x.runtime);
    j.end_array();
  }
  j.end_object();
  j.kv("build_type", PERFBENCH_BUILD_TYPE);
  j.kv("compiler", PERFBENCH_COMPILER);
  j.end_object();
  return std::move(j).str();
}

}  // namespace

int main(int argc, char** argv) {
  ace::Cli cli(argc, argv);
  const std::string name = cli.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bool traced = cli.get_int("trace", 0) != 0;
  cli.finish();

  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads)
    if (name == c.name) w = &c;
  if (w == nullptr) {
    std::fprintf(stderr, "acebench: unknown --workload=%s\n", name.c_str());
    return 2;
  }
  const Result r =
      w->app == App::kKernels ? run_kernels(w->length) : run_app(*w, seed, traced);
  std::printf("%s\n", to_json(r).c_str());
  return 0;
}
