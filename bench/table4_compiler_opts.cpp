// Table 4 reproduction: "Effects of compiler optimizations on benchmarks".
//
// For each application kernel (running under its best protocols, as §5.3
// does) we execute, on a fresh simulated machine each time:
//
//   Base case                 — annotator output, no optimization
//   Loop Invariance (LI)      — + hoisted maps/start/end
//   LI + Merging Calls (MC)   — + merged redundant protocol calls
//   LI + MC + Direct Calls    — + devirtualized dispatches, null calls gone
//   Hand-optimized            — the runtime-system version an experienced
//                               programmer writes (§5.3)
//
// Every optimization level must produce the same result; the harness
// verifies a checksum across levels before printing.  Expected shape
// (paper): BSC's big win comes at LI (the matrix-product loops), most other
// gains at MC, EM3D's extra kick at DC (null static-update handlers in the
// tight kernel), and the best compiled code lands within ~1.1-1.3x of hand.
//
// Usage: table4_compiler_opts [--procs=8] [--scale=2]

#include <cmath>
#include <cstdio>

#include "acec/annotate.hpp"
#include "acec/kernels.hpp"
#include "acec/lint.hpp"
#include "acec/passes.hpp"
#include "acec/verify.hpp"
#include "bench/harness.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

namespace {

using namespace ace;
using namespace ace::ir;

struct Variant {
  std::string name;
  bench::RunResult res;
  double checksum = 0;
  std::uint64_t protocol_calls = 0;
};

/// Run one prepared IR function (or the hand version when f == nullptr).
Variant run_variant(const std::string& name, const KernelCase& kc,
                    const Function* f, std::uint32_t procs) {
  auto machine_ptr = am::Machine::create({.nprocs = procs});
  am::Machine& machine = *machine_ptr;
  Runtime rt(machine);
  std::vector<KernelArgs> args(procs);
  rt.run([&](RuntimeProc& rp) { args[rp.me()] = kc.setup(rp); });
  machine.reset_stats();
  rt.reset_metrics();  // exclude setup traffic from the per-space breakdown

  Variant v;
  v.name = name;
  std::vector<std::uint64_t> calls(procs, 0);
  std::vector<double> sums(procs, 0);
  const auto t0 = std::chrono::steady_clock::now();
  rt.run([&](RuntimeProc& rp) {
    if (f != nullptr) {
      const ExecStats es = execute(*f, rp, args[rp.me()]);
      calls[rp.me()] = es.protocol_calls;
    } else {
      kc.hand(rp, args[rp.me()]);
    }
    rp.proc().barrier();
    sums[rp.me()] = kc.checksum(rp, args[rp.me()]);
  });
  const auto t1 = std::chrono::steady_clock::now();
  v.res.modeled_s = static_cast<double>(machine.max_vclock_ns()) * 1e-9;
  v.res.wall_s = std::chrono::duration<double>(t1 - t0).count();
  bench::record_transport(v.res, machine.aggregate_stats());
  v.res.spaces = rt.aggregate_space_metrics();
  for (std::uint32_t p = 0; p < procs; ++p) {
    v.checksum += sums[p];
    v.protocol_calls += calls[p];
  }
  return v;
}

/// Static verification of one stage (annotation verifier + protocol linter);
/// prints any diagnostics and returns their count so main() can fail fast —
/// timing an IR that flunks the verifier would be timing a miscompile.
std::size_t verify_stage(const KernelCase& kc, const Function& f,
                         const Registry& registry, bool post_dc) {
  const VerifyOptions vo{.null_hooks_elided = post_dc};
  auto diags = verify(f, kc.space_protocols, registry, vo);
  const auto lints = lint(f, analyze(f, kc.space_protocols, registry));
  diags.insert(diags.end(), lints.begin(), lints.end());
  if (!diags.empty()) std::fputs(to_string(diags).c_str(), stderr);
  return diags.size();
}

std::size_t report_diags(std::vector<Diag> diags) {
  if (!diags.empty()) std::fputs(to_string(diags).c_str(), stderr);
  return diags.size();
}

}  // namespace

int main(int argc, char** argv) {
  ace::Cli cli(argc, argv);
  const auto procs = static_cast<std::uint32_t>(cli.get_int("procs", 8));
  const auto scale = static_cast<std::uint32_t>(cli.get_int("scale", 2));
  cli.finish();

  std::printf(
      "Table 4: effects of compiler optimizations (procs=%u, scale=%u)\n"
      "Each kernel runs under its best protocols; all rows of a column must\n"
      "compute the same result (verified by checksum).\n\n",
      procs, scale);

  const Registry registry = Registry::with_builtins();
  auto cases = table4_cases(scale);

  ace::Table t({"Optimization", "Barnes-Hut", "BSC", "EM3D", "TSP", "Water"});
  std::vector<std::vector<double>> times(5);  // [variant][app]
  std::vector<bench::Row> rep_rows;
  std::vector<std::string> vnames = {"Base case", "Loop Invariance (LI)",
                                     "LI + Merging Calls (MC)",
                                     "LI + MC + Direct Calls",
                                     "Hand-optimized"};

  for (auto& kc : cases) {
    const Function base = annotate(kc.program);
    PassReport rep;
    const Function li = opt_loop_invariance(
        base, analyze(base, kc.space_protocols, registry), &rep);
    const Function mc =
        opt_merge_calls(li, analyze(li, kc.space_protocols, registry), &rep);
    const Function dc = opt_direct_calls(
        mc, analyze(mc, kc.space_protocols, registry), registry, &rep);

    // Translation validation: the verifier must be clean after annotation
    // and after every pass, and each pass must preserve the protocol-call
    // multiset modulo the legal Figure-6 merges.
    std::size_t ndiags = 0;
    ndiags += verify_stage(kc, base, registry, /*post_dc=*/false);
    ndiags += report_diags(check_pass(base, li, PassKind::kLoopInvariance,
                                      kc.space_protocols, registry));
    ndiags += verify_stage(kc, li, registry, /*post_dc=*/false);
    ndiags += report_diags(check_pass(li, mc, PassKind::kMergeCalls,
                                      kc.space_protocols, registry));
    ndiags += verify_stage(kc, mc, registry, /*post_dc=*/false);
    ndiags += report_diags(check_pass(mc, dc, PassKind::kDirectCalls,
                                      kc.space_protocols, registry));
    ndiags += verify_stage(kc, dc, registry, /*post_dc=*/true);
    std::printf("%-11s acelint: %s\n", kc.name.c_str(),
                ndiags == 0 ? "clean (base/li/mc/dc + pass deltas)"
                            : "DIAGNOSTICS");
    if (ndiags != 0) {
      std::fprintf(stderr, "FATAL: %s failed static verification (%zu)\n",
                   kc.name.c_str(), ndiags);
      return 1;
    }

    const Variant v_base = run_variant("base", kc, &base, procs);
    const Variant v_li = run_variant("li", kc, &li, procs);
    const Variant v_mc = run_variant("mc", kc, &mc, procs);
    const Variant v_dc = run_variant("dc", kc, &dc, procs);
    const Variant v_hand = run_variant("hand", kc, nullptr, procs);

    // Correctness across optimization levels.
    const std::array<const Variant*, 5> vs = {&v_base, &v_li, &v_mc, &v_dc,
                                              &v_hand};
    for (const auto* v : vs) {
      const double rel = std::abs(v->checksum - v_base.checksum) /
                         std::max(1.0, std::abs(v_base.checksum));
      if (rel > 1e-9) {
        std::fprintf(stderr,
                     "FATAL: %s/%s checksum mismatch (%.17g vs %.17g)\n",
                     kc.name.c_str(), v->name.c_str(), v->checksum,
                     v_base.checksum);
        return 1;
      }
    }
    std::printf(
        "%-11s calls: base=%llu li=%llu mc=%llu dc=%llu  (report: hoisted "
        "maps=%zu pairs=%zu, merged maps=%zu pairs=%zu, direct=%zu, "
        "removed-null=%zu)\n",
        kc.name.c_str(),
        static_cast<unsigned long long>(v_base.protocol_calls),
        static_cast<unsigned long long>(v_li.protocol_calls),
        static_cast<unsigned long long>(v_mc.protocol_calls),
        static_cast<unsigned long long>(v_dc.protocol_calls),
        rep.hoisted_maps, rep.hoisted_pairs, rep.merged_maps, rep.merged_pairs,
        rep.direct_calls, rep.removed_null);

    for (std::size_t i = 0; i < 5; ++i) times[i].push_back(vs[i]->res.modeled_s);
    for (const auto* v : vs) rep_rows.push_back({kc.name, v->name, v->res});
  }

  std::printf("\nAll times modeled seconds.\n");
  for (std::size_t i = 0; i < 5; ++i) {
    std::vector<std::string> row = {vnames[i]};
    for (double x : times[i]) row.push_back(ace::fmt_f(x, 3));
    t.add_row(row);
  }
  t.print();

  std::printf("\nBest-compiled / hand-optimized ratios (paper: 1.1-1.3x):\n");
  for (std::size_t app = 0; app < times[0].size(); ++app)
    std::printf("  %-11s %.2f\n", cases[app].name.c_str(),
                times[3][app] / times[4][app]);

  bench::report("table4", rep_rows);
  return 0;
}
