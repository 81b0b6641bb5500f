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
// Every stage is verified before anything is timed (ace::ir::compile), and
// every optimization level must produce the same result: the bench checks
// the checksum across levels before printing.  Each row runs through the
// bench harness (bench::run_kernel), so it runs on either backend.
// Expected shape (paper): BSC's big win comes at LI (the matrix-product
// loops), most other gains at MC, EM3D's extra kick at DC (null
// static-update handlers in the tight kernel), and the best compiled code
// lands within ~1.1-1.3x of hand.
//
// Usage: table4_compiler_opts [--procs=8] [--scale=2] [--trace]
//                             [--chaos-seed=N] [--backend=thread|proc]
//                             [--time=modeled|wall]
// (--seed is accepted like every paper bench's; the kernels' inputs are
// fixed, so it changes nothing here.)

#include <cmath>
#include <cstdio>

#include "acec/kernels.hpp"
#include "acec/pipeline.hpp"
#include "bench/kernel_run.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

using namespace ace;
using namespace ace::ir;

int main(int argc, char** argv) {
  ace::Cli cli(argc, argv);
  const bench::RunFlags flags = bench::parse_run_options(cli);
  const auto scale = static_cast<std::uint32_t>(cli.get_int("scale", 2));
  cli.finish();

  std::printf(
      "Table 4: effects of compiler optimizations (procs=%u, scale=%u)\n"
      "Each kernel runs under its best protocols; all rows of a column must\n"
      "compute the same result (verified by checksum).\n\n",
      flags.procs, scale);

  const Registry registry = Registry::with_builtins();
  const auto cases = table4_cases(scale);

  ace::Table t({"Optimization", "Barnes-Hut", "BSC", "EM3D", "TSP", "Water"});
  std::vector<std::vector<double>> times(5);  // [variant][app]
  std::vector<bench::Row> rep_rows;
  const std::vector<std::string> vnames = {
      "Base case", "Loop Invariance (LI)", "LI + Merging Calls (MC)",
      "LI + MC + Direct Calls", "Hand-optimized"};

  for (const auto& kc : cases) {
    // Translation validation: the verifier must be clean after annotation
    // and after every pass, and each pass must preserve the protocol-call
    // multiset modulo the legal Figure-6 merges.
    const Compiled c = compile(kc.program, kc.space_protocols, registry);
    for (const Stage& s : c.stages)
      std::fputs((to_string(s.delta) + to_string(s.diags)).c_str(), stderr);
    const std::size_t ndiags = c.diag_count();
    std::printf("%-11s acelint: %s\n", kc.name.c_str(),
                ndiags == 0 ? "clean (base/li/mc/dc + pass deltas)"
                            : "DIAGNOSTICS");
    if (ndiags != 0) {
      std::fprintf(stderr, "FATAL: %s failed static verification (%zu)\n",
                   kc.name.c_str(), ndiags);
      return 1;
    }

    std::vector<bench::Row> rows;
    const auto add = [&](const char* variant, const Function* f) {
      const auto opt = flags.traced("table4_" + kc.name + "_" + variant);
      rows.push_back({kc.name, variant,
                      bench::run_kernel(kc, f, flags.procs, opt)});
    };
    for (const Stage& s : c.stages) add(s.name, &s.f);
    add("hand", nullptr);

    // Correctness across optimization levels.
    const double base = rows[0].res.checksum;
    for (const auto& row : rows) {
      const double rel = std::abs(row.res.checksum - base) /
                         std::max(1.0, std::abs(base));
      if (rel > 1e-9) {
        std::fprintf(stderr,
                     "FATAL: %s/%s checksum mismatch (%.17g vs %.17g)\n",
                     kc.name.c_str(), row.variant.c_str(), row.res.checksum,
                     base);
        return 1;
      }
    }
    const PassReport& rep = c.report;
    std::printf(
        "%-11s calls: base=%llu li=%llu mc=%llu dc=%llu  (report: hoisted "
        "maps=%zu pairs=%zu, merged maps=%zu pairs=%zu, direct=%zu, "
        "removed-null=%zu)\n",
        kc.name.c_str(), static_cast<unsigned long long>(rows[0].res.calls),
        static_cast<unsigned long long>(rows[1].res.calls),
        static_cast<unsigned long long>(rows[2].res.calls),
        static_cast<unsigned long long>(rows[3].res.calls), rep.hoisted_maps,
        rep.hoisted_pairs, rep.merged_maps, rep.merged_pairs, rep.direct_calls,
        rep.removed_null);

    for (std::size_t i = 0; i < 5; ++i) times[i].push_back(rows[i].res.modeled_s);
    rep_rows.insert(rep_rows.end(), rows.begin(), rows.end());
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
