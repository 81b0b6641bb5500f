// Figure 7a reproduction: "Ace runtime system versus CRL".
//
// Both systems run the same five application sources (template-instantiated
// rather than textually ported, §5.1) under a sequentially consistent
// invalidation protocol — no customized protocols.  The paper's result: Ace
// is comparable to CRL, somewhat faster on fine-grained applications
// (Barnes-Hut, EM3D) thanks to the redesigned SC protocol and the faster
// mapping technique, and roughly even on coarse-grained BSC, where the
// space->protocol dispatch indirection eats the runtime-system gains.
//
// Usage: fig7a_ace_vs_crl [--procs=8] [--full] [--seed=N] [--trace]
//                         [--chaos-seed=N] [--backend=thread|proc]
//                         [--time=modeled|wall]
//   --full uses the paper's input sizes (Table 3); the default scales the
//   two largest inputs down so the whole bench suite stays fast.
//   --trace records each Ace run's virtual-time event trace and writes
//   TRACE_fig7a_<app>.json (Chrome trace-event format; open in Perfetto).
//   --backend=proc runs every processor as a real forked process over Unix
//   sockets; per-app checksums in the json match --backend=thread
//   bit-for-bit (the conformance suite asserts this).
//   --time=wall charges handlers host time instead of the CM-5 cost model
//   (wall_s stays honest wall time either way).
// Writes BENCH_fig7a.json next to the human tables (schema: EXPERIMENTS.md).

#include <cstdio>

#include "apps/barnes_hut.hpp"
#include "apps/bsc.hpp"
#include "apps/em3d.hpp"
#include "apps/tsp.hpp"
#include "apps/water.hpp"
#include "bench/harness.hpp"
#include "common/cli.hpp"

namespace {

using namespace apps;
using bench::RunResult;

struct Row {
  std::string app;
  RunResult crl;
  RunResult ace;
};

/// One app on both systems: `body` is a generic SPMD body returning the
/// app's checksum, instantiated once with CrlApi and once with AceApi.
template <class Body>
Row compare(const std::string& app, const std::string& stem,
            const bench::RunFlags& f, const Body& body) {
  return {app, bench::run_crl(f.procs, body, f.run),
          bench::run_ace(f.procs, body, f.traced("fig7a_" + stem))};
}

void print(const std::vector<Row>& rows) {
  ace::Table t({"app", "CRL modeled(s)", "Ace modeled(s)", "Ace/CRL speedup",
                "CRL msgs", "Ace msgs", "CRL wall(s)", "Ace wall(s)"});
  for (const auto& r : rows)
    t.add_row({r.app, ace::fmt_f(r.crl.modeled_s, 3),
               ace::fmt_f(r.ace.modeled_s, 3),
               ace::fmt_f(r.crl.modeled_s / r.ace.modeled_s, 2),
               ace::fmt_i(static_cast<long long>(r.crl.am.msgs_sent)),
               ace::fmt_i(static_cast<long long>(r.ace.am.msgs_sent)),
               ace::fmt_f(r.crl.wall_s, 2), ace::fmt_f(r.ace.wall_s, 2)});
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  ace::Cli cli(argc, argv);
  const bench::RunFlags f = bench::parse_run_options(cli);
  const bool full = cli.get_bool("full", false);
  cli.finish();

  std::printf(
      "Figure 7a: Ace runtime vs CRL, both on the SC invalidation protocol\n"
      "(procs=%u, %s inputs, %s backend; paper ran 32 CM-5 nodes)\n\n",
      f.procs, full ? "paper-scale" : "scaled",
      ace::am::backend_name(f.run.backend));

  std::vector<Row> rows;

  {
    BhParams p;
    p.n_bodies = full ? 16384 : 2048;
    p.steps = 4;
    p.seed = f.seed;
    p.map_per_access = true;  // CRL 1.0 annotation style (see em3d.hpp)
    rows.push_back(compare("Barnes-Hut", "barnes_hut", f, [&](auto& a) {
      return bh_run(a, p).checksum;
    }));
  }
  {
    BscParams p;
    p.n_block_cols = full ? 48 : 28;
    p.block = full ? 32 : 20;
    p.band = 6;
    p.seed = f.seed;
    rows.push_back(compare("BSC", "bsc", f, [&](auto& a) {
      return bsc_run(a, p).checksum;
    }));
  }
  {
    Em3dParams p;  // paper scale is cheap: 1000+1000, degree 10, 100 steps
    p.n_e = p.n_h = full ? 1000 : 400;
    p.degree = 10;
    p.steps = full ? 100 : 40;
    p.seed = f.seed;
    p.map_per_access = true;  // CRL 1.0 annotation style
    rows.push_back(compare("EM3D", "em3d", f, [&](auto& a) {
      return em3d_run(a, p).checksum;
    }));
  }
  {
    // Parallel branch-and-bound is noisy (the shared bound races); sum over
    // five instances so the comparison reflects protocol costs, not luck.
    // The checksum is the best tour length, agreed after the final barrier.
    TspParams p;
    p.n_cities = 12;
    Row row{"TSP", {}, {}};
    for (std::uint64_t s = 0; s < 5; ++s) {
      p.seed = f.seed + s;
      const Row one = compare("TSP", "tsp", f, [&](auto& a) {
        return static_cast<double>(tsp_run(a, p).best_len);
      });
      bench::accumulate(row.crl, one.crl);
      bench::accumulate(row.ace, one.ace);
    }
    rows.push_back(row);
  }
  {
    WaterParams p;
    p.n_mols = full ? 512 : 256;
    p.steps = 3;
    p.seed = f.seed;
    rows.push_back(compare("Water", "water", f, [&](auto& a) {
      return water_run(a, p).checksum;
    }));
  }

  print(rows);
  std::printf(
      "\nShape check vs paper: Ace/CRL speedup > 1 on the fine-grained apps\n"
      "(Barnes-Hut, EM3D; mapping dominates), ~1.0 on coarse-grained BSC\n"
      "(dispatch indirection cancels the runtime gains).\n");

  std::vector<bench::Row> rep;
  for (const auto& r : rows) {
    rep.push_back({r.app, "CRL", r.crl});
    rep.push_back({r.app, "Ace", r.ace});
  }
  bench::report("fig7a", rep);
  return 0;
}
