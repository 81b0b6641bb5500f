// Ablation: does the adaptive advisor (src/adapt) close the loop?
//
// Two workloads where the paper's protocol choice is known:
//
//   producer/consumer — one producer writes a set of regions each round,
//     every other processor reads them (the §3.3 sharing pattern); update
//     protocols beat the default invalidation protocol by avoiding the
//     invalidate+refetch round trips;
//   EM3D — the paper's canonical static-update application (§3.3 reports
//     ~5x for StaticUpdate over SC).
//
// Each workload runs under every fixed protocol assignment and once in
// "auto" mode, where the space starts on SC and the advisor switches it.
// The run self-checks the acceptance bars:
//   * auto lands within 10% of the best fixed protocol's modeled time,
//   * auto beats the worst fixed protocol by at least 1.5x,
//   * auto's decisions are reproducible (two identical runs, identical
//     switch sequences),
// and writes the decision logs to ADVISOR_ablation_adaptive_*.json.
//
// The defaults are long enough for the advisor's SC warmup (it must watch a
// couple of producer/consumer rounds before it has evidence) to amortize,
// with little to spare.  Varying one flag with the other at its default,
// a Release build passed every check from --rounds=120 and
// --em3d-steps=68 at --procs=4, and from --rounds=110 and --em3d-steps=74
// at --procs=8 (72 passed one run in three); below that the 10% bar
// aborts.  CI runs the defaults.
//
// Usage: ablation_adaptive [--procs=8] [--rounds=200] [--regions=8]
//                          [--em3d-steps=100]

#include <cmath>
#include <cstdio>

#include "adapt/advisor.hpp"
#include "apps/em3d.hpp"
#include "bench/harness.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

namespace {

using namespace ace;

/// Producer/consumer: proc 0 writes `regions` regions, everyone else reads
/// and verifies, two barriers per round.
bench::RunResult run_pc(std::uint32_t procs, std::uint32_t rounds,
                        std::uint32_t regions, const std::string& proto) {
  return bench::run_ace(procs, [&](apps::AceApi& api) {
    RuntimeProc& rp = api.runtime_proc();
    const SpaceId s = proto == apps::kAutoProtocol
                          ? adapt::auto_space(rp, proto_names::kSC)
                          : rp.new_space(proto);
    std::vector<RegionId> ids(regions);
    if (rp.me() == 0)
      for (auto& id : ids) id = rp.gmalloc(s, sizeof(std::uint64_t));
    for (auto& id : ids) id = rp.bcast_region(id, 0);
    std::vector<std::uint64_t*> ptr(regions);
    for (std::uint32_t i = 0; i < regions; ++i)
      ptr[i] = static_cast<std::uint64_t*>(rp.map(ids[i]));
    rp.ace_barrier(s);
    for (std::uint64_t r = 1; r <= rounds; ++r) {
      if (rp.me() == 0)
        for (std::uint32_t i = 0; i < regions; ++i) {
          rp.start_write(ptr[i]);
          *ptr[i] = r * 1000 + i;
          rp.end_write(ptr[i]);
        }
      rp.ace_barrier(s);
      if (rp.me() != 0)
        for (std::uint32_t i = 0; i < regions; ++i) {
          rp.start_read(ptr[i]);
          ACE_CHECK_MSG(*ptr[i] == r * 1000 + i,
                        "producer/consumer coherence violated");
          rp.end_read(ptr[i]);
        }
      rp.ace_barrier(s);
    }
  });
}

bench::RunResult run_em3d(std::uint32_t procs, std::uint32_t steps,
                          const std::string& proto) {
  apps::Em3dParams p;
  p.n_e = p.n_h = 200;
  p.degree = 5;
  p.steps = steps;
  p.protocol = proto;
  return bench::run_ace(procs, [&](apps::AceApi& api) {
    return apps::em3d_run(api, p).checksum;
  });
}

/// The (epoch, chosen) switch sequence of a run's decision logs.
std::vector<std::pair<std::uint64_t, std::string>> switch_sequence(
    const std::vector<adapt::SpaceDecisions>& logs) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (const auto& sd : logs)
    for (const auto& d : sd.decisions)
      if (d.switched) out.emplace_back(d.epoch, d.chosen);
  return out;
}

std::uint64_t count_switches(const std::vector<adapt::SpaceDecisions>& logs) {
  return switch_sequence(logs).size();
}

/// Human-readable decision log (what the advisor saw and did, per space).
void print_decisions(const char* workload,
                     const std::vector<adapt::SpaceDecisions>& logs) {
  for (const auto& sd : logs) {
    std::printf("%s space %u (%s):\n", workload, sd.space,
                sd.execute ? "auto" : "advise");
    for (const auto& d : sd.decisions) {
      std::printf("  epoch %4llu w=%-3u %-13s -> %-13s %s\n",
                  static_cast<unsigned long long>(d.epoch), d.window,
                  d.current.c_str(), d.chosen.c_str(), d.reason.c_str());
      if (std::getenv("ACE_ADVISOR_DEBUG") != nullptr) {
        const auto& s = d.sig;
        std::printf(
            "    sig: rd=%llu wr=%llu rrd=%llu rwr=%llu rmiss=%llu wmiss=%llu "
            "runs=%llu wp=%llu rp=%llu regions=%llu E=%llu meas=%.3fms\n",
            (unsigned long long)s.reads, (unsigned long long)s.writes,
            (unsigned long long)s.remote_reads,
            (unsigned long long)s.remote_writes,
            (unsigned long long)s.read_misses,
            (unsigned long long)s.write_misses,
            (unsigned long long)s.write_runs,
            (unsigned long long)s.writer_procs,
            (unsigned long long)s.reader_procs,
            (unsigned long long)s.regions, (unsigned long long)s.epochs,
            d.measured_ns * 1e-6);
        for (const auto& c : d.costs)
          std::printf("    cost: %-13s %.3fms%s\n", c.protocol.c_str(),
                      c.predicted_ns * 1e-6, c.feasible ? "" : " (infeasible)");
      }
    }
  }
}

struct WorkloadOutcome {
  double best_fixed = 0, worst_fixed = 0, auto_s = 0;
};

void check_acceptance(const char* workload, const WorkloadOutcome& o) {
  std::printf(
      "%s: best fixed %.4fs, worst fixed %.4fs, auto %.4fs "
      "(auto/best = %.3f, worst/auto = %.2fx)\n",
      workload, o.best_fixed, o.worst_fixed, o.auto_s, o.auto_s / o.best_fixed,
      o.worst_fixed / o.auto_s);
  ACE_CHECK_MSG(o.auto_s <= o.best_fixed * 1.10,
                "adaptive run not within 10% of the best fixed protocol");
  ACE_CHECK_MSG(o.worst_fixed >= o.auto_s * 1.5,
                "adaptive run not 1.5x better than the worst fixed protocol");
}

}  // namespace

int main(int argc, char** argv) {
  ace::Cli cli(argc, argv);
  const auto procs = static_cast<std::uint32_t>(cli.get_int("procs", 8));
  const auto rounds = static_cast<std::uint32_t>(cli.get_int("rounds", 200));
  const auto regions = static_cast<std::uint32_t>(cli.get_int("regions", 8));
  const auto em3d_steps =
      static_cast<std::uint32_t>(cli.get_int("em3d-steps", 100));
  cli.finish();

  std::printf(
      "Adaptive advisor ablation: fixed protocol assignments vs adapt::auto_space\n"
      "(%u procs; producer/consumer %u rounds x %u regions; EM3D %u steps)\n\n",
      procs, rounds, regions, em3d_steps);

  std::vector<bench::Row> rep;

  // --- producer/consumer -------------------------------------------------
  const char* kFixedPc[] = {proto_names::kSC, proto_names::kDynamicUpdate,
                            proto_names::kStaticUpdate};
  WorkloadOutcome pc;
  pc.best_fixed = 1e30;
  for (const char* proto : kFixedPc) {
    const auto r = run_pc(procs, rounds, regions, proto);
    pc.best_fixed = std::min(pc.best_fixed, r.modeled_s);
    pc.worst_fixed = std::max(pc.worst_fixed, r.modeled_s);
    rep.push_back({"producer_consumer", proto, r});
  }
  const auto pc_auto = run_pc(procs, rounds, regions, apps::kAutoProtocol);
  pc.auto_s = pc_auto.modeled_s;
  rep.push_back({"producer_consumer", "Auto", pc_auto});
  ACE_CHECK_MSG(!pc_auto.decisions.empty() &&
                    !pc_auto.decisions[0].decisions.empty(),
                "auto run produced no advisor decisions");
  ACE_CHECK_MSG(count_switches(pc_auto.decisions) >= 1,
                "the advisor never left SC on producer/consumer");

  // Reproducibility: an identical run takes the identical switch sequence.
  const auto pc_auto2 = run_pc(procs, rounds, regions, apps::kAutoProtocol);
  ACE_CHECK_MSG(
      switch_sequence(pc_auto.decisions) == switch_sequence(pc_auto2.decisions),
      "advisor switch sequence is not reproducible");

  // --- EM3D ---------------------------------------------------------------
  const char* kFixedEm[] = {proto_names::kSC, proto_names::kDynamicUpdate,
                            proto_names::kStaticUpdate};
  WorkloadOutcome em;
  em.best_fixed = 1e30;
  double ref_checksum = 0;
  for (const char* proto : kFixedEm) {
    const auto r = run_em3d(procs, em3d_steps, proto);
    if (proto == proto_names::kSC) ref_checksum = r.checksum;
    ACE_CHECK_MSG(std::fabs(r.checksum - ref_checksum) < 1e-6,
                  "EM3D checksum diverged between protocols");
    em.best_fixed = std::min(em.best_fixed, r.modeled_s);
    em.worst_fixed = std::max(em.worst_fixed, r.modeled_s);
    rep.push_back({"em3d", proto, r});
  }
  const auto em_auto = run_em3d(procs, em3d_steps, apps::kAutoProtocol);
  ACE_CHECK_MSG(std::fabs(em_auto.checksum - ref_checksum) < 1e-6,
                "EM3D checksum diverged under the advisor");
  em.auto_s = em_auto.modeled_s;
  rep.push_back({"em3d", "Auto", em_auto});
  ACE_CHECK_MSG(count_switches(em_auto.decisions) >= 1,
                "the advisor never left SC on EM3D");

  print_decisions("producer/consumer", pc_auto.decisions);
  print_decisions("em3d", em_auto.decisions);

  // Write the decision report before the acceptance gate so a failing run
  // still leaves its evidence behind (aceadvise replays it offline).
  std::vector<adapt::SpaceDecisions> all_logs = pc_auto.decisions;
  all_logs.insert(all_logs.end(), em_auto.decisions.begin(),
                  em_auto.decisions.end());
  const std::string path =
      adapt::write_report("ablation_adaptive", all_logs);
  ACE_CHECK_MSG(!path.empty(), "failed to write the ADVISOR report");
  std::printf("wrote %s\n", path.c_str());
  bench::report("ablation_adaptive", rep);

  // --- acceptance ---------------------------------------------------------
  check_acceptance("producer/consumer", pc);
  check_acceptance("em3d", em);
  return 0;
}
