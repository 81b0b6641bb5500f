// Ablation (§2.2): is switching protocols at phase boundaries worth its
// cost?  "Since each of these protocols make assumptions about the access
// patterns of their phases, neither could be used independently for the
// whole application."
//
// Workload: the Water pattern — alternating an intra phase (each processor
// hammers only its own regions) with an inter phase (everyone reads
// everyone's regions), for a configurable phase length.  Strategies:
//
//   SC throughout            — the default, pays invalidation storms;
//   DynamicUpdate throughout — fine for inter, but every intra write pushes
//                              useless updates to all sharers;
//   Null+DynamicUpdate switch — Ace_ChangeProtocol at each boundary (3
//                              machine barriers per change) buys free intra
//                              phases; pays off once phases are long enough.
//
// The sweep over phase length locates the crossover.
//
// Usage: ablation_change_protocol [--procs=8] [--rounds=6]

#include <cstdio>

#include "ace/runtime.hpp"
#include "bench/harness.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

namespace {

using namespace ace;

enum class Strategy { kSC, kDynamic, kSwitch };

bench::RunResult run_strategy(Strategy strat, std::uint32_t procs,
                              std::uint32_t rounds, std::uint32_t phase_len) {
  return bench::run_ace(procs, [&](apps::AceApi& api) {
    RuntimeProc& rp = api.runtime_proc();
    const SpaceId sp = rp.new_space(
        strat == Strategy::kSC ? proto_names::kSC
                               : proto_names::kDynamicUpdate);
    std::vector<RegionId> ids(procs);
    for (std::uint32_t q = 0; q < procs; ++q) {
      RegionId id = dsm::kInvalidRegion;
      if (rp.me() == q) id = rp.gmalloc(sp, 8);
      ids[q] = rp.bcast_region(id, static_cast<am::ProcId>(q));
    }
    std::vector<std::uint64_t*> ptr(procs);
    for (std::uint32_t q = 0; q < procs; ++q)
      ptr[q] = static_cast<std::uint64_t*>(rp.map(ids[q]));

    // The checksum: every inter-phase sum, which all processors must see
    // alike once the barrier has made the writes coherent.
    double total = 0;
    for (std::uint32_t round = 0; round < rounds; ++round) {
      // --- intra phase: own region only ---------------------------------
      if (strat == Strategy::kSwitch)
        rp.change_protocol(sp, proto_names::kNull);
      for (std::uint32_t k = 0; k < phase_len; ++k) {
        rp.start_write(ptr[rp.me()]);
        *ptr[rp.me()] += 1;
        rp.end_write(ptr[rp.me()]);
      }
      if (strat == Strategy::kSwitch)
        rp.change_protocol(sp, proto_names::kDynamicUpdate);
      else
        rp.ace_barrier(sp);
      // --- inter phase: repeated produce/consume over all regions --------
      // (this is where an update protocol earns its keep: after the first
      // sub-iteration the pushes keep every cache warm)
      constexpr std::uint32_t kInterIters = 8;
      for (std::uint32_t k = 0; k < kInterIters; ++k) {
        rp.start_write(ptr[rp.me()]);
        *ptr[rp.me()] += 1;
        rp.end_write(ptr[rp.me()]);
        rp.ace_barrier(sp);
        std::uint64_t sum = 0;
        for (std::uint32_t q = 0; q < procs; ++q) {
          rp.start_read(ptr[q]);
          sum += *ptr[q];
          rp.end_read(ptr[q]);
        }
        total += static_cast<double>(sum);
        rp.ace_barrier(sp);
      }
    }
    return total;
  });
}

}  // namespace

int main(int argc, char** argv) {
  ace::Cli cli(argc, argv);
  const auto procs = static_cast<std::uint32_t>(cli.get_int("procs", 8));
  const auto rounds = static_cast<std::uint32_t>(cli.get_int("rounds", 6));
  cli.finish();

  std::printf(
      "ChangeProtocol ablation (S2.2): Water-style phase alternation,\n"
      "%u procs, %u rounds; sweep over intra-phase length.\n\n",
      procs, rounds);

  ace::Table t({"intra writes/phase", "SC throughout (s)",
                "DynamicUpdate throughout (s)", "Null+DU switch (s)",
                "best"});
  std::vector<bench::Row> rep;
  for (std::uint32_t phase_len : {1u, 4u, 16u, 64u, 256u, 1024u}) {
    const auto sc = run_strategy(Strategy::kSC, procs, rounds, phase_len);
    const auto dyn =
        run_strategy(Strategy::kDynamic, procs, rounds, phase_len);
    const auto sw =
        run_strategy(Strategy::kSwitch, procs, rounds, phase_len);
    const char* best =
        sc.modeled_s <= dyn.modeled_s && sc.modeled_s <= sw.modeled_s
            ? "SC"
        : dyn.modeled_s <= sw.modeled_s ? "DynamicUpdate"
                                        : "switch";
    t.add_row({ace::fmt_i(phase_len), ace::fmt_f(sc.modeled_s, 4),
               ace::fmt_f(dyn.modeled_s, 4), ace::fmt_f(sw.modeled_s, 4),
               best});
    const std::string label = "phase_len=" + std::to_string(phase_len);
    rep.push_back({label, "SC", sc});
    rep.push_back({label, "DynamicUpdate", dyn});
    rep.push_back({label, "Null+DU switch", sw});
  }
  t.print();
  std::printf(
      "\nShape check: switching loses at tiny phases (3 machine barriers\n"
      "per ChangeProtocol) and wins as intra phases grow — the S2.2 claim\n"
      "that neither single protocol serves both phases.\n");

  bench::report("ablation_change_protocol", rep);
  return 0;
}
