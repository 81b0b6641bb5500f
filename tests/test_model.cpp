// Cross-protocol model checking: randomized, barrier-phased workloads whose
// expected memory contents are computed by a sequential reference model.
// Any coherent protocol must deliver exactly the model's values at the
// barriers — this is the consistency contract §6 wishes for ("a theoretical
// framework of correctness would be useful"); here it is at least an
// executable one.  Also: transport conservation invariants and large-machine
// smoke tests (the paper's 32 processors).

#include <gtest/gtest.h>

#include "ace/runtime.hpp"
#include "common/rng.hpp"

namespace {

using namespace ace;

struct ModelParams {
  const char* protocol;
  std::uint32_t procs;
  std::uint32_t regions;
  std::uint32_t epochs;
  std::uint64_t seed;
};

// Without it gtest prints the raw bytes, padding and the protocol string's
// address included, into the test's listed name, which then differs from
// process to process.
void PrintTo(const ModelParams& p, std::ostream* os) {
  *os << "{protocol=" << p.protocol << ", procs=" << p.procs
      << ", regions=" << p.regions << ", epochs=" << p.epochs
      << ", seed=" << p.seed << "}";
}

class EpochModel : public ::testing::TestWithParam<ModelParams> {};

// Per epoch, the model picks one writer per region (deterministically from
// the seed) and a value; writers write, everyone barriers, everyone reads
// and must observe exactly the model state.  Writers are always the home
// (the contract every library protocol supports).
TEST_P(EpochModel, AgreesWithSequentialModel) {
  const auto prm = GetParam();
  auto machine_ptr = am::Machine::create({.nprocs = prm.procs});
  am::Machine& machine = *machine_ptr;
  Runtime rt(machine);
  rt.run([&](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(prm.protocol);
    std::vector<RegionId> ids(prm.regions);
    for (std::uint32_t r = 0; r < prm.regions; ++r) {
      const am::ProcId home = r % prm.procs;
      RegionId id = dsm::kInvalidRegion;
      if (rp.me() == home) id = rp.gmalloc(sp, 8);
      ids[r] = rp.bcast_region(id, home);
    }
    std::vector<std::uint64_t*> ptr(prm.regions);
    for (std::uint32_t r = 0; r < prm.regions; ++r)
      ptr[r] = static_cast<std::uint64_t*>(rp.map(ids[r]));

    // The model: every processor runs the same deterministic script.
    std::vector<std::uint64_t> model(prm.regions, 0);
    Rng rng(prm.seed);
    for (std::uint32_t e = 0; e < prm.epochs; ++e) {
      for (std::uint32_t r = 0; r < prm.regions; ++r) {
        const bool written = rng.next_bool(0.6);
        const std::uint64_t value = rng.next_u64() >> 1;
        if (!written) continue;
        model[r] = value;
        if (rp.me() == r % prm.procs) {  // the home writes
          rp.start_write(ptr[r]);
          *ptr[r] = value;
          rp.end_write(ptr[r]);
        }
      }
      rp.ace_barrier(sp);
      // Every processor audits every region against the model.
      for (std::uint32_t r = 0; r < prm.regions; ++r) {
        rp.start_read(ptr[r]);
        EXPECT_EQ(*ptr[r], model[r])
            << prm.protocol << " epoch " << e << " region " << r;
        rp.end_read(ptr[r]);
      }
      rp.ace_barrier(sp);
    }
  });

  // Transport conservation: nothing sent was lost, nothing received twice.
  const auto s = machine.aggregate_stats();
  EXPECT_EQ(s.msgs_sent, s.msgs_received);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EpochModel,
    ::testing::Values(
        ModelParams{proto_names::kSC, 4, 6, 8, 11},
        ModelParams{proto_names::kSC, 7, 9, 6, 12},
        ModelParams{proto_names::kDynamicUpdate, 4, 6, 8, 13},
        ModelParams{proto_names::kDynamicUpdate, 6, 5, 6, 14},
        ModelParams{proto_names::kStaticUpdate, 4, 6, 8, 15},
        ModelParams{proto_names::kStaticUpdate, 8, 10, 5, 16},
        ModelParams{proto_names::kHomeWrite, 4, 6, 8, 17},
        ModelParams{proto_names::kHomeWrite, 5, 7, 6, 18},
        ModelParams{proto_names::kMigratory, 3, 4, 6, 19},
        ModelParams{proto_names::kRaceCheck, 4, 6, 5, 20}),
    [](const auto& info) {
      return std::string(info.param.protocol) + "_p" +
             std::to_string(info.param.procs) + "_r" +
             std::to_string(info.param.regions) + "_e" +
             std::to_string(info.param.epochs);
    });

// The paper's machine size: 32 processors end to end.
TEST(LargeMachine, ThirtyTwoProcessorsSC) {
  constexpr std::uint32_t kProcs = 32;
  auto machine_ptr = am::Machine::create({.nprocs = kProcs});
  am::Machine& machine = *machine_ptr;
  Runtime rt(machine);
  rt.run([](RuntimeProc& rp) {
    RegionId id = dsm::kInvalidRegion;
    if (rp.me() == 0) id = rp.gmalloc(kDefaultSpace, 8);
    id = rp.bcast_region(id, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    for (int i = 0; i < 5; ++i) {
      rp.start_write(p);
      *p += 1;
      rp.end_write(p);
    }
    rp.ace_barrier(kDefaultSpace);
    rp.start_read(p);
    EXPECT_EQ(*p, 5u * kProcs);
    rp.end_read(p);
    rp.proc().barrier();
  });
}

TEST(LargeMachine, ThirtyTwoProcessorsStaticUpdate) {
  constexpr std::uint32_t kProcs = 32;
  auto machine_ptr = am::Machine::create({.nprocs = kProcs});
  am::Machine& machine = *machine_ptr;
  Runtime rt(machine);
  rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kStaticUpdate);
    std::vector<RegionId> ids(kProcs);
    for (std::uint32_t q = 0; q < kProcs; ++q) {
      RegionId id = dsm::kInvalidRegion;
      if (rp.me() == q) id = rp.gmalloc(sp, 8);
      ids[q] = rp.bcast_region(id, static_cast<am::ProcId>(q));
    }
    std::vector<std::uint64_t*> ptr(kProcs);
    for (std::uint32_t q = 0; q < kProcs; ++q)
      ptr[q] = static_cast<std::uint64_t*>(rp.map(ids[q]));
    for (std::uint64_t round = 1; round <= 3; ++round) {
      rp.start_write(ptr[rp.me()]);
      *ptr[rp.me()] = round * 100 + rp.me();
      rp.end_write(ptr[rp.me()]);
      rp.ace_barrier(sp);
      // Read a ring neighbour (keeps the sharer lists sparse but real).
      const std::uint32_t n = (rp.me() + 1) % kProcs;
      rp.start_read(ptr[n]);
      EXPECT_EQ(*ptr[n], round * 100 + n);
      rp.end_read(ptr[n]);
      rp.ace_barrier(sp);
    }
  });
}

// Modeled time sanity: barriers make virtual clocks agree, and the modeled
// total dominates every component charge.
TEST(CostAccounting, ClocksAgreeAtExit) {
  auto machine_ptr = am::Machine::create({.nprocs = 6});
  am::Machine& machine = *machine_ptr;
  Runtime rt(machine);
  std::vector<std::uint64_t> clocks(6, 0);
  rt.run([&](RuntimeProc& rp) {
    rp.proc().charge(1000 * (rp.me() + 1));  // unequal work
    rp.proc().barrier();
    clocks[rp.me()] = rp.proc().vclock_ns();
  });
  for (std::uint32_t q = 1; q < 6; ++q) EXPECT_EQ(clocks[q], clocks[0]);
  EXPECT_GE(clocks[0], 6000u);  // at least the slowest processor's work
}

TEST(CostAccounting, MissesCostMoreThanHits) {
  auto machine_ptr = am::Machine::create({.nprocs = 2});
  am::Machine& machine = *machine_ptr;
  Runtime rt(machine);
  std::vector<std::uint64_t> hit_cost(2, 0), miss_cost(2, 0);
  rt.run([&](RuntimeProc& rp) {
    RegionId id = dsm::kInvalidRegion;
    if (rp.me() == 0) id = rp.gmalloc(kDefaultSpace, 8);
    id = rp.bcast_region(id, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 1) {
      std::uint64_t t0 = rp.proc().vclock_ns();
      rp.start_read(p);  // miss
      rp.end_read(p);
      miss_cost[1] = rp.proc().vclock_ns() - t0;
      t0 = rp.proc().vclock_ns();
      rp.start_read(p);  // hit
      rp.end_read(p);
      hit_cost[1] = rp.proc().vclock_ns() - t0;
    }
    rp.proc().barrier();
  });
  EXPECT_GT(miss_cost[1], 10 * hit_cost[1])
      << "the miss:hit cost ratio drives every protocol tradeoff";
}

}  // namespace
