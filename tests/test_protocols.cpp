// Tests for the custom protocol library: each protocol's state machine,
// its consistency contract at barriers, and ChangeProtocol transitions
// into/out of it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "ace/config.hpp"
#include "ace/runtime.hpp"
#include "ace/typed.hpp"
#include "am/delivery.hpp"
#include "common/rng.hpp"

namespace {

using namespace ace;

struct Fixture {
  std::unique_ptr<am::Machine> machine_ptr;
  am::Machine& machine;
  Runtime rt;
  explicit Fixture(std::uint32_t procs)
      : machine_ptr(am::Machine::create({.nprocs = procs})),
        machine(*machine_ptr),
        rt(machine) {}
};

RegionId shared_region(RuntimeProc& rp, SpaceId sp, std::uint32_t size,
                       am::ProcId home) {
  RegionId id = dsm::kInvalidRegion;
  if (rp.me() == home) id = rp.gmalloc(sp, size);
  return rp.bcast_region(id, home);
}

// --- DynamicUpdate ----------------------------------------------------------

TEST(DynamicUpdate, UpdatePropagatedToSharersByBarrier) {
  constexpr int kProcs = 4;
  Fixture f(kProcs);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kDynamicUpdate);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    // Everyone becomes a sharer.
    rp.start_read(p);
    rp.end_read(p);
    rp.ace_barrier(sp);
    if (rp.me() == 2) {  // a *remote* writer
      rp.start_write(p);
      *p = 88;
      rp.end_write(p);
    }
    rp.ace_barrier(sp);
    rp.start_read(p);
    EXPECT_EQ(*p, 88u);  // local copy was updated in place, no miss
    rp.end_read(p);
    rp.ace_barrier(sp);
  });
  // After the initial fetches, no further read misses occurred.
  EXPECT_EQ(f.rt.aggregate_dstats().read_misses, 3u);
  EXPECT_EQ(f.rt.aggregate_dstats().invalidations, 0u);
}

TEST(DynamicUpdate, HomeWriterPushesDirectly) {
  Fixture f(3);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kDynamicUpdate);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    rp.start_read(p);
    rp.end_read(p);
    rp.ace_barrier(sp);
    if (rp.me() == 0) {
      rp.start_write(p);
      *p = 17;
      rp.end_write(p);
    }
    rp.ace_barrier(sp);
    rp.start_read(p);
    EXPECT_EQ(*p, 17u);
    rp.end_read(p);
    rp.ace_barrier(sp);
  });
}

TEST(DynamicUpdate, RepeatedPhases) {
  Fixture f(4);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kDynamicUpdate);
    const RegionId id = shared_region(rp, sp, 8, 1);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    rp.start_read(p);
    rp.end_read(p);
    rp.ace_barrier(sp);
    for (std::uint64_t round = 1; round <= 10; ++round) {
      const am::ProcId writer = round % 4;
      if (rp.me() == writer) {
        rp.start_write(p);
        *p = round;
        rp.end_write(p);
      }
      rp.ace_barrier(sp);
      rp.start_read(p);
      EXPECT_EQ(*p, round);
      rp.end_read(p);
      rp.ace_barrier(sp);
    }
  });
}

// --- StaticUpdate -----------------------------------------------------------

TEST(StaticUpdate, LearnsSharersThenPushes) {
  constexpr int kProcs = 4;
  Fixture f(kProcs);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kStaticUpdate);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    for (std::uint64_t it = 1; it <= 5; ++it) {
      if (rp.me() == 0) {  // owner computes
        rp.start_write(p);
        *p = it * 10;
        rp.end_write(p);
      }
      rp.ace_barrier(sp);
      rp.start_read(p);
      EXPECT_EQ(*p, it * 10);
      rp.end_read(p);
      rp.ace_barrier(sp);
    }
  });
  const DsmStats s = f.rt.aggregate_dstats();
  // Iteration 1: remote readers fetch... but the owner wrote *before* the
  // first barrier, so the first barrier already pushed to zero sharers and
  // the 3 remotes fetched on their first read.  After that: pushes only.
  EXPECT_EQ(s.read_misses, 3u);
  EXPECT_GE(s.updates, 3u * 4u);  // 3 sharers x writes in iterations 2..5
  EXPECT_EQ(s.invalidations, 0u);
}

TEST(StaticUpdate, SteadyStateHasNoRequests) {
  Fixture f(2);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kStaticUpdate);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    // Learning iteration.
    if (rp.me() == 0) {
      rp.start_write(p);
      *p = 1;
      rp.end_write(p);
    }
    rp.ace_barrier(sp);
    rp.start_read(p);
    rp.end_read(p);
    rp.ace_barrier(sp);
    const std::uint64_t misses_before = rp.dstats_total().read_misses;
    // Steady state: 20 iterations with zero read misses anywhere.
    for (std::uint64_t it = 0; it < 20; ++it) {
      if (rp.me() == 0) {
        rp.start_write(p);
        *p = it;
        rp.end_write(p);
      }
      rp.ace_barrier(sp);
      rp.start_read(p);
      EXPECT_EQ(*p, it);
      rp.end_read(p);
      rp.ace_barrier(sp);
    }
    EXPECT_EQ(rp.dstats_total().read_misses, misses_before);
  });
}

TEST(StaticUpdateDeath, RemoteWriteAborts) {
  Fixture f(2);
  EXPECT_DEATH(f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kStaticUpdate);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 1) rp.start_write(p);
    rp.ace_barrier(sp);
  }),
               "owner-computes");
}

// --- Migratory ---------------------------------------------------------------

TEST(Migratory, OwnershipFollowsAccess) {
  constexpr int kProcs = 4;
  Fixture f(kProcs);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kMigratory);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    for (std::uint32_t turn = 0; turn < kProcs; ++turn) {
      if (rp.me() == turn) {
        rp.start_write(p);
        *p += 100;
        rp.end_write(p);
      }
      rp.proc().barrier();
    }
    if (rp.me() == 0) {
      rp.start_read(p);
      EXPECT_EQ(*p, 400u);
      rp.end_read(p);
    }
    rp.proc().barrier();
  });
}

TEST(Migratory, ReadsAlsoMigrate) {
  Fixture f(2);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kMigratory);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 0) {
      rp.start_write(p);
      *p = 66;
      rp.end_write(p);
    }
    rp.proc().barrier();
    if (rp.me() == 1) {
      rp.start_read(p);
      EXPECT_EQ(*p, 66u);
      rp.end_read(p);
      // Ownership is now here: an immediate write needs no messages.
      const auto misses = rp.dstats_total().write_misses;
      rp.start_write(p);
      *p = 67;
      rp.end_write(p);
      EXPECT_EQ(rp.dstats_total().write_misses, misses);
    }
    rp.proc().barrier();
  });
}

TEST(Migratory, ContendedMigrationCountsStaySane) {
  constexpr int kProcs = 4;
  constexpr int kIters = 30;
  Fixture f(kProcs);
  f.rt.run([&](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kMigratory);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    for (int i = 0; i < kIters; ++i) {
      rp.start_write(p);
      *p += 1;
      rp.end_write(p);
    }
    rp.proc().barrier();
    if (rp.me() == 0) {
      rp.start_read(p);
      EXPECT_EQ(*p, std::uint64_t(kProcs) * kIters);
      rp.end_read(p);
    }
    rp.proc().barrier();
  });
}

// --- HomeWrite ----------------------------------------------------------------

TEST(HomeWrite, PhasedProducerConsumer) {
  Fixture f(3);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kHomeWrite);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    for (std::uint64_t phase = 1; phase <= 5; ++phase) {
      if (rp.me() == 0) {
        rp.start_write(p);
        *p = phase;
        rp.end_write(p);
      }
      rp.ace_barrier(sp);  // drops remote caches
      rp.start_read(p);
      EXPECT_EQ(*p, phase);
      rp.end_read(p);
      rp.ace_barrier(sp);
    }
  });
  // No invalidations or recalls ever.
  const DsmStats s = f.rt.aggregate_dstats();
  EXPECT_EQ(s.invalidations, 0u);
  EXPECT_EQ(s.recalls, 0u);
  // Readers refetch each phase: 2 remotes x 5 phases.
  EXPECT_EQ(s.read_misses, 10u);
}

TEST(HomeWriteDeath, RemoteWriteAborts) {
  Fixture f(2);
  EXPECT_DEATH(f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kHomeWrite);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 1) rp.start_write(p);
    rp.ace_barrier(sp);
  }),
               "only the creating processor");
}

// --- PipelinedWrite -------------------------------------------------------------

TEST(PipelinedWrite, RemoteContributionsAccumulateAtHome) {
  constexpr int kProcs = 4;
  Fixture f(kProcs);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kPipelinedWrite);
    const RegionId id = shared_region(rp, sp, 4 * sizeof(double), 0);
    auto* p = static_cast<double*>(rp.map(id));
    // Every proc (home included) adds its contribution.
    rp.start_write(p);
    for (int i = 0; i < 4; ++i) p[i] += (rp.me() + 1) * (i + 1);
    rp.end_write(p);
    rp.ace_barrier(sp);
    rp.start_read(p);
    // sum over procs of (me+1) = 1+2+3+4 = 10, times (i+1)
    for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(p[i], 10.0 * (i + 1));
    rp.end_read(p);
    rp.ace_barrier(sp);
  });
}

TEST(PipelinedWrite, ManyRegionsPipelinedWithoutWaiting) {
  constexpr int kProcs = 3;
  constexpr int kRegions = 16;
  Fixture f(kProcs);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kPipelinedWrite);
    std::vector<RegionId> ids(kRegions);
    for (int r = 0; r < kRegions; ++r)
      ids[r] = shared_region(rp, sp, sizeof(double),
                             static_cast<am::ProcId>(r % kProcs));
    std::vector<double*> ptr(kRegions);
    for (int r = 0; r < kRegions; ++r)
      ptr[r] = static_cast<double*>(rp.map(ids[r]));
    for (int r = 0; r < kRegions; ++r) {
      rp.start_write(ptr[r]);
      *ptr[r] += 1.0;
      rp.end_write(ptr[r]);  // non-blocking send to home
    }
    rp.ace_barrier(sp);
    for (int r = 0; r < kRegions; ++r) {
      rp.start_read(ptr[r]);
      EXPECT_DOUBLE_EQ(*ptr[r], double(kProcs));
      rp.end_read(ptr[r]);
    }
    rp.ace_barrier(sp);
  });
}

// --- Counter ----------------------------------------------------------------------

TEST(Counter, TicketsAreUniqueAndDense) {
  constexpr int kProcs = 4;
  constexpr int kDraws = 25;
  Fixture f(kProcs);
  std::vector<std::vector<std::uint64_t>> tickets(kProcs);
  f.rt.run([&](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kCounter);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    for (int i = 0; i < kDraws; ++i) {
      rp.start_write(p);  // atomic fetch-and-add at the home
      tickets[rp.me()].push_back(*p);
      rp.end_write(p);
    }
    rp.proc().barrier();
  });
  std::vector<std::uint64_t> all;
  for (const auto& t : tickets) all.insert(all.end(), t.begin(), t.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), std::size_t(kProcs) * kDraws);
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(all[i], i);  // dense 0..N-1: unique, no gaps, no duplicates
}

TEST(Counter, HomeDrawsInterleaveWithRemote) {
  Fixture f(2);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kCounter);
    const RegionId id = shared_region(rp, sp, 8, 1);  // home = proc 1
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    std::uint64_t local_max = 0;
    for (int i = 0; i < 50; ++i) {
      rp.start_write(p);
      local_max = std::max(local_max, *p);
      rp.end_write(p);
    }
    rp.proc().barrier();
    EXPECT_LT(local_max, 100u);
  });
}

TEST(Counter, ChangeProtocolPreservesValue) {
  Fixture f(2);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kCounter);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 0)
      for (int i = 0; i < 5; ++i) {
        rp.start_write(p);
        rp.end_write(p);
      }
    rp.proc().barrier();
    rp.change_protocol(sp, proto_names::kSC);
    if (rp.me() == 1) {
      rp.start_read(p);
      EXPECT_EQ(*p, 5u);  // the live counter value materialized at home
      rp.end_read(p);
    }
    rp.proc().barrier();
    rp.change_protocol(sp, proto_names::kCounter);
    if (rp.me() == 1) {
      rp.start_write(p);
      EXPECT_EQ(*p, 5u);  // next ticket continues from the preserved value
      rp.end_write(p);
    }
    rp.proc().barrier();
  });
}

// --- Null + phase switching (the Water pattern, §2.2) -------------------------

TEST(NullProtocol, LocalPhasesAreFree) {
  Fixture f(4);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kNull);
    const RegionId mine = rp.gmalloc(sp, 8);  // every proc its own region
    auto* p = static_cast<std::uint64_t*>(rp.map(mine));
    const auto msgs_before = rp.proc().stats().msgs_sent;
    for (int i = 0; i < 100; ++i) {
      rp.start_write(p);
      *p += 1;
      rp.end_write(p);
      rp.start_read(p);
      rp.end_read(p);
    }
    // Not a single protocol message for 400 operations.
    EXPECT_EQ(rp.proc().stats().msgs_sent, msgs_before);
    rp.ace_barrier(sp);
    EXPECT_EQ(*p, 100u);
  });
}

TEST(PhaseSwitch, WaterPatternNullThenUpdate) {
  // §2.2: alternate a null protocol for the intra-processor phase with an
  // update protocol for the inter-processor phase.
  constexpr int kProcs = 4;
  Fixture f(kProcs);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kSC);
    std::vector<RegionId> ids(kProcs);
    for (int q = 0; q < kProcs; ++q)
      ids[q] = shared_region(rp, sp, 8, static_cast<am::ProcId>(q));
    auto* mine = static_cast<std::uint64_t*>(rp.map(ids[rp.me()]));

    for (std::uint64_t step = 1; step <= 3; ++step) {
      // Intra phase: own data only, under Null.
      rp.change_protocol(sp, proto_names::kNull);
      rp.start_write(mine);
      *mine = rp.me() * 1000 + step;
      rp.end_write(mine);
      // Inter phase: everyone reads everyone, under DynamicUpdate.
      rp.change_protocol(sp, proto_names::kDynamicUpdate);
      std::uint64_t sum = 0;
      for (int q = 0; q < kProcs; ++q) {
        auto* p = static_cast<std::uint64_t*>(rp.map(ids[q]));
        rp.start_read(p);
        sum += *p;
        rp.end_read(p);
      }
      EXPECT_EQ(sum, (0 + 1000 + 2000 + 3000) + 4 * step);
      rp.ace_barrier(sp);
      rp.change_protocol(sp, proto_names::kSC);
    }
  });
}

// --- Parameterized cross-protocol sweep: barrier-phased single-writer -------

struct SweepParams {
  const char* protocol;
  std::uint32_t procs;
  std::uint32_t rounds;
};

class ProtocolSweep : public ::testing::TestWithParam<SweepParams> {};

// Any of these protocols must give barrier-separated producer/consumer
// visibility when the producer is the home.
TEST_P(ProtocolSweep, HomeProducerBarrierConsumers) {
  const auto prm = GetParam();
  Fixture f(prm.procs);
  f.rt.run([&](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(prm.protocol);
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    // Prime sharer lists where the protocol needs them.
    rp.start_read(p);
    rp.end_read(p);
    rp.ace_barrier(sp);
    for (std::uint64_t round = 1; round <= prm.rounds; ++round) {
      if (rp.me() == 0) {
        rp.start_write(p);
        *p = round;
        rp.end_write(p);
      }
      rp.ace_barrier(sp);
      rp.start_read(p);
      EXPECT_EQ(*p, round);
      rp.end_read(p);
      rp.ace_barrier(sp);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllCoherentProtocols, ProtocolSweep,
    ::testing::Values(SweepParams{proto_names::kSC, 4, 10},
                      SweepParams{proto_names::kSC, 8, 5},
                      SweepParams{proto_names::kDynamicUpdate, 4, 10},
                      SweepParams{proto_names::kDynamicUpdate, 8, 5},
                      SweepParams{proto_names::kStaticUpdate, 4, 10},
                      SweepParams{proto_names::kStaticUpdate, 8, 5},
                      SweepParams{proto_names::kHomeWrite, 4, 10},
                      SweepParams{proto_names::kHomeWrite, 8, 5},
                      SweepParams{proto_names::kMigratory, 4, 10}),
    [](const auto& info) {
      return std::string(info.param.protocol) + "_p" +
             std::to_string(info.param.procs) + "_r" +
             std::to_string(info.param.rounds);
    });

// --- Protocol golden ---------------------------------------------------------
//
// tests/data/PROTOCOL_golden.json pins the six protocols that began as
// monolithic classes and now ship as block stacks.  Per protocol it records
// what the deterministic multi-region producer/consumer kernel below
// produces (the checksum, every DsmStats field, the machine's msgs_sent) and
// the registration facts (hook bits, optimizable, merge_rw, every
// ProtocolCosts field).  The monolithic implementations and the stacks wrote
// byte-identical files before the monoliths were deleted, so the file is the
// stacks' bit-fidelity contract: a change that moves one counter fails here
// even when it moves every run's counter alike.  Regenerate deliberately
// (and review the diff) with:
//   ACE_REGEN_GOLDEN=1 ./tests/test_protocols --gtest_filter='ProtocolGolden.*'

struct EquivOutcome {
  std::uint64_t checksum = 0;
  DsmStats stats;
  std::uint64_t msgs_sent = 0;  ///< machine-wide, after the run
};

EquivOutcome run_protocol_kernel(const std::string& protocol) {
  constexpr std::uint32_t kProcs = 4;
  constexpr std::uint32_t kRegions = 8;
  constexpr std::uint64_t kRounds = 6;
  auto machine = am::Machine::create({.nprocs = kProcs});
  Runtime rt(*machine);
  const bool owner_computes = protocol == proto_names::kStaticUpdate ||
                              protocol == proto_names::kHomeWrite;
  const bool local_only = protocol == proto_names::kNull;
  // Migratory's recall/fetch counts depend on which contender's request
  // reaches the home first, so concurrent reads of one region are not
  // schedule-deterministic.  Serializing the read phase into per-processor
  // turns makes every access sequence — and therefore every counter —
  // reproducible.
  const bool serialize_reads = protocol == proto_names::kMigratory;
  std::atomic<std::uint64_t> sum{0};
  rt.run([&](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(protocol);
    std::vector<std::uint64_t*> ptr(kRegions);
    for (std::uint32_t i = 0; i < kRegions; ++i) {
      const RegionId id =
          shared_region(rp, sp, 8, static_cast<am::ProcId>(i % kProcs));
      ptr[i] = static_cast<std::uint64_t*>(rp.map(id));
    }
    if (!local_only && !serialize_reads)
      for (auto* p : ptr) {  // prime sharer sets where the protocol learns them
        rp.start_read(p);
        rp.end_read(p);
      }
    rp.ace_barrier(sp);
    const std::uint32_t read_turns = serialize_reads ? kProcs : 1;
    for (std::uint64_t round = 1; round <= kRounds; ++round) {
      for (std::uint32_t i = 0; i < kRegions; ++i) {
        const am::ProcId writer =
            owner_computes || local_only
                ? static_cast<am::ProcId>(i % kProcs)
                : static_cast<am::ProcId>((round + i) % kProcs);
        if (rp.me() == writer) {
          rp.start_write(ptr[i]);
          *ptr[i] = round * 1000 + i;
          rp.end_write(ptr[i]);
        }
      }
      rp.ace_barrier(sp);
      std::uint64_t local = 0;
      for (std::uint32_t turn = 0; turn < read_turns; ++turn) {
        if (!serialize_reads || rp.me() == turn)
          for (std::uint32_t i = 0; i < kRegions; ++i) {
            if (local_only && i % kProcs != rp.me()) continue;
            rp.start_read(ptr[i]);
            EXPECT_EQ(*ptr[i], round * 1000 + i) << protocol;
            local += *ptr[i];
            rp.end_read(ptr[i]);
          }
        if (serialize_reads) rp.ace_barrier(sp);
      }
      sum.fetch_add(local, std::memory_order_relaxed);
      rp.ace_barrier(sp);
    }
  });
  return {sum.load(), rt.aggregate_dstats(),
          machine->aggregate_stats().msgs_sent};
}

void expect_stats_equal(const DsmStats& a, const DsmStats& b,
                        const std::string& what) {
  for (const auto& [name, field] : kDsmFields)
    EXPECT_EQ(a.*field, b.*field) << name << ": " << what;
}

constexpr const char* kGoldenProtocols[] = {
    proto_names::kSC,           proto_names::kNull,
    proto_names::kDynamicUpdate, proto_names::kStaticUpdate,
    proto_names::kHomeWrite,    proto_names::kMigratory,
};

using Facts = std::vector<std::pair<std::string, std::string>>;

/// One protocol's golden facts: "<protocol>.<field>" keys with their
/// JSON-encoded values.
Facts golden_facts(const std::string& protocol) {
  const EquivOutcome o = run_protocol_kernel(protocol);
  const ProtocolInfo info = Registry::with_builtins().info(protocol);
  const auto num = [](std::uint64_t v) { return std::to_string(v); };
  const auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  Facts f = {{"checksum", num(o.checksum)}, {"msgs_sent", num(o.msgs_sent)}};
  for (const auto& [name, field] : kDsmFields)
    f.emplace_back(std::string("dsm.") + name, num(o.stats.*field));
  f.emplace_back("info.hooks", num(info.hooks));
  f.emplace_back("info.optimizable", flag(info.optimizable));
  f.emplace_back("info.merge_rw", flag(info.merge_rw));
  f.emplace_back("info.write_policy",
                 '"' + std::string(to_string(info.costs.write_policy)) + '"');
  f.emplace_back("info.barrier_rounds", num(info.costs.barrier_rounds));
  f.emplace_back("info.remote_writes", flag(info.costs.remote_writes));
  f.emplace_back("info.coherent", flag(info.costs.coherent));
  f.emplace_back("info.advisable", flag(info.costs.advisable));
  for (auto& [key, value] : f) key = protocol + "." + key;
  return f;
}

/// The golden file: one flat JSON object, one fact per line.
std::string golden_text() {
  std::string text = "{";
  for (const char* protocol : kGoldenProtocols)
    for (const auto& [key, value] : golden_facts(protocol))
      text += (text.size() > 1 ? ",\n  \"" : "\n  \"") + key + "\": " + value;
  return text + "\n}\n";
}

std::string protocol_golden_path() {
  return std::string(ACE_TEST_DATA_DIR) + "/PROTOCOL_golden.json";
}

std::string read_protocol_golden() {
  std::ifstream in(protocol_golden_path(), std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool regenerating_golden() {
  return std::getenv("ACE_REGEN_GOLDEN") != nullptr;
}

void expect_matches_golden(const std::string& protocol) {
  if (regenerating_golden())
    GTEST_SKIP() << "ProtocolGolden.RecordsSixProtocols rewrites the golden";
  std::map<std::string, std::string> recorded;
  std::istringstream lines(read_protocol_golden());
  for (std::string line; std::getline(lines, line);) {
    const auto open = line.find('"');
    const auto sep = line.find("\": ");
    if (sep == std::string::npos) continue;  // the braces
    if (line.back() == ',') line.pop_back();
    recorded[line.substr(open + 1, sep - open - 1)] = line.substr(sep + 3);
  }
  ASSERT_FALSE(recorded.empty()) << "missing " << protocol_golden_path();
  for (const auto& [key, value] : golden_facts(protocol)) {
    ASSERT_TRUE(recorded.count(key) != 0) << key << " is not recorded";
    EXPECT_EQ(recorded[key], value) << key;
  }
}

TEST(ProtocolGolden, RecordsSixProtocols) {
  if (regenerating_golden()) {
    std::ofstream out(protocol_golden_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << protocol_golden_path();
    out << golden_text();
    GTEST_SKIP() << "golden regenerated at " << protocol_golden_path();
  }
  // Byte for byte: no fact missing, none left over, none reordered.
  EXPECT_EQ(read_protocol_golden(), golden_text());
}

TEST(ProtocolGolden, SC) { expect_matches_golden(proto_names::kSC); }
TEST(ProtocolGolden, Null) { expect_matches_golden(proto_names::kNull); }
TEST(ProtocolGolden, DynamicUpdate) {
  expect_matches_golden(proto_names::kDynamicUpdate);
}
TEST(ProtocolGolden, StaticUpdate) {
  expect_matches_golden(proto_names::kStaticUpdate);
}
TEST(ProtocolGolden, HomeWrite) {
  expect_matches_golden(proto_names::kHomeWrite);
}
TEST(ProtocolGolden, Migratory) {
  expect_matches_golden(proto_names::kMigratory);
}

// --- Self-invalidation family ------------------------------------------------
//
// SelfInvalidate (write_through/self_invalidate) and SelfInvalidateDowngrade
// (downgrade_on_release/self_invalidate) never had monolithic counterparts,
// so their conformance suite is contract-based: the acquire/release ordering
// model (an acquire observes everything the previous releaser published),
// the deliberate laziness between synchronization points, and delivery-
// schedule independence of both the checksum and the protocol counters
// under seeded chaos.

class SelfInvalidateFamily : public ::testing::TestWithParam<const char*> {};

TEST_P(SelfInvalidateFamily, AcquireObservesReleasedWrites) {
  // Lock-protected increments: every critical section opens with
  // Ace_Acquire and closes with Ace_Release, so each holder must observe
  // the previous holder's released increment — the handoff litmus acemc
  // proves, on the real runtime.
  constexpr std::uint32_t kProcs = 4;
  constexpr std::uint64_t kRounds = 5;
  Fixture f(kProcs);
  f.rt.run([&](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(GetParam());
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    rp.start_read(p);  // plant a soon-stale copy everywhere
    rp.end_read(p);
    rp.ace_barrier(sp);
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      rp.ace_lock(p);
      rp.ace_acquire(sp);
      rp.start_read(p);
      const std::uint64_t seen = *p;
      rp.end_read(p);
      rp.start_write(p);
      *p = seen + 1;
      rp.end_write(p);
      rp.ace_release(sp);
      rp.ace_unlock(p);
    }
    rp.ace_barrier(sp);
    rp.start_read(p);
    EXPECT_EQ(*p, kRounds * kProcs) << GetParam();
    rp.end_read(p);
    rp.ace_barrier(sp);
  });
  const DsmStats s = f.rt.aggregate_dstats();
  EXPECT_EQ(s.acquires, kRounds * kProcs);
  EXPECT_EQ(s.releases, kRounds * kProcs);
  if (std::string(GetParam()) == proto_names::kSelfInvalidateDowngrade) {
    // Every non-home critical section buffers one dirty copy and writes it
    // back at release; proc 0 is the home and writes through to memory.
    EXPECT_EQ(s.writebacks, kRounds * (kProcs - 1));
  } else {
    EXPECT_EQ(s.writebacks, 0u);  // write_through has nothing to downgrade
  }
}

TEST_P(SelfInvalidateFamily, StaleReadsAllowedUntilAcquire) {
  // The family's whole win is laziness: between synchronization points a
  // valid copy keeps hitting locally even though the home has moved on.
  // This pins the contract — the pre-acquire read IS stale, and the
  // acquire (zero messages) is what restores freshness.
  Fixture f(2);
  f.rt.run([&](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(GetParam());
    const RegionId id = shared_region(rp, sp, 8, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 1) {
      rp.start_read(p);  // plant the copy
      EXPECT_EQ(*p, 0u);
      rp.end_read(p);
    }
    rp.proc().barrier();  // machine barrier: order without protocol action
    if (rp.me() == 0) {
      rp.start_write(p);
      *p = 1;
      rp.end_write(p);
      rp.ace_release(sp);  // published: write-back/update acked at the home
    }
    rp.proc().barrier();
    if (rp.me() == 1) {
      rp.start_read(p);
      EXPECT_EQ(*p, 0u) << "copy must stay (stale) valid until an acquire";
      rp.end_read(p);
      rp.ace_acquire(sp);
      rp.start_read(p);
      EXPECT_EQ(*p, 1u) << "post-acquire read must refetch the home value";
      rp.end_read(p);
    }
    rp.proc().barrier();
  });
  const DsmStats s = f.rt.aggregate_dstats();
  EXPECT_EQ(s.acquires, 1u);
  EXPECT_EQ(s.releases, 1u);
}

TEST_P(SelfInvalidateFamily, ChecksumAndStatsScheduleIndependentUnderChaos) {
  // Barrier-phased rotating-writer rounds under seeded ChaosPolicy: the
  // fence semantics must hold on every delivery schedule, and — because
  // acquire/release/barrier actions are driven by program order, never by
  // message arrival — the protocol counters must come out bit-identical
  // across schedules too.
  constexpr std::uint32_t kProcs = 4;
  constexpr std::uint64_t kRounds = 4;
  auto kernel = [&](std::uint64_t chaos_seed) -> EquivOutcome {
    auto machine = am::Machine::create({.nprocs = kProcs});
    if (chaos_seed != 0) {
      am::ChaosOptions copt;
      copt.seed = chaos_seed;
      machine->set_chaos(copt);
    }
    Runtime rt(*machine);
    std::atomic<std::uint64_t> sum{0};
    rt.run([&](RuntimeProc& rp) {
      const SpaceId sp = rp.new_space(GetParam());
      const RegionId id = shared_region(rp, sp, 8, 0);
      auto* p = static_cast<std::uint64_t*>(rp.map(id));
      rp.start_read(p);
      rp.end_read(p);
      rp.ace_barrier(sp);
      std::uint64_t local = 0;
      for (std::uint64_t round = 1; round <= kRounds; ++round) {
        const am::ProcId writer = static_cast<am::ProcId>(round % kProcs);
        if (rp.me() == writer) {
          rp.start_write(p);
          *p = round * 100 + writer;
          rp.end_write(p);
        }
        rp.ace_barrier(sp);
        rp.start_read(p);
        EXPECT_EQ(*p, round * 100 + writer) << GetParam();
        local += *p;
        rp.end_read(p);
        rp.ace_barrier(sp);
      }
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    return {sum.load(), rt.aggregate_dstats()};
  };
  const EquivOutcome clean = kernel(0);
  EXPECT_GT(clean.checksum, 0u);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const EquivOutcome chaotic = kernel(seed);
    EXPECT_EQ(chaotic.checksum, clean.checksum) << "seed " << seed;
    expect_stats_equal(chaotic.stats, clean.stats,
                       std::string(GetParam()) + " seed " +
                           std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(BothStacks, SelfInvalidateFamily,
                         ::testing::Values(proto_names::kSelfInvalidate,
                                           proto_names::kSelfInvalidateDowngrade),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
