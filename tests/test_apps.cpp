// Application correctness tests: every benchmark app must produce the
// sequential reference result on both runtimes (CRL, Ace) and under every
// protocol assignment used in the paper's experiments.  Sizes are scaled
// down; the access patterns are the full ones.

#include <gtest/gtest.h>

#include "apps/barnes_hut.hpp"
#include "apps/bsc.hpp"
#include "apps/em3d.hpp"
#include "apps/tsp.hpp"
#include "apps/water.hpp"

namespace {

using namespace apps;

template <class Fn>
void run_ace(std::uint32_t procs, Fn&& fn) {
  auto machine_ptr = ace::am::Machine::create({.nprocs = procs});
  ace::am::Machine& machine = *machine_ptr;
  ace::Runtime rt(machine);
  rt.run([&](ace::RuntimeProc& rp) {
    AceApi api(rp);
    fn(api);
  });
}

template <class Fn>
void run_crl(std::uint32_t procs, Fn&& fn) {
  auto machine_ptr = ace::am::Machine::create({.nprocs = procs});
  ace::am::Machine& machine = *machine_ptr;
  crl::CrlRuntime rt(machine);
  rt.run([&](crl::CrlProc& cp) {
    CrlApi api(cp);
    fn(api);
  });
}

// --- EM3D --------------------------------------------------------------------

// Every case struct below has a PrintTo: gtest otherwise prints a
// parameter's raw bytes into the test's listed name, and padding bytes or a
// string literal's address differ from process to process.
struct Em3dCase {
  const char* protocol;
  std::uint32_t procs;
};

void PrintTo(const Em3dCase& c, std::ostream* os) {
  *os << "{protocol=" << c.protocol << ", procs=" << c.procs << "}";
}

class Em3dSuite : public ::testing::TestWithParam<Em3dCase> {};

TEST_P(Em3dSuite, MatchesReferenceOnAce) {
  const auto prm = GetParam();
  Em3dParams p;
  p.n_e = 60;
  p.n_h = 60;
  p.degree = 4;
  p.steps = 8;
  p.protocol = prm.protocol;
  const auto [e_ref, h_ref] = em3d_reference(p, prm.procs);
  run_ace(prm.procs, [&](AceApi& api) {
    const Em3dResult r = em3d_run(api, p);
    if (api.me() == 0) {
      ASSERT_EQ(r.e_final.size(), e_ref.size());
      for (std::size_t i = 0; i < e_ref.size(); ++i)
        EXPECT_DOUBLE_EQ(r.e_final[i], e_ref[i]) << "E node " << i;
      for (std::size_t i = 0; i < h_ref.size(); ++i)
        EXPECT_DOUBLE_EQ(r.h_final[i], h_ref[i]) << "H node " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, Em3dSuite,
    ::testing::Values(Em3dCase{"SC", 1}, Em3dCase{"SC", 4},
                      Em3dCase{"DynamicUpdate", 4},
                      Em3dCase{"StaticUpdate", 4}, Em3dCase{"SC", 7},
                      Em3dCase{"StaticUpdate", 7}),
    [](const auto& info) {
      return std::string(info.param.protocol) + "_p" +
             std::to_string(info.param.procs);
    });

TEST(Em3d, MapPerAccessStyleMatchesReference) {
  // The CRL-1.0 annotation style used by the Figure-7a comparison.
  Em3dParams p;
  p.n_e = 40;
  p.n_h = 40;
  p.degree = 4;
  p.steps = 5;
  p.map_per_access = true;
  const auto [e_ref, h_ref] = em3d_reference(p, 4);
  run_ace(4, [&](AceApi& api) {
    const Em3dResult r = em3d_run(api, p);
    if (api.me() == 0) {
      for (std::size_t i = 0; i < e_ref.size(); ++i)
        EXPECT_DOUBLE_EQ(r.e_final[i], e_ref[i]);
    }
  });
  run_crl(4, [&](CrlApi& api) {
    const Em3dResult r = em3d_run(api, p);
    if (api.me() == 0) {
      for (std::size_t i = 0; i < h_ref.size(); ++i)
        EXPECT_DOUBLE_EQ(r.h_final[i], h_ref[i]);
    }
  });
}

TEST(Em3d, MatchesReferenceOnCrl) {
  Em3dParams p;
  p.n_e = 40;
  p.n_h = 40;
  p.degree = 4;
  p.steps = 5;
  const auto [e_ref, h_ref] = em3d_reference(p, 4);
  run_crl(4, [&](CrlApi& api) {
    const Em3dResult r = em3d_run(api, p);
    if (api.me() == 0) {
      for (std::size_t i = 0; i < e_ref.size(); ++i)
        EXPECT_DOUBLE_EQ(r.e_final[i], e_ref[i]);
    }
  });
}

TEST(Em3d, StaticUpdateUsesFewerMessagesThanSC) {
  Em3dParams p;
  p.n_e = 80;
  p.n_h = 80;
  p.degree = 5;
  p.steps = 10;
  std::uint64_t msgs_sc = 0, msgs_static = 0;
  {
    auto machine_ptr = ace::am::Machine::create({.nprocs = 4});
    ace::am::Machine& machine = *machine_ptr;
    ace::Runtime rt(machine);
    p.protocol = "SC";
    rt.run([&](ace::RuntimeProc& rp) {
      AceApi api(rp);
      em3d_run(api, p);
    });
    msgs_sc = machine.aggregate_stats().msgs_sent;
  }
  {
    auto machine_ptr = ace::am::Machine::create({.nprocs = 4});
    ace::am::Machine& machine = *machine_ptr;
    ace::Runtime rt(machine);
    p.protocol = "StaticUpdate";
    rt.run([&](ace::RuntimeProc& rp) {
      AceApi api(rp);
      em3d_run(api, p);
    });
    msgs_static = machine.aggregate_stats().msgs_sent;
  }
  EXPECT_LT(msgs_static, msgs_sc / 2) << "static update should slash traffic";
}

// --- TSP --------------------------------------------------------------------

struct TspCase {
  bool custom;
  std::uint32_t procs;
};

void PrintTo(const TspCase& c, std::ostream* os) {
  *os << "{custom=" << c.custom << ", procs=" << c.procs << "}";
}

class TspSuite : public ::testing::TestWithParam<TspCase> {};

TEST_P(TspSuite, FindsOptimumOnAce) {
  const auto prm = GetParam();
  TspParams p;
  p.n_cities = 10;
  p.custom_counter = prm.custom;
  const std::uint64_t want = tsp_reference(p);
  run_ace(prm.procs, [&](AceApi& api) {
    const TspResult r = tsp_run(api, p);
    EXPECT_EQ(r.best_len, want);
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, TspSuite,
                         ::testing::Values(TspCase{false, 1},
                                           TspCase{false, 4},
                                           TspCase{true, 4},
                                           TspCase{true, 6}),
                         [](const auto& info) {
                           return std::string(info.param.custom ? "counter"
                                                                : "sc") +
                                  "_p" + std::to_string(info.param.procs);
                         });

TEST(Tsp, FindsOptimumOnCrl) {
  TspParams p;
  p.n_cities = 10;
  const std::uint64_t want = tsp_reference(p);
  run_crl(4, [&](CrlApi& api) {
    const TspResult r = tsp_run(api, p);
    EXPECT_EQ(r.best_len, want);
  });
}

TEST(Tsp, DifferentSeedsDifferentOptima) {
  TspParams a, b;
  a.n_cities = b.n_cities = 9;
  b.seed = a.seed + 1;
  EXPECT_NE(tsp_reference(a), tsp_reference(b));
}

// --- Water --------------------------------------------------------------------

struct WaterCase {
  bool custom;
  bool null_intra;
  std::uint32_t procs;
};

void PrintTo(const WaterCase& c, std::ostream* os) {
  *os << "{custom=" << c.custom << ", null_intra=" << c.null_intra
      << ", procs=" << c.procs << "}";
}

class WaterSuite : public ::testing::TestWithParam<WaterCase> {};

TEST_P(WaterSuite, MatchesReferenceOnAce) {
  const auto prm = GetParam();
  WaterParams p;
  p.n_mols = 48;
  p.steps = 3;
  p.custom_protocols = prm.custom;
  p.use_null_intra = prm.null_intra;
  const std::vector<Mol> ref = water_reference(p);
  run_ace(prm.procs, [&](AceApi& api) {
    const WaterResult r = water_run(api, p);
    if (api.me() == 0) {
      ASSERT_EQ(r.final_state.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        for (int k = 0; k < 3; ++k)
          EXPECT_NEAR(r.final_state[i].pos[k], ref[i].pos[k], 1e-9)
              << "molecule " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, WaterSuite,
                         ::testing::Values(WaterCase{false, false, 1},
                                           WaterCase{false, false, 4},
                                           WaterCase{true, false, 4},
                                           WaterCase{true, true, 4},
                                           WaterCase{true, true, 6}),
                         [](const auto& info) {
                           std::string name =
                               info.param.custom ? "custom" : "sc";
                           if (info.param.null_intra) name += "_null";
                           return name + "_p" + std::to_string(info.param.procs);
                         });

TEST(Water, MatchesReferenceOnCrl) {
  WaterParams p;
  p.n_mols = 32;
  p.steps = 2;
  const std::vector<Mol> ref = water_reference(p);
  run_crl(3, [&](CrlApi& api) {
    const WaterResult r = water_run(api, p);
    if (api.me() == 0) {
      for (std::size_t i = 0; i < ref.size(); ++i)
        for (int k = 0; k < 3; ++k)
          EXPECT_NEAR(r.final_state[i].pos[k], ref[i].pos[k], 1e-9);
    }
  });
}

// --- Barnes-Hut -----------------------------------------------------------------

struct BhCase {
  bool custom;
  std::uint32_t procs;
};

void PrintTo(const BhCase& c, std::ostream* os) {
  *os << "{custom=" << c.custom << ", procs=" << c.procs << "}";
}

class BhSuite : public ::testing::TestWithParam<BhCase> {};

TEST_P(BhSuite, MatchesReferenceOnAce) {
  const auto prm = GetParam();
  BhParams p;
  p.n_bodies = 96;
  p.steps = 3;
  p.custom_protocols = prm.custom;
  const std::vector<BhBody> ref = bh_reference(p);
  run_ace(prm.procs, [&](AceApi& api) {
    const BhResult r = bh_run(api, p);
    if (api.me() == 0) {
      ASSERT_EQ(r.final_state.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        for (int k = 0; k < 3; ++k)
          EXPECT_NEAR(r.final_state[i].pos[k], ref[i].pos[k], 1e-12)
              << "body " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, BhSuite,
                         ::testing::Values(BhCase{false, 1}, BhCase{false, 4},
                                           BhCase{true, 4}, BhCase{true, 6}),
                         [](const auto& info) {
                           return std::string(info.param.custom ? "custom"
                                                                : "sc") +
                                  "_p" + std::to_string(info.param.procs);
                         });

TEST(BarnesHut, MapPerAccessStyleMatchesReference) {
  BhParams p;
  p.n_bodies = 64;
  p.steps = 2;
  p.map_per_access = true;
  const std::vector<BhBody> ref = bh_reference(p);
  run_ace(4, [&](AceApi& api) {
    const BhResult r = bh_run(api, p);
    if (api.me() == 0) {
      for (std::size_t i = 0; i < ref.size(); ++i)
        for (int k = 0; k < 3; ++k)
          EXPECT_NEAR(r.final_state[i].pos[k], ref[i].pos[k], 1e-12);
    }
  });
  run_crl(4, [&](CrlApi& api) {
    const BhResult r = bh_run(api, p);
    if (api.me() == 0) {
      for (std::size_t i = 0; i < ref.size(); ++i)
        for (int k = 0; k < 3; ++k)
          EXPECT_NEAR(r.final_state[i].pos[k], ref[i].pos[k], 1e-12);
    }
  });
}

TEST(BarnesHut, MatchesReferenceOnCrl) {
  BhParams p;
  p.n_bodies = 64;
  p.steps = 2;
  const std::vector<BhBody> ref = bh_reference(p);
  run_crl(3, [&](CrlApi& api) {
    const BhResult r = bh_run(api, p);
    if (api.me() == 0) {
      for (std::size_t i = 0; i < ref.size(); ++i)
        for (int k = 0; k < 3; ++k)
          EXPECT_NEAR(r.final_state[i].pos[k], ref[i].pos[k], 1e-12);
    }
  });
}

TEST(BarnesHut, TreeIsDeterministic) {
  BhParams p;
  p.n_bodies = 200;
  const auto bodies = bh_init(p);
  BhTree t1, t2;
  t1.build(bodies);
  t2.build(bodies);
  ASSERT_EQ(t1.nodes().size(), t2.nodes().size());
  for (std::size_t i = 0; i < t1.nodes().size(); ++i) {
    EXPECT_EQ(t1.nodes()[i].mass, t2.nodes()[i].mass);
    EXPECT_EQ(t1.nodes()[i].body, t2.nodes()[i].body);
  }
}

TEST(BarnesHut, TreeMassConserved) {
  BhParams p;
  p.n_bodies = 300;
  const auto bodies = bh_init(p);
  BhTree t;
  t.build(bodies);
  double total = 0;
  for (const auto& b : bodies) total += b.mass;
  EXPECT_NEAR(t.nodes()[0].mass, total, 1e-9);
  EXPECT_EQ(t.nodes()[0].count, static_cast<std::int32_t>(p.n_bodies));
}

// --- BSC -----------------------------------------------------------------------

struct BscCase {
  bool custom;
  std::uint32_t procs;
};

void PrintTo(const BscCase& c, std::ostream* os) {
  *os << "{custom=" << c.custom << ", procs=" << c.procs << "}";
}

class BscSuite : public ::testing::TestWithParam<BscCase> {};

TEST_P(BscSuite, MatchesReferenceOnAce) {
  const auto prm = GetParam();
  BscParams p;
  p.n_block_cols = 10;
  p.block = 8;
  p.band = 4;
  p.custom_protocols = prm.custom;
  const auto ref = bsc_reference(p);
  run_ace(prm.procs, [&](AceApi& api) {
    const BscResult r = bsc_run(api, p);
    for (std::uint32_t j = 0; j < p.n_block_cols; ++j) {
      if (r.l_local[j].empty()) continue;  // not my column
      for (std::uint32_t s = 0; s < ref[j].size(); ++s)
        for (std::uint32_t t = 0; t < p.block * p.block; ++t)
          EXPECT_NEAR(r.l_local[j][s][t], ref[j][s][t], 1e-9)
              << "col " << j << " slot " << s;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, BscSuite,
                         ::testing::Values(BscCase{false, 1}, BscCase{false, 4},
                                           BscCase{true, 4}, BscCase{true, 5}),
                         [](const auto& info) {
                           return std::string(info.param.custom ? "custom"
                                                                : "sc") +
                                  "_p" + std::to_string(info.param.procs);
                         });

TEST(Bsc, MatchesReferenceOnCrl) {
  BscParams p;
  p.n_block_cols = 8;
  p.block = 8;
  p.band = 3;
  const auto ref = bsc_reference(p);
  run_crl(3, [&](CrlApi& api) {
    const BscResult r = bsc_run(api, p);
    for (std::uint32_t j = 0; j < p.n_block_cols; ++j) {
      if (r.l_local[j].empty()) continue;
      for (std::uint32_t s = 0; s < ref[j].size(); ++s)
        for (std::uint32_t t = 0; t < p.block * p.block; ++t)
          EXPECT_NEAR(r.l_local[j][s][t], ref[j][s][t], 1e-9);
    }
  });
}

TEST(Bsc, FactorizationRecoversGenerator) {
  // A was built as L0 L0'; the factor must reproduce L0 (up to roundoff).
  BscParams p;
  p.n_block_cols = 6;
  p.block = 6;
  p.band = 3;
  const BscInput in = bsc_generate(p);
  const auto l = bsc_reference(p);
  for (std::uint32_t j = 0; j < p.n_block_cols; ++j)
    for (std::uint32_t s = 0; s < in.l0[j].size(); ++s)
      for (std::uint32_t t = 0; t < p.block * p.block; ++t)
        EXPECT_NEAR(l[j][s][t], in.l0[j][s][t], 1e-8);
}

}  // namespace
