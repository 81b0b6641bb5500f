// Tests for the Ace compiler: the Figure-5 annotator, the protocol-set
// dataflow analysis, the three optimization passes (§4.2), the IR
// interpreter, and end-to-end equivalence across optimization levels on the
// Table-4 kernels.

#include <gtest/gtest.h>

#include "acec/annotate.hpp"
#include "acec/kernels.hpp"
#include "acec/passes.hpp"
#include "acec/pipeline.hpp"
#include "bench/kernel_run.hpp"

namespace {

using namespace ace;
using namespace ace::ir;

const Registry& reg() {
  static const Registry r = Registry::with_builtins();
  return r;
}

// Builder helpers for small test programs.
struct TB {
  Function f;
  /// `spaces[t]` is the space of region table t.
  explicit TB(std::vector<SpaceId> spaces = {}) {
    f.table_space = std::move(spaces);
  }
  std::int32_t ci(std::int64_t v) {
    const auto r = f.reg();
    f.emit({.op = Op::kConstI, .dst = r, .imm = v});
    return r;
  }
  std::int32_t cf(double v) {
    const auto r = f.reg();
    f.emit({.op = Op::kConstF, .dst = r, .fimm = v});
    return r;
  }
  std::int32_t region(std::int64_t table, std::int64_t idx) {
    const auto r = f.reg();
    f.emit({.op = Op::kParamRegion, .dst = r, .imm = table, .imm2 = idx});
    return r;
  }
  std::int32_t load(std::int32_t rg, std::int32_t idx) {
    const auto r = f.reg();
    f.emit({.op = Op::kLoadShared, .dst = r, .a = rg, .b = idx});
    return r;
  }
  void store(std::int32_t rg, std::int32_t idx, std::int32_t v) {
    f.emit({.op = Op::kStoreShared, .a = rg, .b = idx, .c = v});
  }
  std::int32_t loop(std::int32_t n) {
    const auto r = f.reg();
    f.emit({.op = Op::kLoopBegin, .dst = r, .a = n});
    return r;
  }
  void loop_end() { f.emit({.op = Op::kLoopEnd}); }
  void barrier(SpaceId s) {
    f.emit({.op = Op::kBarrier, .imm2 = static_cast<std::int64_t>(s)});
  }
};

// --- annotator ---------------------------------------------------------------

TEST(Annotate, LoadExpandsToFigure5Sequence) {
  TB b({1});
  const auto r = b.region(0, 0);
  const auto i = b.ci(0);
  b.load(r, i);
  const Function out = annotate(b.f);
  // param, const, then map/start_read/load_ptr/end_read.
  ASSERT_EQ(out.code.size(), 6u);
  EXPECT_EQ(out.code[2].op, Op::kMap);
  EXPECT_EQ(out.code[3].op, Op::kStartRead);
  EXPECT_EQ(out.code[4].op, Op::kLoadPtr);
  EXPECT_EQ(out.code[5].op, Op::kEndRead);
  // The start/end operate on the map's destination.
  EXPECT_EQ(out.code[3].a, out.code[2].dst);
  EXPECT_EQ(out.code[5].a, out.code[2].dst);
}

TEST(Annotate, StoreExpandsToWriteSequence) {
  TB b({1});
  const auto r = b.region(0, 0);
  const auto i = b.ci(0);
  const auto v = b.cf(1.5);
  b.store(r, i, v);
  const Function out = annotate(b.f);
  EXPECT_EQ(count_ops(out, Op::kMap), 1u);
  EXPECT_EQ(count_ops(out, Op::kStartWrite), 1u);
  EXPECT_EQ(count_ops(out, Op::kStorePtr), 1u);
  EXPECT_EQ(count_ops(out, Op::kEndWrite), 1u);
}

TEST(Annotate, PassesThroughOtherOps) {
  TB b;
  const auto n = b.ci(5);
  b.loop(n);
  b.loop_end();
  b.barrier(0);
  const Function out = annotate(b.f);
  EXPECT_EQ(out.code.size(), b.f.code.size());
}

// --- analysis ----------------------------------------------------------------

TEST(Analysis, TracksTableSpaceProtocols) {
  TB b({3});
  const auto r = b.region(0, 0);
  const auto i = b.ci(0);
  b.load(r, i);
  const Function f = annotate(b.f);
  const auto an = analyze(f, {{3, {proto_names::kHomeWrite}}}, reg());
  bool found = false;
  for (std::size_t k = 0; k < f.code.size(); ++k) {
    if (f.code[k].op != Op::kStartRead) continue;
    found = true;
    EXPECT_EQ(an.per_inst[k].protocols,
              std::set<std::string>{proto_names::kHomeWrite});
    EXPECT_TRUE(an.per_inst[k].all_optimizable);
    EXPECT_TRUE(an.per_inst[k].singleton());
  }
  EXPECT_TRUE(found);
}

TEST(Analysis, SCIsNotOptimizable) {
  TB b({0});
  const auto r = b.region(0, 0);
  const auto i = b.ci(0);
  b.load(r, i);
  const Function f = annotate(b.f);
  const auto an = analyze(f, {{0, {proto_names::kSC}}}, reg());
  for (std::size_t k = 0; k < f.code.size(); ++k) {
    if (f.code[k].op == Op::kStartRead) {
      EXPECT_FALSE(an.per_inst[k].all_optimizable);
    }
  }
}

TEST(Analysis, ChangeProtocolStrongUpdate) {
  // Access before the change sees the old protocol; after, the new one.
  TB b({2});
  const auto r = b.region(0, 0);
  const auto i = b.ci(0);
  b.load(r, i);  // under SC
  b.f.emit({.op = Op::kChangeProtocol,
            .imm = proto_index_of(proto_names::kHomeWrite),
            .imm2 = 2});
  b.load(r, i);  // under HomeWrite
  const Function f = annotate(b.f);
  const auto an = analyze(f, {{2, {proto_names::kSC}}}, reg());
  std::vector<std::set<std::string>> reads;
  for (std::size_t k = 0; k < f.code.size(); ++k)
    if (f.code[k].op == Op::kStartRead) reads.push_back(an.per_inst[k].protocols);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0], std::set<std::string>{proto_names::kSC});
  EXPECT_EQ(reads[1], std::set<std::string>{proto_names::kHomeWrite});
}

TEST(Analysis, ChangeProtocolInLoopMergesSets) {
  // A change inside a loop makes both protocols possible at the access on
  // later iterations (back-edge merge).
  TB b({2});
  const auto r = b.region(0, 0);
  const auto i = b.ci(0);
  const auto n = b.ci(4);
  b.loop(n);
  b.load(r, i);
  b.f.emit({.op = Op::kChangeProtocol,
            .imm = proto_index_of(proto_names::kHomeWrite),
            .imm2 = 2});
  b.loop_end();
  const Function f = annotate(b.f);
  const auto an = analyze(f, {{2, {proto_names::kDynamicUpdate}}}, reg());
  for (std::size_t k = 0; k < f.code.size(); ++k)
    if (f.code[k].op == Op::kStartRead) {
      EXPECT_EQ(an.per_inst[k].protocols,
                (std::set<std::string>{proto_names::kDynamicUpdate,
                                       proto_names::kHomeWrite}));
      EXPECT_FALSE(an.per_inst[k].singleton());
    }
}

TEST(Analysis, NewSpaceAndGMallocTracked) {
  TB b;
  const auto sp = b.f.reg();
  b.f.emit({.op = Op::kNewSpace,
            .dst = sp,
            .imm = proto_index_of(proto_names::kNull)});
  const auto rg = b.f.reg();
  b.f.emit({.op = Op::kGMallocR, .dst = rg, .a = sp, .imm = 8});
  const auto i = b.ci(0);
  b.load(rg, i);
  const Function f = annotate(b.f);
  const auto an = analyze(f, {}, reg());
  for (std::size_t k = 0; k < f.code.size(); ++k) {
    if (f.code[k].op == Op::kStartRead) {
      EXPECT_EQ(an.per_inst[k].protocols,
                std::set<std::string>{proto_names::kNull});
    }
  }
}

// --- loop invariance -----------------------------------------------------------

Function li(const Function& f,
            const std::map<SpaceId, std::set<std::string>>& sp,
            PassReport* rep) {
  return opt_loop_invariance(f, analyze(f, sp, reg()), rep);
}

TEST(LoopInvariance, HoistsInvariantMapAndPair) {
  TB b({1});
  const auto r = b.region(0, 0);
  const auto n = b.ci(10);
  const auto i = b.loop(n);
  b.load(r, i);
  b.loop_end();
  const Function f = annotate(b.f);
  PassReport rep;
  const Function out = li(f, {{1, {proto_names::kHomeWrite}}}, &rep);
  EXPECT_EQ(rep.hoisted_maps, 1u);
  EXPECT_EQ(rep.hoisted_pairs, 1u);
  // map/start before loop, end after.
  std::size_t loop_begin = 0, loop_end_i = 0, map_i = 0, start_i = 0, end_i = 0;
  for (std::size_t k = 0; k < out.code.size(); ++k) {
    switch (out.code[k].op) {
      case Op::kLoopBegin: loop_begin = k; break;
      case Op::kLoopEnd: loop_end_i = k; break;
      case Op::kMap: map_i = k; break;
      case Op::kStartRead: start_i = k; break;
      case Op::kEndRead: end_i = k; break;
      default: break;
    }
  }
  EXPECT_LT(map_i, loop_begin);
  EXPECT_LT(start_i, loop_begin);
  EXPECT_GT(end_i, loop_end_i);
}

TEST(LoopInvariance, DoesNotHoistNonOptimizable) {
  TB b({0});
  const auto r = b.region(0, 0);
  const auto n = b.ci(10);
  const auto i = b.loop(n);
  b.load(r, i);
  b.loop_end();
  const Function f = annotate(b.f);
  PassReport rep;
  li(f, {{0, {proto_names::kSC}}}, &rep);
  EXPECT_EQ(rep.hoisted_maps, 0u);
  EXPECT_EQ(rep.hoisted_pairs, 0u);
}

TEST(LoopInvariance, DoesNotHoistVariantMap) {
  // Region chosen by the induction variable: nothing to hoist.
  TB b({1});
  const auto n = b.ci(4);
  const auto i = b.loop(n);
  const auto rg = b.f.reg();
  b.f.emit({.op = Op::kParamRegionIdx, .dst = rg, .a = i, .imm = 0});
  const auto z = b.ci(0);
  b.load(rg, z);
  b.loop_end();
  const Function f = annotate(b.f);
  PassReport rep;
  li(f, {{1, {proto_names::kHomeWrite}}}, &rep);
  EXPECT_EQ(rep.hoisted_maps, 0u);
}

TEST(LoopInvariance, NeverMovesPastBarrier) {
  TB b({1});
  const auto r = b.region(0, 0);
  const auto n = b.ci(4);
  const auto i = b.loop(n);
  b.load(r, i);
  b.barrier(1);
  b.loop_end();
  const Function f = annotate(b.f);
  PassReport rep;
  li(f, {{1, {proto_names::kHomeWrite}}}, &rep);
  EXPECT_EQ(rep.hoisted_maps, 0u);
  EXPECT_EQ(rep.hoisted_pairs, 0u);
}

TEST(LoopInvariance, HoistsOutOfNestedLoops) {
  TB b({1});
  const auto r = b.region(0, 0);
  const auto n = b.ci(3);
  b.loop(n);
  b.loop(n);
  const auto z = b.ci(0);
  b.load(r, z);
  b.loop_end();
  b.loop_end();
  const Function f = annotate(b.f);
  PassReport rep;
  const Function out = li(f, {{1, {proto_names::kHomeWrite}}}, &rep);
  // The map must end up before the *outer* loop.
  std::size_t first_loop = 0, map_i = 0;
  for (std::size_t k = 0; k < out.code.size(); ++k) {
    if (out.code[k].op == Op::kLoopBegin && first_loop == 0) first_loop = k;
    if (out.code[k].op == Op::kMap) map_i = k;
  }
  EXPECT_LT(map_i, first_loop);
}

// --- merge calls -----------------------------------------------------------------

Function mc(const Function& f,
            const std::map<SpaceId, std::set<std::string>>& sp,
            PassReport* rep) {
  return opt_merge_calls(f, analyze(f, sp, reg()), rep);
}

TEST(MergeCalls, MergesRedundantMapsAndPairs) {
  // Two loads of the same region in a straight line (Figure 6's pattern).
  TB b({1});
  const auto r = b.region(0, 0);
  const auto z = b.ci(0);
  const auto o = b.ci(1);
  b.load(r, z);
  b.load(r, o);
  const Function f = annotate(b.f);
  PassReport rep;
  const Function out = mc(f, {{1, {proto_names::kHomeWrite}}}, &rep);
  EXPECT_EQ(rep.merged_maps, 1u);
  EXPECT_EQ(rep.merged_pairs, 1u);
  EXPECT_EQ(count_ops(out, Op::kStartRead), 1u);
  EXPECT_EQ(count_ops(out, Op::kEndRead), 1u);
}

TEST(MergeCalls, DoesNotMergeAcrossBarrier) {
  TB b({1});
  const auto r = b.region(0, 0);
  const auto z = b.ci(0);
  b.load(r, z);
  b.barrier(1);
  b.load(r, z);
  const Function f = annotate(b.f);
  PassReport rep;
  mc(f, {{1, {proto_names::kHomeWrite}}}, &rep);
  EXPECT_EQ(rep.merged_maps, 0u);
  EXPECT_EQ(rep.merged_pairs, 0u);
}

TEST(MergeCalls, DoesNotMergeReadWithWriteByDefault) {
  // Footnote 1 of §4.2: read/write merging needs the protocol's opt-in;
  // DynamicUpdate does not declare merge_rw.
  TB b({1});
  const auto r = b.region(0, 0);
  const auto z = b.ci(0);
  const auto v = b.load(r, z);
  b.store(r, z, v);
  const Function f = annotate(b.f);
  PassReport rep;
  const Function out = mc(f, {{1, {proto_names::kDynamicUpdate}}}, &rep);
  EXPECT_EQ(rep.merged_pairs, 0u);
  EXPECT_EQ(count_ops(out, Op::kEndRead), 1u);
  EXPECT_EQ(count_ops(out, Op::kStartWrite), 1u);
}

TEST(MergeCalls, MergesReadIntoWriteWhenProtocolAllows) {
  // HomeWrite declares merge_rw: the read episode escalates into the write
  // (END_READ + START_WRITE dropped; the closing END_WRITE survives).
  TB b({1});
  const auto r = b.region(0, 0);
  const auto z = b.ci(0);
  const auto v = b.load(r, z);
  b.store(r, z, v);
  const Function f = annotate(b.f);
  PassReport rep;
  const Function out = mc(f, {{1, {proto_names::kHomeWrite}}}, &rep);
  EXPECT_EQ(rep.merged_pairs, 1u);
  EXPECT_EQ(count_ops(out, Op::kEndRead), 0u);
  EXPECT_EQ(count_ops(out, Op::kStartWrite), 0u);
  EXPECT_EQ(count_ops(out, Op::kStartRead), 1u);  // opens the episode
  EXPECT_EQ(count_ops(out, Op::kEndWrite), 1u);   // closes it (dirty marking)
}

TEST(MergeCalls, DoesNotEscalateWriteIntoRead) {
  // Only the read->write direction merges: the write's END must run.
  TB b({1});
  const auto r = b.region(0, 0);
  const auto z = b.ci(0);
  const auto v = b.cf(2.0);
  b.store(r, z, v);
  b.load(r, z);
  const Function f = annotate(b.f);
  PassReport rep;
  const Function out = mc(f, {{1, {proto_names::kHomeWrite}}}, &rep);
  EXPECT_EQ(rep.merged_pairs, 0u);
  EXPECT_EQ(count_ops(out, Op::kEndWrite), 1u);
  EXPECT_EQ(count_ops(out, Op::kStartRead), 1u);
}

TEST(MergeCalls, SkipsNonOptimizableProtocols) {
  TB b({0});
  const auto r = b.region(0, 0);
  const auto z = b.ci(0);
  b.load(r, z);
  b.load(r, z);
  const Function f = annotate(b.f);
  PassReport rep;
  mc(f, {{0, {proto_names::kSC}}}, &rep);
  EXPECT_EQ(rep.merged_maps, 0u);
  EXPECT_EQ(rep.merged_pairs, 0u);
}

// --- direct calls ----------------------------------------------------------------

TEST(DirectCalls, DevirtualizesSingletonAndRemovesNull) {
  TB b({1});
  const auto r = b.region(0, 0);
  const auto z = b.ci(0);
  b.load(r, z);  // HomeWrite: start_read present, end_read null
  const Function f = annotate(b.f);
  PassReport rep;
  const Function out = opt_direct_calls(
      f, analyze(f, {{1, {proto_names::kHomeWrite}}}, reg()), reg(), &rep);
  EXPECT_EQ(rep.direct_calls, 1u);   // start_read
  EXPECT_EQ(rep.removed_null, 1u);   // end_read deleted
  EXPECT_EQ(count_ops(out, Op::kEndRead), 0u);
  for (const auto& inst : out.code) {
    if (inst.op == Op::kStartRead) {
      EXPECT_TRUE(inst.direct);
    }
  }
}

TEST(DirectCalls, LeavesNonSingletonAlone) {
  TB b({1});
  const auto r = b.region(0, 0);
  const auto z = b.ci(0);
  b.load(r, z);
  const Function f = annotate(b.f);
  PassReport rep;
  const Function out = opt_direct_calls(
      f,
      analyze(f,
              {{1, {proto_names::kHomeWrite, proto_names::kDynamicUpdate}}},
              reg()),
      reg(), &rep);
  EXPECT_EQ(rep.direct_calls, 0u);
  EXPECT_EQ(rep.removed_null, 0u);
  EXPECT_EQ(count_ops(out, Op::kEndRead), 1u);
}

// --- interpreter -------------------------------------------------------------------

TEST(Interp, ExecutesArithmeticAndLoops) {
  // sum of i*2 for i in [0,10) = 90, written to a region.
  TB b({0});
  const auto r = b.region(0, 0);
  const auto n = b.ci(10);
  const auto two = b.cf(2.0);
  auto acc = b.cf(0.0);
  const auto i = b.loop(n);
  {
    // acc += i * 2 (convert i via an f64 table lookup-free trick: charge op)
    const auto fi = b.f.reg();
    b.f.emit({.op = Op::kParamFIdx, .dst = fi, .a = i, .imm = 0});
    const auto t = b.f.reg();
    b.f.emit({.op = Op::kMulF, .dst = t, .a = fi, .b = two});
    const auto s = b.f.reg();
    b.f.emit({.op = Op::kAddF, .dst = s, .a = acc, .b = t});
    b.f.emit({.op = Op::kCopy, .dst = acc, .a = s});
  }
  b.loop_end();
  const auto z = b.ci(0);
  b.store(r, z, acc);
  const Function f = annotate(b.f);

  auto machine_ptr = am::Machine::create({.nprocs = 1});
  am::Machine& machine = *machine_ptr;
  Runtime rt(machine);
  rt.run([&](RuntimeProc& rp) {
    KernelArgs args;
    args.region_tables = {{rp.gmalloc(kDefaultSpace, 8)}};
    args.f64_tables = {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}};
    const ExecStats es = execute(f, rp, args);
    EXPECT_GT(es.insts, 40u);
    auto* p = static_cast<double*>(rp.map(args.region_tables[0][0]));
    rp.start_read(p);
    EXPECT_DOUBLE_EQ(*p, 90.0);
    rp.end_read(p);
  });
}

TEST(Interp, ZeroTripLoopSkipsBody) {
  TB b;
  const auto n = b.ci(0);
  b.loop(n);
  b.f.emit({.op = Op::kCharge, .imm = 1'000'000});
  b.loop_end();
  const Function f = annotate(b.f);
  auto machine_ptr = am::Machine::create({.nprocs = 1});
  am::Machine& machine = *machine_ptr;
  Runtime rt(machine);
  rt.run([&](RuntimeProc& rp) {
    const auto t0 = rp.proc().vclock_ns();
    execute(f, rp, {});
    EXPECT_EQ(rp.proc().vclock_ns(), t0);  // body never ran
  });
}

// --- direct calls keep the runtime's books on every kernel -----------------------

// At DC the kernels reach their protocols through RuntimeProc's *_direct
// entries.  Every episode a direct call opens must be closed again, so that
// Ace_ChangeProtocol can quiesce the kernel's spaces after the body, and
// every START_READ must be counted as at MC, where all of them dispatch.
TEST(DirectCalls, KernelsCloseEveryEpisodeAndCountEveryRead) {
  constexpr std::uint32_t kProcs = 4;
  for (const KernelCase& kc : table4_cases(1)) {
    const Compiled c = compile(kc.program, kc.space_protocols, reg());
    const auto run = [&kc](const Function& f) {
      return bench::run_ace(
          kProcs,
          [&kc](apps::AceApi& api) { return kc.setup(api.runtime_proc()); },
          [&kc, &f](apps::AceApi& api, const KernelArgs& args) {
            RuntimeProc& rp = api.runtime_proc();
            execute(f, rp, args);
            rp.proc().barrier();
            std::uint64_t open = 0;
            rp.regions().for_each([&open](Region& r) {
              open += r.active_readers + r.active_writers;
            });
            EXPECT_EQ(open, 0u) << kc.name << " on rank " << rp.me();
            rp.allreduce_u64(&open, 1, RuntimeProc::ReduceOp::kSum);
            if (open == 0)  // else ChangeProtocol would abort
              for (const auto& [space, protocols] : kc.space_protocols)
                rp.change_protocol(space, proto_names::kSC);
          },
          {});
    };
    const bench::RunResult mc = run(c.stages[2].f);
    const bench::RunResult dc = run(c.dc());
    ASSERT_EQ(dc.spaces.size(), mc.spaces.size()) << kc.name;
    for (std::size_t i = 0; i < dc.spaces.size(); ++i) {
      EXPECT_EQ(dc.spaces[i].protocol, mc.spaces[i].protocol) << kc.name;
      EXPECT_EQ(dc.spaces[i].dsm.start_reads, mc.spaces[i].dsm.start_reads)
          << kc.name << " space " << dc.spaces[i].space << " ("
          << dc.spaces[i].protocol << ")";
    }
  }
}

// --- end-to-end: all optimization levels agree on all kernels -------------------

struct KernelLevel {
  std::size_t kernel;
  int level;  // 0=base 1=li 2=mc 3=dc
};

class KernelEquivalence
    : public ::testing::TestWithParam<KernelLevel> {};

TEST_P(KernelEquivalence, SameChecksumAsBase) {
  const auto prm = GetParam();
  constexpr std::uint32_t kProcs = 4;
  const auto cases = table4_cases(1);
  const KernelCase& kc = cases[prm.kernel];
  const Compiled c = compile(kc.program, kc.space_protocols, reg());
  auto run_level = [&](int level) -> double {
    return bench::run_kernel(kc, &c.stages[level].f, kProcs, {}).checksum;
  };
  const double base = run_level(0);
  const double opt = run_level(prm.level);
  EXPECT_NEAR(opt, base, std::abs(base) * 1e-9 + 1e-9);
}

std::string kernel_level_name(
    const ::testing::TestParamInfo<KernelLevel>& info) {
  static const char* const apps[5] = {"bh", "bsc", "em3d", "tsp", "water"};
  return std::string(apps[info.param.kernel]) + "_level" +
         std::to_string(info.param.level);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelEquivalence,
    ::testing::Values(
        KernelLevel{0, 1}, KernelLevel{0, 2}, KernelLevel{0, 3},
        KernelLevel{1, 1}, KernelLevel{1, 2}, KernelLevel{1, 3},
        KernelLevel{2, 1}, KernelLevel{2, 2}, KernelLevel{2, 3},
        KernelLevel{3, 1}, KernelLevel{3, 2}, KernelLevel{3, 3},
        KernelLevel{4, 1}, KernelLevel{4, 2}, KernelLevel{4, 3}),
    kernel_level_name);

}  // namespace
