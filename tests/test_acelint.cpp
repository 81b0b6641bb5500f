// Tests for acelint: the annotation verifier (AV01..AV10), the
// protocol-usage linter (AL01..AL06), and the translation-validation pass
// checker (AT01..AT07).
//
// The core of the file is a seeded-bug corpus: for every diagnostic class a
// small IR function (or a hand-mutilated before/after pair) is built that
// contains exactly that bug, and the test asserts the intended rule ID
// fires.  The flip side — the shipped Table-4 kernels stay clean at every
// compilation stage, and every legal Figure-6 merge is accepted — is
// covered at the end.

#include <gtest/gtest.h>

#include <algorithm>

#include "ace/config.hpp"
#include "acec/kernels.hpp"
#include "acec/lint.hpp"
#include "acec/pipeline.hpp"
#include "acec/verify.hpp"
#include "mc/checker.hpp"

namespace {

using namespace ace;
using namespace ace::ir;

const Registry& reg() {
  static const Registry r = Registry::with_builtins();
  return r;
}

using SpaceProtos = std::map<SpaceId, std::set<std::string>>;

bool has_rule(const std::vector<Diag>& ds, const std::string& rule) {
  return std::any_of(ds.begin(), ds.end(),
                     [&](const Diag& d) { return d.rule == rule; });
}

std::string rules_of(const std::vector<Diag>& ds) {
  std::string out;
  for (const auto& d : ds) {
    if (!out.empty()) out += ' ';
    out += d.rule;
  }
  return out;
}

/// Builder for already-annotated IR (the level the verifier runs on).
struct AB {
  Function f;
  AB() { f.name = "seeded"; }
  std::int32_t ci(std::int64_t v) {
    const auto r = f.reg();
    f.emit({.op = Op::kConstI, .dst = r, .imm = v});
    return r;
  }
  std::int32_t region(std::int64_t table, std::int64_t idx) {
    const auto r = f.reg();
    f.emit({.op = Op::kParamRegion, .dst = r, .imm = table, .imm2 = idx});
    return r;
  }
  std::int32_t map(std::int32_t rg) {
    const auto r = f.reg();
    f.emit({.op = Op::kMap, .dst = r, .a = rg});
    return r;
  }
  void sr(std::int32_t p) { f.emit({.op = Op::kStartRead, .a = p}); }
  void er(std::int32_t p) { f.emit({.op = Op::kEndRead, .a = p}); }
  void sw(std::int32_t p) { f.emit({.op = Op::kStartWrite, .a = p}); }
  void ew(std::int32_t p) { f.emit({.op = Op::kEndWrite, .a = p}); }
  std::int32_t loadp(std::int32_t p, std::int32_t idx) {
    const auto r = f.reg();
    f.emit({.op = Op::kLoadPtr, .dst = r, .a = p, .b = idx});
    return r;
  }
  void storep(std::int32_t p, std::int32_t idx, std::int32_t v) {
    f.emit({.op = Op::kStorePtr, .a = p, .b = idx, .c = v});
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
  void change_protocol(SpaceId s, const std::string& proto) {
    f.emit({.op = Op::kChangeProtocol,
            .imm = proto_index_of(proto),
            .imm2 = static_cast<std::int64_t>(s)});
  }
};

/// One shared-memory space (id 1) under `proto`; table 0 lives in it.
SpaceProtos one_space(const std::string& proto) { return {{1, {proto}}}; }

std::vector<Diag> run_verify(const AB& b, const SpaceProtos& sp,
                             bool elided = false) {
  return verify(b.f, sp, reg(), VerifyOptions{.null_hooks_elided = elided});
}

// --- AV: seeded verifier bugs ------------------------------------------------

TEST(Verify, AV01_UseOfNonDominatingMap) {
  // The map lives inside a loop body; a zero-trip loop leaves the register
  // undefined at the START_READ after the loop.
  AB b;
  b.f.table_space = {1};
  const auto rg = b.region(0, 0);
  const auto n = b.ci(2);
  b.loop(n);
  const auto p = b.map(rg);
  b.sr(p);
  b.er(p);
  b.loop_end();
  b.sr(p);  // p does not dominate this use
  b.er(p);
  const auto ds = run_verify(b, one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AV01")) << rules_of(ds);
}

TEST(Verify, AV02_UnpairedEnd) {
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  b.er(p);  // never opened
  const auto ds = run_verify(b, one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AV02")) << rules_of(ds);
}

TEST(Verify, AV02_EndWriteClosesReadWindowWithoutMergeRw) {
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  b.sr(p);
  b.ew(p);  // DynamicUpdate has no merge_rw opt-in
  const auto ds = run_verify(b, one_space(proto_names::kDynamicUpdate));
  EXPECT_TRUE(has_rule(ds, "AV02")) << rules_of(ds);
}

TEST(Verify, AV03_DoubleStart) {
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  b.sr(p);
  b.sr(p);  // read window already open
  b.er(p);
  const auto ds = run_verify(b, one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AV03")) << rules_of(ds);
}

TEST(Verify, AV04_WindowOpenAcrossBarrier) {
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  b.sr(p);
  b.barrier(1);  // window leaks across synchronization
  b.er(p);
  const auto ds = run_verify(b, one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AV04")) << rules_of(ds);
}

TEST(Verify, AV05_WindowStateDiffersAcrossBackEdge) {
  // Open at loop entry, closed inside the body: the second iteration would
  // run END on an already-closed window.
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  const auto n = b.ci(2);
  b.sr(p);
  b.loop(n);
  b.er(p);
  b.loop_end();
  const auto ds = run_verify(b, one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AV05")) << rules_of(ds);
}

TEST(Verify, AV06_AccessOutsideWindow) {
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  const auto i = b.ci(0);
  b.loadp(p, i);  // no window open
  const auto ds = run_verify(b, one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AV06")) << rules_of(ds);
}

TEST(Verify, AV07_WriteUnderReadWindowWithoutMergeRw) {
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  const auto i = b.ci(0);
  b.sr(p);
  b.storep(p, i, i);  // DynamicUpdate does not allow the escalation
  b.er(p);
  const auto ds = run_verify(b, one_space(proto_names::kDynamicUpdate));
  EXPECT_TRUE(has_rule(ds, "AV07")) << rules_of(ds);
}

TEST(Verify, AV08_ChangeProtocolUnderOpenWindow) {
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  b.sr(p);
  b.change_protocol(1, proto_names::kSC);  // space 1 has an open window
  b.er(p);
  const auto ds = run_verify(b, one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AV08")) << rules_of(ds);
}

TEST(Verify, AV09_WindowNeverClosed) {
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  b.sw(p);  // function ends with the window open
  const auto ds = run_verify(b, one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AV09")) << rules_of(ds);
}

TEST(Verify, AV10_PointerOverwrittenWhileWindowOpen) {
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  b.sr(p);
  b.f.emit({.op = Op::kConstI, .dst = p, .imm = 0});  // clobber the handle
  const auto ds = run_verify(b, one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AV10")) << rules_of(ds);
}

// --- AV: legal shapes the verifier must accept -------------------------------

TEST(Verify, AcceptsMergedReadAndWriteWindowOnOneRegister) {
  // The shape Merge Calls produces on BSC: one register carries a read and
  // a write window at the same time, closed in LIFO order.
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  const auto i = b.ci(0);
  b.sr(p);
  b.sw(p);
  b.loadp(p, i);
  b.storep(p, i, i);
  b.ew(p);
  b.er(p);
  const auto ds = run_verify(b, one_space(proto_names::kDynamicUpdate));
  EXPECT_TRUE(ds.empty()) << rules_of(ds);
}

TEST(Verify, AcceptsMergeRwEscalation) {
  // Figure-6 read→write merge: START_READ ... store ... END_WRITE is legal
  // exactly when every possible protocol opts in via merge_rw.
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  const auto i = b.ci(0);
  b.sr(p);
  b.storep(p, i, i);
  b.ew(p);
  const auto ds = run_verify(b, one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(ds.empty()) << rules_of(ds);
}

TEST(Verify, ElidedModeAcceptsNullHookDeletions) {
  // Post-DC, HomeWrite (hooks: START_READ, END_WRITE) has lost its END_READ
  // call: the read window is never explicitly closed.  Elided mode treats
  // it as soft (auto-closing); strict mode must reject the same IR.
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  const auto i = b.ci(0);
  b.sr(p);
  b.loadp(p, i);  // no END_READ follows: the hook is null
  EXPECT_TRUE(run_verify(b, one_space(proto_names::kHomeWrite), true).empty());
  const auto strict = run_verify(b, one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(strict, "AV09")) << rules_of(strict);
}

TEST(Verify, ElidedModeAcceptsNullStartDeletions) {
  // Post-DC, HomeWrite's START_WRITE is gone too: the store and END_WRITE
  // run with no window ever opened.
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  const auto i = b.ci(0);
  b.storep(p, i, i);
  b.ew(p);
  EXPECT_TRUE(run_verify(b, one_space(proto_names::kHomeWrite), true).empty());
  const auto strict = run_verify(b, one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(strict, "AV06")) << rules_of(strict);
  EXPECT_TRUE(has_rule(strict, "AV02")) << rules_of(strict);
}

// --- AL: protocol-usage linter ----------------------------------------------

std::vector<Diag> run_lint(const AB& b, const SpaceProtos& sp) {
  return lint(b.f, analyze(b.f, sp, reg()), &reg());
}

TEST(Lint, AL01_EmptyProtocolSet) {
  AB b;
  b.f.table_space = {7};  // space 7 has no protocol in the signature
  const auto p = b.map(b.region(0, 0));
  const auto i = b.ci(0);
  b.sr(p);
  b.loadp(p, i);
  b.er(p);
  const auto ds = run_lint(b, {});
  EXPECT_TRUE(has_rule(ds, "AL01")) << rules_of(ds);
}

TEST(Lint, AL02_DirectDispatchOnNonSingletonSet) {
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  b.f.emit({.op = Op::kStartRead, .a = p, .direct = true});
  b.er(p);
  const SpaceProtos sp = {
      {1, {proto_names::kHomeWrite, proto_names::kDynamicUpdate}}};
  const auto ds = run_lint(b, sp);
  EXPECT_TRUE(has_rule(ds, "AL02")) << rules_of(ds);
}

TEST(Lint, AL04_MixedCostClassProtocolSet) {
  // A set straddling cost classes: SC (plain coherent, advisable) together
  // with Counter (advisable=no — its stores merge, they don't overwrite).
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  b.sr(p);
  b.loadp(p, b.ci(0));
  b.er(p);
  const SpaceProtos sp = {{1, {proto_names::kSC, proto_names::kCounter}}};
  const auto ds = run_lint(b, sp);
  EXPECT_TRUE(has_rule(ds, "AL04")) << rules_of(ds);
}

TEST(Lint, AL04_CoherentProtocolsMayShareASet) {
  // Two plain coherent protocols in one set is routine Ace_ChangeProtocol
  // usage, not a hazard.
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  b.sr(p);
  b.loadp(p, b.ci(0));
  b.er(p);
  const SpaceProtos sp = {
      {1, {proto_names::kSC, proto_names::kDynamicUpdate}}};
  const auto ds = run_lint(b, sp);
  EXPECT_FALSE(has_rule(ds, "AL04")) << rules_of(ds);
}

TEST(Lint, AL04_SkippedWithoutRegistry) {
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  b.sr(p);
  b.loadp(p, b.ci(0));
  b.er(p);
  const SpaceProtos sp = {{1, {proto_names::kSC, proto_names::kCounter}}};
  const auto ds = lint(b.f, analyze(b.f, sp, reg()));
  EXPECT_FALSE(has_rule(ds, "AL04")) << rules_of(ds);
}

TEST(Lint, AL05_FiresOnSeededDescriptorMismatches) {
  // A corpus of stacks whose declared facts lie about what their blocks
  // derive, one lie per stack.  Each must produce exactly the AL05
  // diagnostic for the lied-about fact.
  ConfigError err;
  const auto infos = parse_config(
      // drain_two derives barrier_rounds 2, declared 1.
      "stack A { fetch valid_bit; write push_on_write; order drain_two;\n"
      "  barrier_rounds 1; }\n"
      // local derives coherent no / advisable no, declared yes.
      "stack B { fetch none; write local; order plain;\n"
      "  coherent yes; advisable yes; }\n"
      // directory derives optimizable no, declared yes.
      "stack C { fetch directory; write exclusive; order plain;\n"
      "  optimizable yes; }\n"
      // mark_dirty+push_dirty derives push_at_barrier and no start_write;
      // both declared wrong.
      "stack D { fetch valid_bit; write mark_dirty; order push_dirty;\n"
      "  start_read yes; end_write yes; barrier yes; lock yes; unlock yes;\n"
      "  start_write yes; write_policy invalidate; }\n",
      &err);
  ASSERT_EQ(infos.size(), 4u) << err.message;
  const auto ds = lint_config(infos);
  ASSERT_EQ(ds.size(), 6u) << to_string(ds);
  for (const auto& d : ds) EXPECT_EQ(d.rule, "AL05");
  auto msgs_for = [&](const char* name) {
    std::string out;
    for (const auto& d : ds)
      if (d.function == name) out += d.message + "\n";
    return out;
  };
  EXPECT_NE(msgs_for("A").find("declares barrier_rounds 1 but the blocks "
                               "derive 2"),
            std::string::npos);
  EXPECT_NE(msgs_for("B").find("declares coherent yes"), std::string::npos);
  EXPECT_NE(msgs_for("B").find("declares advisable yes"), std::string::npos);
  EXPECT_NE(msgs_for("C").find("declares optimizable yes"),
            std::string::npos);
  EXPECT_NE(msgs_for("D").find("declares start_write yes but the blocks "
                               "derive no"),
            std::string::npos);
  EXPECT_NE(msgs_for("D").find("declares write_policy invalidate but the "
                               "blocks derive push_at_barrier"),
            std::string::npos);
}

TEST(Lint, AL05_FiresOnSelfInvalidationDescriptorLies) {
  // The acquire/release hooks and the self_downgrade write policy are
  // derived facts like any other declared fact: stacks that lie about them
  // must get exactly the AL05 for the lied-about fact.
  ConfigError err;
  const auto infos = parse_config(
      // self_invalidate derives the acquire and release hooks; declared off
      // (a program compiled against this stack would skip the very calls
      // that keep its copies fresh).
      "stack E { fetch valid_bit; write write_through; "
      "order self_invalidate;\n"
      "  start_read yes; end_read no; start_write yes; end_write yes;\n"
      "  barrier yes; lock yes; unlock yes; acquire no; release no; }\n"
      // downgrade_on_release derives write_policy self_downgrade; declared
      // invalidate (a cost-class lie the advisor would price wrong).
      "stack F { fetch valid_bit; write downgrade_on_release;\n"
      "  order self_invalidate; write_policy invalidate; }\n",
      &err);
  ASSERT_EQ(infos.size(), 2u) << err.message;
  const auto ds = lint_config(infos);
  ASSERT_EQ(ds.size(), 3u) << to_string(ds);
  for (const auto& d : ds) EXPECT_EQ(d.rule, "AL05");
  auto msgs_for = [&](const char* name) {
    std::string out;
    for (const auto& d : ds)
      if (d.function == name) out += d.message + "\n";
    return out;
  };
  EXPECT_NE(msgs_for("E").find("declares acquire no but the blocks derive "
                               "yes"),
            std::string::npos);
  EXPECT_NE(msgs_for("E").find("declares release no but the blocks derive "
                               "yes"),
            std::string::npos);
  EXPECT_NE(msgs_for("F").find("declares write_policy invalidate but the "
                               "blocks derive self_downgrade"),
            std::string::npos);
}

TEST(Lint, AL06_FiresOnSelfInvalidateCoherenceLie) {
  // Self-invalidation admits stale reads between synchronization points but
  // the barrier still drops every copy, so the write-visibility-after-
  // barrier litmus holds: the checker proves the stack coherent, and a
  // `coherent no` declaration is an AL06 lie (AL05 fires too, against the
  // derivation; AL06 is the proof-backed one).
  ConfigError err;
  const auto infos = parse_config(
      "stack G { fetch valid_bit; write write_through; "
      "order self_invalidate; coherent no; }\n",
      &err);
  ASSERT_EQ(infos.size(), 1u) << err.message;
  const CoherenceOracle oracle = [](const StackSpec& s) {
    return mc::coherent_verdict(s);
  };
  const auto ds = lint_config(infos, oracle);
  std::string al06;
  for (const auto& d : ds)
    if (d.rule == "AL06") al06 = d.message;
  EXPECT_NE(al06.find("declares coherent no but the model checker proves "
                      "yes"),
            std::string::npos)
      << to_string(ds);
}

TEST(Lint, AL05_CleanOnShippedLibrary) {
  ConfigError err;
  const auto infos = parse_config(default_config_text(), &err);
  ASSERT_FALSE(infos.empty()) << err.message;
  const auto ds = lint_config(infos);
  EXPECT_TRUE(ds.empty()) << to_string(ds);
}

TEST(Lint, AL06_FiresOnFalselyDeclaredCoherentBit) {
  // The declared coherent bit lies in both directions.  AL05 also fires
  // (declaration disagrees with the block derivation), but AL06 is the one
  // backed by the model checker's exhaustive wvb verdict rather than the
  // derivation formula.
  ConfigError err;
  const auto infos = parse_config(
      // Null's stack is provably incoherent; declared coherent.
      "stack X { fetch none; write local; order plain; coherent yes; }\n"
      // StaticUpdate's stack is provably coherent; declared incoherent.
      "stack Y { fetch valid_bit; write push_on_write; order drain_two;\n"
      "  coherent no; }\n",
      &err);
  ASSERT_EQ(infos.size(), 2u) << err.message;
  const CoherenceOracle oracle = [](const StackSpec& s) {
    return mc::coherent_verdict(s);
  };
  const auto ds = lint_config(infos, oracle);
  std::string al06_x, al06_y;
  for (const auto& d : ds) {
    if (d.rule != "AL06") continue;
    (d.function == "X" ? al06_x : al06_y) = d.message;
  }
  EXPECT_NE(al06_x.find("declares coherent yes but the model checker "
                        "proves no"),
            std::string::npos)
      << to_string(ds);
  EXPECT_NE(al06_y.find("declares coherent no but the model checker "
                        "proves yes"),
            std::string::npos)
      << to_string(ds);
  // Without an oracle the same corpus only produces AL05.
  EXPECT_FALSE(has_rule(lint_config(infos), "AL06"));
}

TEST(Lint, AL06_CleanOnShippedLibrary) {
  // Every shipped stack's declared coherent bit matches the checker's
  // proof: the derivation formula and the exhaustive semantics agree on
  // the whole library.
  ConfigError err;
  const auto infos = parse_config(default_config_text(), &err);
  ASSERT_FALSE(infos.empty()) << err.message;
  const CoherenceOracle oracle = [](const StackSpec& s) {
    return mc::coherent_verdict(s);
  };
  const auto ds = lint_config(infos, oracle);
  EXPECT_TRUE(ds.empty()) << to_string(ds);
}

TEST(Lint, AL05_SkipsBespokeProtocols) {
  // `protocol` entries have no block derivation to check against.
  ConfigError err;
  const auto infos = parse_config(
      "protocol P { start_read yes; barrier yes; write_policy migrate; }",
      &err);
  ASSERT_EQ(infos.size(), 1u) << err.message;
  EXPECT_TRUE(lint_config(infos).empty());
}

TEST(Lint, AL03_WriteReadOfSameRegionInOneEpoch) {
  // Every processor writes region (table 0, index 0) and reads it back in
  // the same barrier epoch: a static SPMD race.
  AB b;
  b.f.table_space = {1};
  const auto rg = b.region(0, 0);
  const auto p = b.map(rg);
  const auto i = b.ci(0);
  b.sw(p);
  b.storep(p, i, i);
  b.ew(p);
  b.sr(p);
  b.loadp(p, i);
  b.er(p);
  b.barrier(1);
  const auto ds = run_lint(b, one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AL03")) << rules_of(ds);
}

TEST(Lint, AL03_SilentWhenBarrierSeparatesWriteAndRead) {
  AB b;
  b.f.table_space = {1};
  const auto rg = b.region(0, 0);
  const auto p = b.map(rg);
  const auto i = b.ci(0);
  b.sw(p);
  b.storep(p, i, i);
  b.ew(p);
  b.barrier(1);  // write epoch ends here
  const auto p2 = b.map(rg);
  b.sr(p2);
  b.loadp(p2, i);
  b.er(p2);
  const auto ds = run_lint(b, one_space(proto_names::kHomeWrite));
  EXPECT_FALSE(has_rule(ds, "AL03")) << rules_of(ds);
}

TEST(Lint, AL03_SilentOnDynamicPerProcessorRegions) {
  // kParamRegionIdx regions are indexed by a runtime value (normally the
  // processor id): distinct processors touch distinct regions, so the
  // write/read pair is not a race.
  AB b;
  b.f.table_space = {1};
  const auto me = b.ci(0);
  const auto rg = b.f.reg();
  b.f.emit({.op = Op::kParamRegionIdx, .dst = rg, .a = me, .imm = 0});
  const auto p = b.map(rg);
  const auto i = b.ci(0);
  b.sw(p);
  b.storep(p, i, i);
  b.ew(p);
  b.sr(p);
  b.loadp(p, i);
  b.er(p);
  const auto ds = run_lint(b, one_space(proto_names::kHomeWrite));
  EXPECT_FALSE(has_rule(ds, "AL03")) << rules_of(ds);
}

// --- AT: translation validation ----------------------------------------------

/// A balanced read access plus a balanced write access on HomeWrite.
AB at_base() {
  AB b;
  b.f.table_space = {1};
  const auto rg = b.region(0, 0);
  const auto i = b.ci(0);
  const auto p1 = b.map(rg);
  b.sr(p1);
  b.loadp(p1, i);
  b.er(p1);
  const auto p2 = b.map(rg);
  b.sw(p2);
  b.storep(p2, i, i);
  b.ew(p2);
  return b;
}

/// Remove the first instruction matching `op` (seeded illegal rewrite).
Function drop_first(Function f, Op op) {
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (f.code[i].op == op) {
      f.code.erase(f.code.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  return f;
}

std::vector<Diag> run_check(const Function& before, const Function& after,
                            PassKind kind, const SpaceProtos& sp) {
  return check_pass(before, after, kind, sp, reg());
}

TEST(CheckPass, AT01_PassAlteredComputation) {
  const AB b = at_base();
  Function after = b.f;
  after.code.push_back({.op = Op::kCharge, .imm = 10});  // invented compute
  const auto ds = run_check(b.f, after, PassKind::kLoopInvariance,
                            one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AT01")) << rules_of(ds);
}

TEST(CheckPass, AT02_PassInventedCalls) {
  const AB b = at_base();
  Function after = b.f;
  after.code.push_back({.op = Op::kStartRead, .a = after.code[2].dst});
  const auto ds = run_check(b.f, after, PassKind::kMergeCalls,
                            one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AT02")) << rules_of(ds);
}

TEST(CheckPass, AT03_UnbalancedPairRemoval) {
  const AB b = at_base();
  const Function after = drop_first(b.f, Op::kEndRead);  // END without START
  const auto ds = run_check(b.f, after, PassKind::kLoopInvariance,
                            one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AT03")) << rules_of(ds);
}

TEST(CheckPass, AT04_RemovalAtNonOptimizableAccess) {
  AB b;
  b.f.table_space = {1};
  const auto p = b.map(b.region(0, 0));
  b.sr(p);
  b.er(p);
  b.sr(p);
  b.er(p);
  // Deleting a balanced pair is still illegal under SC (not optimizable).
  Function after = drop_first(drop_first(b.f, Op::kStartRead), Op::kEndRead);
  const auto ds = run_check(b.f, after, PassKind::kLoopInvariance,
                            one_space(proto_names::kSC));
  EXPECT_TRUE(has_rule(ds, "AT04")) << rules_of(ds);
}

TEST(CheckPass, AT05_EscalationWithoutMergeRw) {
  // The read→write merge deletes (END_READ, START_WRITE); DynamicUpdate
  // never opted in.
  const AB base = [] {
    AB b;
    b.f.table_space = {1};
    const auto rg = b.region(0, 0);
    const auto i = b.ci(0);
    const auto p = b.map(rg);
    b.sr(p);
    b.loadp(p, i);
    b.er(p);
    b.sw(p);
    b.storep(p, i, i);
    b.ew(p);
    return b;
  }();
  const Function after =
      drop_first(drop_first(base.f, Op::kEndRead), Op::kStartWrite);
  const auto du = one_space(proto_names::kDynamicUpdate);
  EXPECT_TRUE(has_rule(run_check(base.f, after, PassKind::kMergeCalls, du),
                       "AT05"));
  // The identical rewrite is legal under HomeWrite (merge_rw).
  const auto hw = one_space(proto_names::kHomeWrite);
  EXPECT_TRUE(run_check(base.f, after, PassKind::kMergeCalls, hw).empty());
}

TEST(CheckPass, AT06_DirectCallsRemovedNonNullHook) {
  const AB b = at_base();
  // HomeWrite's START_READ hook is NOT null; deleting the call drops work.
  const Function after = drop_first(b.f, Op::kStartRead);
  const auto ds = run_check(b.f, after, PassKind::kDirectCalls,
                            one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AT06")) << rules_of(ds);
}

TEST(CheckPass, AT06_AcceptsNullHookRemoval) {
  const AB b = at_base();
  // HomeWrite's END_READ and START_WRITE hooks are null: exactly what the
  // direct-call pass deletes.
  const Function after =
      drop_first(drop_first(b.f, Op::kEndRead), Op::kStartWrite);
  const auto ds = run_check(b.f, after, PassKind::kDirectCalls,
                            one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(ds.empty()) << rules_of(ds);
}

/// at_base() plus a trailing unused map (so deleting it keeps the IR
/// structurally valid: no register is used before definition).
AB at_base_extra_map() {
  AB b = at_base();
  b.map(b.f.code[0].dst);  // region register from at_base()
  return b;
}

TEST(CheckPass, AT07_MapRemovedWithoutCopy) {
  const AB b = at_base_extra_map();
  Function after = b.f;
  after.code.pop_back();  // the merged map left no kCopy behind
  const auto ds = run_check(b.f, after, PassKind::kMergeCalls,
                            one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AT07")) << rules_of(ds);
}

TEST(CheckPass, AT07_LoopInvarianceMayNotTouchMaps) {
  const AB b = at_base_extra_map();
  Function after = b.f;
  // Even leaving a copy behind does not make it legal for LI.
  after.code.back() = {.op = Op::kCopy,
                       .dst = after.code.back().dst,
                       .a = after.code[0].dst};
  const auto ds = run_check(b.f, after, PassKind::kLoopInvariance,
                            one_space(proto_names::kHomeWrite));
  EXPECT_TRUE(has_rule(ds, "AT07")) << rules_of(ds);
}

// --- the shipped kernels are clean at every stage ---------------------------

TEST(Acelint, AllKernelsCleanAtEveryStage) {
  for (const auto& kc : table4_cases(1)) {
    const Compiled c = compile(kc.program, kc.space_protocols, reg());
    for (const Stage& s : c.stages) {
      EXPECT_TRUE(s.diags.empty())
          << kc.name << "/" << s.name << ": " << to_string(s.diags);
      EXPECT_TRUE(s.delta.empty())
          << kc.name << "/" << s.name << ": " << to_string(s.delta);
    }
    EXPECT_EQ(c.diag_count(), 0u) << kc.name;
  }
}

// --- the stage-hook seam -----------------------------------------------------

TEST(Acelint, StageHookFiresAtEveryStage) {
  std::vector<std::string> stages;
  set_stage_hook([&](const Function&, const char* s) { stages.push_back(s); });
  const auto kc = table4_cases(1).front();
  compile(kc.program, kc.space_protocols, reg());
  set_stage_hook(nullptr);
  const std::vector<std::string> want = {"annotate", "li", "mc", "dc"};
  EXPECT_EQ(stages, want);
}

TEST(Acelint, RuleCatalogueIsStable) {
  // IDs are append-only; tools and CI grep for them.
  std::set<std::string> ids;
  for (const auto& r : rule_catalogue()) ids.insert(r.id);
  for (const char* id :
       {"AV01", "AV02", "AV03", "AV04", "AV05", "AV06", "AV07", "AV08",
        "AV09", "AV10", "AL01", "AL02", "AL03", "AT01", "AT02", "AT03",
        "AT04", "AT05", "AT06", "AT07"})
    EXPECT_TRUE(ids.count(id)) << id;
}

}  // namespace
