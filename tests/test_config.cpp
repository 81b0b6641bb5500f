// Tests for the system configuration file (§3.2 Figure 1): parsing, error
// handling, round-tripping, and consistency with the built-in registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "ace/config.hpp"
#include "ace/registry.hpp"
#include "ace/stack.hpp"

namespace {

using namespace ace;

/// A legal stack header: every registration key may follow it.
const std::string kStack = "stack S { fetch none; write local; order plain; ";

TEST(Config, ParsesMinimalProtocol) {
  ConfigError err;
  const auto infos = parse_config(
      "protocol Update { start_read yes; end_write yes; optimizable yes; }",
      &err);
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "Update");
  EXPECT_TRUE(infos[0].optimizable);
  EXPECT_EQ(infos[0].hooks, kHookStartRead | kHookEndWrite);
}

TEST(Config, NoMeansHookAbsent) {
  ConfigError err;
  const auto infos = parse_config(
      "protocol P { start_read no; barrier yes; optimizable no; }", &err);
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].hooks, kHookBarrier);
  EXPECT_FALSE(infos[0].optimizable);
}

TEST(Config, CommentsAndWhitespace) {
  ConfigError err;
  const auto infos = parse_config(
      "# leading comment\nprotocol   X\n{\n  lock yes; # trailing\n}\n", &err);
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].hooks, kHookLock);
}

TEST(Config, MultipleProtocols) {
  ConfigError err;
  const auto infos = parse_config(
      "protocol A { barrier yes; } protocol B { lock yes; }", &err);
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].name, "A");
  EXPECT_EQ(infos[1].name, "B");
}

TEST(Config, UnknownKeyIsError) {
  ConfigError err;
  const auto infos =
      parse_config("protocol P { start_reed yes; }", &err);
  EXPECT_TRUE(infos.empty());
  EXPECT_NE(err.message.find("unknown key"), std::string::npos);
  EXPECT_TRUE(parse_config(kStack + "start_reed yes; }", &err).empty());
  EXPECT_NE(err.message.find("unknown key 'start_reed'"), std::string::npos);
}

TEST(Config, MissingSemicolonIsError) {
  ConfigError err;
  EXPECT_TRUE(parse_config("protocol P { barrier yes }", &err).empty());
}

TEST(Config, BadBooleanIsError) {
  ConfigError err;
  EXPECT_TRUE(parse_config("protocol P { barrier maybe; }", &err).empty());
  EXPECT_NE(err.message.find("yes/no"), std::string::npos);
  EXPECT_TRUE(parse_config(kStack + "coherent maybe; }", &err).empty());
  EXPECT_NE(err.message.find("yes/no for key 'coherent'"), std::string::npos);
}

TEST(Config, DuplicateProtocolIsError) {
  ConfigError err;
  EXPECT_TRUE(
      parse_config("protocol P { } protocol P { }", &err).empty());
  EXPECT_NE(err.message.find("duplicate"), std::string::npos);
}

TEST(Config, UnterminatedBlockIsError) {
  ConfigError err;
  EXPECT_TRUE(parse_config("protocol P { barrier yes;", &err).empty());
}

TEST(Config, ErrorReportsLineNumber) {
  ConfigError err;
  parse_config("protocol P {\n\n  bogus yes;\n}", &err);
  EXPECT_EQ(err.line, 3);
}

TEST(Config, MergeRwKeyParses) {
  ConfigError err;
  const auto infos = parse_config(
      "protocol P { start_read yes; optimizable yes; merge_rw yes; }", &err);
  ASSERT_EQ(infos.size(), 1u) << err.message;
  EXPECT_TRUE(infos[0].merge_rw);
}

TEST(Config, MergeRwDefaultsToNo) {
  ConfigError err;
  const auto infos = parse_config("protocol P { start_read yes; }", &err);
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_FALSE(infos[0].merge_rw);
}

TEST(Config, BuiltinsMergeRwFlags) {
  const Registry reg = Registry::with_builtins();
  EXPECT_TRUE(reg.info(proto_names::kHomeWrite).merge_rw);
  EXPECT_TRUE(reg.info(proto_names::kStaticUpdate).merge_rw);
  EXPECT_FALSE(reg.info(proto_names::kPipelinedWrite).merge_rw);
  EXPECT_FALSE(reg.info(proto_names::kSC).merge_rw);
}

TEST(Config, CostDescriptorKeysParse) {
  ConfigError err;
  const auto infos = parse_config(
      "protocol P { start_read yes;\n"
      "  write_policy push_at_barrier; barrier_rounds 2;\n"
      "  remote_writes no; coherent yes; advisable yes; }",
      &err);
  ASSERT_EQ(infos.size(), 1u) << err.message;
  EXPECT_EQ(infos[0].costs.write_policy, WritePolicy::kPushAtBarrier);
  EXPECT_EQ(infos[0].costs.barrier_rounds, 2u);
  EXPECT_FALSE(infos[0].costs.remote_writes);
  EXPECT_TRUE(infos[0].costs.coherent);
  EXPECT_TRUE(infos[0].costs.advisable);
}

TEST(Config, BadWritePolicyIsErrorWithLine) {
  ConfigError err;
  EXPECT_TRUE(
      parse_config("protocol P {\n  write_policy sideways;\n}", &err).empty());
  EXPECT_NE(err.message.find("unknown write_policy 'sideways'"),
            std::string::npos);
  EXPECT_EQ(err.line, 2);
  EXPECT_TRUE(parse_config(kStack + "\n  write_policy sideways;\n}", &err)
                  .empty());
  EXPECT_NE(err.message.find("unknown write_policy 'sideways'"),
            std::string::npos);
  EXPECT_EQ(err.line, 2);
}

TEST(Config, BadBarrierRoundsIsError) {
  ConfigError err;
  EXPECT_TRUE(
      parse_config("protocol P { barrier_rounds many; }", &err).empty());
  EXPECT_NE(err.message.find("integer"), std::string::npos);
  EXPECT_TRUE(
      parse_config("protocol P { barrier_rounds 0; }", &err).empty());
  EXPECT_NE(err.message.find("at least 1"), std::string::npos);
  EXPECT_TRUE(parse_config(kStack + "barrier_rounds many; }", &err).empty());
  EXPECT_NE(err.message.find("integer"), std::string::npos);
  EXPECT_TRUE(parse_config(kStack + "barrier_rounds 0; }", &err).empty());
  EXPECT_NE(err.message.find("at least 1"), std::string::npos);
}

TEST(Config, CostDescriptorRoundTrips) {
  ConfigError err;
  const auto infos = parse_config(default_config_text(), &err);
  const auto again = parse_config(render_config(infos), &err);
  ASSERT_EQ(again.size(), infos.size()) << err.message;
  for (std::size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(again[i].costs.write_policy, infos[i].costs.write_policy)
        << infos[i].name;
    EXPECT_EQ(again[i].costs.barrier_rounds, infos[i].costs.barrier_rounds)
        << infos[i].name;
    EXPECT_EQ(again[i].costs.remote_writes, infos[i].costs.remote_writes)
        << infos[i].name;
    EXPECT_EQ(again[i].costs.coherent, infos[i].costs.coherent)
        << infos[i].name;
    EXPECT_EQ(again[i].costs.advisable, infos[i].costs.advisable)
        << infos[i].name;
  }
}

TEST(Config, DefaultConfigMatchesRegistryCosts) {
  ConfigError err;
  const auto infos = parse_config(default_config_text(), &err);
  const Registry reg = Registry::with_builtins();
  ASSERT_FALSE(infos.empty());
  for (const auto& info : infos) {
    ASSERT_TRUE(reg.contains(info.name)) << info.name;
    const ProtocolCosts& c = reg.info(info.name).costs;
    EXPECT_EQ(c.write_policy, info.costs.write_policy) << info.name;
    EXPECT_EQ(c.advisable, info.costs.advisable) << info.name;
  }
}

TEST(Config, DefaultConfigParses) {
  ConfigError err;
  const auto infos = parse_config(default_config_text(), &err);
  // 10 block stacks (SC, Null, DynamicUpdate, StaticUpdate, Migratory,
  // HomeWrite, StaticInvalidate, WriteThrough, SelfInvalidate,
  // SelfInvalidateDowngrade) and 3 bespoke protocols.
  EXPECT_EQ(infos.size(), 13u) << err.message;
  std::size_t composed = 0;
  for (const auto& info : infos) composed += info.composed ? 1 : 0;
  EXPECT_EQ(composed, 10u);
}

TEST(Config, ShippedCfgFileMatchesDefaultText) {
  // The root protocols.cfg is the human-readable copy of the built-in
  // configuration; its declared facts document the protocols, so it must
  // not drift from default_config_text() by a single byte.
  const std::string path = std::string(ACE_SOURCE_DIR) + "/protocols.cfg";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), default_config_text()) << path;
}

TEST(Config, DefaultConfigMatchesRegistry) {
  ConfigError err;
  const auto infos = parse_config(default_config_text(), &err);
  const Registry reg = Registry::with_builtins();
  ASSERT_FALSE(infos.empty());
  for (const auto& info : infos) {
    ASSERT_TRUE(reg.contains(info.name)) << info.name;
    EXPECT_EQ(reg.info(info.name).hooks, info.hooks) << info.name;
    EXPECT_EQ(reg.info(info.name).optimizable, info.optimizable) << info.name;
  }
  EXPECT_EQ(reg.names().size(), infos.size());
}

TEST(Config, RenderRoundTrips) {
  ConfigError err;
  const auto infos = parse_config(default_config_text(), &err);
  const auto text = render_config(infos);
  const auto again = parse_config(text, &err);
  ASSERT_EQ(again.size(), infos.size()) << err.message;
  for (std::size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(again[i].name, infos[i].name);
    EXPECT_EQ(again[i].hooks, infos[i].hooks);
    EXPECT_EQ(again[i].optimizable, infos[i].optimizable);
  }
}

TEST(Config, StackParsesAndDerives) {
  ConfigError err;
  const auto infos = parse_config(
      "stack Upd {\n"
      "  fetch valid_bit;\n"
      "  write push_on_write;\n"
      "  order drain_two;\n"
      "}",
      &err);
  ASSERT_EQ(infos.size(), 1u) << err.message;
  EXPECT_TRUE(infos[0].composed);
  EXPECT_EQ(infos[0].stack.fetch, FetchBlock::kValidBit);
  EXPECT_EQ(infos[0].stack.write, WriteBlock::kPushOnWrite);
  EXPECT_EQ(infos[0].stack.order, OrderBlock::kDrainTwo);
  // Undeclared facts come from the block derivation.
  EXPECT_EQ(infos[0].hooks, kHookStartRead | kHookStartWrite | kHookEndWrite |
                                kHookBarrier | kHookLock | kHookUnlock);
  EXPECT_EQ(infos[0].costs.write_policy, WritePolicy::kPushOnWrite);
  EXPECT_EQ(infos[0].costs.barrier_rounds, 2u);
  EXPECT_TRUE(infos[0].optimizable);
}

TEST(Config, StackUnknownBlockIsErrorWithLine) {
  ConfigError err;
  EXPECT_TRUE(
      parse_config("stack P {\n  fetch bogus;\n  write local;\n  order plain;\n}",
                   &err)
          .empty());
  EXPECT_NE(err.message.find("unknown fetch block 'bogus'"), std::string::npos);
  EXPECT_EQ(err.line, 2);

  EXPECT_TRUE(parse_config(
                  "stack P {\n  fetch none;\n  write sideways;\n  order plain;\n}",
                  &err)
                  .empty());
  EXPECT_NE(err.message.find("unknown write block 'sideways'"),
            std::string::npos);
  EXPECT_EQ(err.line, 3);
}

TEST(Config, StackConflictingBlocksIsErrorWithLine) {
  ConfigError err;
  EXPECT_TRUE(parse_config("stack P {\n  fetch valid_bit;\n"
                           "  write push_on_write;\n  write mark_dirty;\n"
                           "  order drain_two;\n}",
                           &err)
                  .empty());
  EXPECT_NE(
      err.message.find("conflicting write blocks 'push_on_write' vs 'mark_dirty'"),
      std::string::npos);
  EXPECT_EQ(err.line, 4);
}

TEST(Config, StackMissingStageIsError) {
  ConfigError err;
  EXPECT_TRUE(
      parse_config("stack P {\n  fetch valid_bit;\n  write mark_dirty;\n}", &err)
          .empty());
  EXPECT_NE(err.message.find("missing stage 'order'"), std::string::npos);
  EXPECT_EQ(err.line, 4);
}

TEST(Config, StackIllegalCombinationIsError) {
  ConfigError err;
  EXPECT_TRUE(parse_config("stack P {\n  fetch valid_bit;\n"
                           "  write push_on_write;\n  order plain;\n}",
                           &err)
                  .empty());
  EXPECT_NE(err.message.find("requires order block 'drain_two'"),
            std::string::npos);
}

TEST(Config, StackDeclaredFactMismatchSurvivesParse) {
  // The parser records declared overrides without judging them; the registry
  // (and acelint's AL05) decide whether they agree with the derivation.
  ConfigError err;
  const auto infos = parse_config(
      "stack P {\n  fetch none;\n  write local;\n  order plain;\n"
      "  barrier_rounds 2;\n}",
      &err);
  ASSERT_EQ(infos.size(), 1u) << err.message;
  EXPECT_EQ(infos[0].costs.barrier_rounds, 2u);
  const ProtocolInfo derived = derive_stack_info("P", infos[0].stack);
  EXPECT_NE(infos[0].costs.barrier_rounds, derived.costs.barrier_rounds);
}

TEST(Config, DefaultStacksMatchDerivation) {
  // Every composed entry in the shipped cfg declares its facts in full, and
  // every declaration must agree with what the blocks derive.
  ConfigError err;
  const auto infos = parse_config(default_config_text(), &err);
  ASSERT_FALSE(infos.empty()) << err.message;
  for (const auto& info : infos) {
    if (!info.composed) continue;
    const ProtocolInfo derived = derive_stack_info(info.name, info.stack);
    EXPECT_EQ(info.hooks, derived.hooks) << info.name;
    EXPECT_EQ(info.optimizable, derived.optimizable) << info.name;
    EXPECT_EQ(info.merge_rw, derived.merge_rw) << info.name;
    EXPECT_TRUE(info.costs == derived.costs) << info.name;
  }
}

TEST(Config, RegistryStacksMatchCfgStacks) {
  ConfigError err;
  const auto infos = parse_config(default_config_text(), &err);
  const Registry reg = Registry::with_builtins();
  for (const auto& info : infos) {
    const ProtocolInfo& r = reg.info(info.name);
    EXPECT_EQ(r.composed, info.composed) << info.name;
    if (info.composed) {
      EXPECT_TRUE(r.stack == info.stack) << info.name;
    }
  }
}

TEST(Config, EnumerateStacksYieldsLegalSpace) {
  const auto stacks = enumerate_stacks();
  EXPECT_EQ(stacks.size(), 10u);
  for (const auto& s : stacks) EXPECT_TRUE(validate_stack(s).empty());
}

TEST(Config, ExhaustiveCombinationSpace) {
  // All 4 x 8 x 6 = 192 stage combinations, exhaustively: exactly the 10
  // enumerate_stacks() compositions are legal, every rejection carries a
  // non-empty reason, and the reason is stable across calls (the advisor
  // and config parser surface it verbatim, so it must be deterministic).
  const auto legal = enumerate_stacks();
  std::size_t n_total = 0, n_legal = 0, n_correct = 0, n_resource = 0;
  for (int f = 0; f < 4; ++f) {
    for (int w = 0; w < 8; ++w) {
      for (int o = 0; o < 6; ++o) {
        ++n_total;
        const StackSpec s{static_cast<FetchBlock>(f),
                          static_cast<WriteBlock>(w),
                          static_cast<OrderBlock>(o)};
        const std::string why = validate_stack(s);
        const StackVerdict v = classify_stack(s);
        const bool enumerated =
            std::find(legal.begin(), legal.end(), s) != legal.end();
        EXPECT_EQ(why.empty(), enumerated)
            << stack_label(s) << ": " << why;
        EXPECT_EQ(v.cls == StackClass::kLegal, why.empty())
            << stack_label(s);
        switch (v.cls) {
          case StackClass::kLegal:
            ++n_legal;
            EXPECT_TRUE(v.reason.empty()) << stack_label(s);
            // Legal stacks derive a full registration record.
            EXPECT_TRUE(
                derive_stack_info(stack_label(s), s).composed);
            break;
          case StackClass::kRejectCorrectness:
            ++n_correct;
            EXPECT_FALSE(v.reason.empty()) << stack_label(s);
            EXPECT_TRUE(stack_executable(s)) << stack_label(s);
            break;
          case StackClass::kRejectResource:
            ++n_resource;
            EXPECT_FALSE(v.reason.empty()) << stack_label(s);
            // The subclass prefix names the resource ground.
            EXPECT_TRUE(v.reason.rfind("machinery absent: ", 0) == 0 ||
                        v.reason.rfind("redundant stage: ", 0) == 0)
                << stack_label(s) << ": " << v.reason;
            break;
        }
        // Stability: re-validation and re-classification are bit-identical.
        EXPECT_EQ(validate_stack(s), why) << stack_label(s);
        const StackVerdict v2 = classify_stack(s);
        EXPECT_EQ(v2.cls, v.cls) << stack_label(s);
        EXPECT_EQ(v2.reason, v.reason) << stack_label(s);
      }
    }
  }
  EXPECT_EQ(n_total, 192u);
  EXPECT_EQ(n_legal, 10u);
  EXPECT_EQ(n_correct, 28u);
  EXPECT_EQ(n_resource, 154u);
}

TEST(Registry, CreateProducesMatchingInfo) {
  // Creating protocol instances requires a RuntimeProc; covered in
  // test_runtime.  Here: registry metadata only.
  const Registry reg = Registry::with_builtins();
  EXPECT_FALSE(reg.info(proto_names::kSC).optimizable);
  EXPECT_TRUE(reg.info(proto_names::kNull).optimizable);
  EXPECT_FALSE(reg.contains("NoSuchProtocol"));
}

TEST(Registry, SCHasAllHooksNullHasNoAccessHooks) {
  const Registry reg = Registry::with_builtins();
  EXPECT_EQ(reg.info(proto_names::kSC).hooks, kAllHooks);
  EXPECT_EQ(reg.info(proto_names::kNull).hooks & (kHookStartRead | kHookEndRead | kHookStartWrite | kHookEndWrite), 0u);
}

}  // namespace
