// Tests for the acemc model checker (src/mc): determinism of the
// counterexample traces, the delivery-log export round-trip, soundness of
// the sleep-set reduction (por on/off equivalence), the full legality-matrix
// proof, and model-vs-runtime conformance — a schedule's outcome observed on
// the real machine (captured, then replayed bit-identically through
// am::ReplayPolicy) falls inside the model's exhaustively-computed outcome
// set, and the stale-read violation the model predicts for the incoherent
// stack reproduces at runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "ace/registry.hpp"
#include "ace/runtime.hpp"
#include "ace/stack.hpp"
#include "am/delivery.hpp"
#include "am/machine.hpp"
#include "mc/checker.hpp"
#include "mc/model.hpp"

namespace {

using namespace ace;
using namespace ace::mc;

StackSpec spec(FetchBlock f, WriteBlock w, OrderBlock o) { return {f, w, o}; }

const StackSpec kNullStack = spec(FetchBlock::kNone, WriteBlock::kLocal,
                                  OrderBlock::kPlain);
const StackSpec kMarkDirtyPlain = spec(FetchBlock::kValidBit,
                                       WriteBlock::kMarkDirty,
                                       OrderBlock::kPlain);

// --- counterexample determinism and export ---------------------------------

TEST(Mc, GoldenCounterexampleIsByteStable) {
  // valid_bit/mark_dirty/plain is correctness-rejected: without a dirty
  // scan at the barrier a pre-planted valid copy goes stale.  The checker's
  // DFS is deterministic, so the first violating schedule — and its
  // rendering — must be byte-identical across runs.
  const Litmus wvb = wvb_litmus(kMarkDirtyPlain, true);
  const LitmusResult a = check_litmus(kMarkDirtyPlain, wvb);
  const LitmusResult b = check_litmus(kMarkDirtyPlain, wvb);
  ASSERT_TRUE(a.has_cex);
  ASSERT_TRUE(b.has_cex);
  EXPECT_FALSE(a.passed);
  const std::string ra = render_schedule(a.cex);
  const std::string rb = render_schedule(b.cex);
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.transitions, b.transitions);
  // The trace names the litmus and walks numbered steps.
  EXPECT_NE(ra.find("litmus wvb:"), std::string::npos) << ra;
  EXPECT_NE(ra.find("step 1:"), std::string::npos) << ra;
}

TEST(Mc, CounterexampleLogsRoundTripThroughDeliveryFormat) {
  const LitmusResult r =
      check_litmus(kMarkDirtyPlain, wvb_litmus(kMarkDirtyPlain, true));
  ASSERT_TRUE(r.has_cex);
  // A violating wvb schedule on this stack must deliver at least one
  // protocol message (the stale copy is planted by a fetch).
  std::size_t n_records = 0;
  for (const auto& log : r.cex.logs) n_records += log.size();
  ASSERT_GT(n_records, 0u);

  const std::string path = ::testing::TempDir() + "test_mc_cex.replay";
  ASSERT_TRUE(am::write_delivery_logs(path, r.cex.logs));
  const std::vector<am::DeliveryLog> back = am::read_delivery_logs(path);
  ASSERT_EQ(back.size(), r.cex.logs.size());
  for (std::size_t p = 0; p < back.size(); ++p) {
    ASSERT_EQ(back[p].size(), r.cex.logs[p].size()) << "proc " << p;
    for (std::size_t i = 0; i < back[p].size(); ++i) {
      EXPECT_EQ(back[p][i].src, r.cex.logs[p][i].src);
      EXPECT_EQ(back[p][i].seq, r.cex.logs[p][i].seq);
      EXPECT_EQ(back[p][i].handler, r.cex.logs[p][i].handler);
    }
  }
  std::remove(path.c_str());
}

TEST(Mc, EveryCorrectnessRejectionHasACounterexample) {
  for (const auto& rep : check_matrix()) {
    if (rep.cls != StackClass::kRejectCorrectness) continue;
    ASSERT_FALSE(rep.results.empty()) << stack_label(rep.stack);
    bool found = false;
    for (const auto& r : rep.results) found = found || r.has_cex;
    EXPECT_TRUE(found) << stack_label(rep.stack);
    EXPECT_TRUE(rep.proven) << stack_label(rep.stack) << ": " << rep.why;
  }
}

// --- sleep-set reduction soundness -----------------------------------------

TEST(Mc, PorPreservesStatesAndOutcomes) {
  // Sleep sets prune transitions, never states: with and without the
  // reduction the checker must visit the identical state set and collect
  // the identical terminal outcomes, for every litmus of representative
  // stacks from each engine family.
  const StackSpec stacks[] = {
      spec(FetchBlock::kDirectory, WriteBlock::kExclusive, OrderBlock::kPlain),
      spec(FetchBlock::kValidBit, WriteBlock::kPushOnWrite,
           OrderBlock::kDrainTwo),
      spec(FetchBlock::kValidBit, WriteBlock::kMarkDirty,
           OrderBlock::kPushDirty),
      spec(FetchBlock::kValidBit, WriteBlock::kWriteThrough,
           OrderBlock::kSelfInvalidate),
      spec(FetchBlock::kValidBit, WriteBlock::kDowngradeOnRelease,
           OrderBlock::kSelfInvalidate),
      kNullStack,
  };
  for (const auto& s : stacks) {
    for (const auto& lit : litmus_suite(s)) {
      const LitmusResult with = check_litmus(s, lit, {.por = true});
      const LitmusResult without = check_litmus(s, lit, {.por = false});
      EXPECT_EQ(with.passed, without.passed)
          << stack_label(s) << "/" << lit.name;
      EXPECT_EQ(with.states, without.states)
          << stack_label(s) << "/" << lit.name;
      EXPECT_EQ(with.outcomes, without.outcomes)
          << stack_label(s) << "/" << lit.name;
      EXPECT_LE(with.transitions, without.transitions)
          << stack_label(s) << "/" << lit.name;
    }
  }
}

// --- the legality-matrix proof ---------------------------------------------

TEST(Mc, MatrixIsProven) {
  const auto reports = check_matrix();
  ASSERT_EQ(reports.size(), 192u);
  EXPECT_TRUE(matrix_proven(reports));
  std::size_t legal = 0, correctness = 0, resource = 0;
  for (const auto& rep : reports) {
    EXPECT_TRUE(rep.proven) << stack_label(rep.stack) << ": " << rep.why;
    switch (rep.cls) {
      case StackClass::kLegal:
        ++legal;
        // Every litmus closed, none capped, and the checker's coherence
        // verdict matches the derived cost bit.
        for (const auto& r : rep.results) {
          EXPECT_TRUE(r.passed) << stack_label(rep.stack) << "/" << r.name;
          EXPECT_FALSE(r.capped) << stack_label(rep.stack) << "/" << r.name;
        }
        EXPECT_TRUE(rep.coherent_checked) << stack_label(rep.stack);
        EXPECT_EQ(rep.coherent_verdict, rep.coherent_declared)
            << stack_label(rep.stack);
        break;
      case StackClass::kRejectCorrectness:
        ++correctness;
        break;
      case StackClass::kRejectResource:
        ++resource;
        EXPECT_FALSE(rep.reason.empty()) << stack_label(rep.stack);
        break;
    }
  }
  EXPECT_EQ(legal, 10u);
  EXPECT_EQ(correctness, 28u);
  EXPECT_EQ(resource, 154u);
}

TEST(Mc, CoherenceVerdictsMatchDerivation) {
  for (const auto& s : enumerate_stacks())
    EXPECT_EQ(coherent_verdict(s),
              derive_stack_info("t", s).costs.coherent)
        << stack_label(s);
}

// --- model-vs-runtime conformance ------------------------------------------

/// Run the wvb litmus program on the real runtime under protocol
/// `proto_name` (3 procs, region homed at proc 2, mirroring the model's
/// placement) and return proc 1's two recorded reads.
std::vector<std::uint64_t> run_wvb(am::Machine& machine,
                                   const char* proto_name) {
  std::vector<std::uint64_t> reads;
  Runtime rt(machine);
  rt.run([&](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_name);
    RegionId id = 0;
    if (rp.me() == 2) id = rp.gmalloc(sp, 8);
    id = rp.bcast_region(id, 2);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    if (rp.me() == 0) {
      rp.ace_barrier(sp);
      rp.start_write(p);
      *p = 1;
      rp.end_write(p);
      rp.ace_barrier(sp);
    } else if (rp.me() == 1) {
      rp.start_read(p);
      reads.push_back(*p);
      rp.end_read(p);
      rp.ace_barrier(sp);
      rp.ace_barrier(sp);
      rp.start_read(p);
      reads.push_back(*p);
      rp.end_read(p);
    } else {
      rp.ace_barrier(sp);
      rp.ace_barrier(sp);
    }
  });
  return reads;
}

std::string outcome_string(const std::vector<std::uint64_t>& reads) {
  std::string s = "P1:[";
  for (std::size_t i = 0; i < reads.size(); ++i) {
    if (i) s += ' ';
    s += std::to_string(reads[i]);
  }
  s += ']';
  return s;
}

TEST(Mc, NullStaleReadReproducesOnRuntimeViaReplay) {
  // The model proves the incoherent stack violates the coherent wvb
  // expectation — the reader's post-barrier read returns the stale 0 — and
  // that {P1:[0 0]} is its complete outcome set.  Capture a real schedule
  // on the thread backend, replay it bit-for-bit through am::ReplayPolicy,
  // and check the runtime exhibits exactly the violation the model
  // predicts.
  const LitmusResult refuted =
      check_litmus(kNullStack, wvb_litmus(kNullStack, true));
  ASSERT_TRUE(refuted.has_cex);
  EXPECT_NE(refuted.cex.message.find("read"), std::string::npos)
      << refuted.cex.message;
  const LitmusResult model =
      check_litmus(kNullStack, wvb_litmus(kNullStack, false));
  ASSERT_TRUE(model.passed);

  // Capture: chaos policy with no holds and no jitter records every
  // processor's full delivery log while leaving the schedule FIFO.
  std::vector<am::DeliveryLog> captured;
  std::vector<std::uint64_t> reads_cap;
  {
    const auto machine = am::Machine::create({.nprocs = 3});
    am::ChaosOptions copt;
    copt.p_hold = 0.0;
    copt.max_jitter_ns = 0;
    machine->set_chaos(copt);
    reads_cap = run_wvb(*machine, proto_names::kNull);
    captured = machine->delivery_logs();
  }
  ASSERT_EQ(reads_cap.size(), 2u);
  // The stale read: epoch-1's write never reaches proc 1's local copy.
  EXPECT_EQ(reads_cap[1], 0u);
  const std::string out_cap = outcome_string(reads_cap);
  EXPECT_NE(std::find(model.outcomes.begin(), model.outcomes.end(), out_cap),
            model.outcomes.end())
      << out_cap << " not in the model's outcome set";

  // Replay: the recorded schedule drives delivery; the outcome must be
  // identical.
  const auto machine = am::Machine::create({.nprocs = 3});
  machine->set_replay(captured);
  const std::vector<std::uint64_t> reads_rep =
      run_wvb(*machine, proto_names::kNull);
  EXPECT_EQ(reads_rep, reads_cap);
}

TEST(Mc, CoherentRuntimeOutcomesFallInModelOutcomeSet) {
  // For a coherent stack the runtime's wvb outcome under a handful of
  // chaos schedules must land inside the model's exhaustively-computed
  // outcome set (which is exactly {P1:[0 1]}).
  const StackSpec s = spec(FetchBlock::kValidBit, WriteBlock::kPushOnWrite,
                           OrderBlock::kDrainTwo);
  const LitmusResult model = check_litmus(s, wvb_litmus(s, true));
  ASSERT_TRUE(model.passed);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto machine = am::Machine::create({.nprocs = 3});
    am::ChaosOptions copt;
    copt.seed = seed;
    machine->set_chaos(copt);
    const auto reads = run_wvb(*machine, proto_names::kDynamicUpdate);
    ASSERT_EQ(reads.size(), 2u);
    const std::string out = outcome_string(reads);
    EXPECT_NE(std::find(model.outcomes.begin(), model.outcomes.end(), out),
              model.outcomes.end())
        << "seed " << seed << ": " << out;
  }
}

}  // namespace
