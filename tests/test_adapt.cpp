// Tests for the adaptive protocol advisor (src/adapt): signature
// accumulation, the cost model's ranking and calibration, hysteresis, and
// the end-to-end auto-space loop (adapt::auto_space).

#include <gtest/gtest.h>

#include <memory>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "adapt/advisor.hpp"
#include "adapt/cost_model.hpp"
#include "ace/runtime.hpp"
#include "common/jsonin.hpp"

namespace {

using namespace ace;
using adapt::Advisor;
using adapt::AdvisorOptions;
using adapt::Decision;
using adapt::Signature;

struct Fixture {
  std::unique_ptr<am::Machine> machine_ptr;
  am::Machine& machine;
  Runtime rt;
  explicit Fixture(std::uint32_t procs)
      : machine_ptr(am::Machine::create({.nprocs = procs})),
        machine(*machine_ptr),
        rt(machine) {}
};

/// Producer/consumer setup: proc 0 owns `n` regions in space `s`, everyone
/// maps them.  Returns the mapped pointers.
std::vector<std::uint64_t*> pc_setup(RuntimeProc& rp, SpaceId s,
                                     std::uint32_t n) {
  std::vector<RegionId> ids(n);
  if (rp.me() == 0)
    for (auto& id : ids) id = rp.gmalloc(s, sizeof(std::uint64_t));
  for (auto& id : ids) id = rp.bcast_region(id, 0);
  std::vector<std::uint64_t*> ptrs(n);
  for (std::uint32_t i = 0; i < n; ++i)
    ptrs[i] = static_cast<std::uint64_t*>(rp.map(ids[i]));
  rp.ace_barrier(s);
  return ptrs;
}

/// One producer/consumer round: proc 0 writes every region, barrier,
/// everyone else reads and checks, barrier.  Two epochs per round.
void pc_round(RuntimeProc& rp, SpaceId s,
              const std::vector<std::uint64_t*>& ptrs, std::uint64_t round) {
  if (rp.me() == 0)
    for (std::size_t i = 0; i < ptrs.size(); ++i) {
      rp.start_write(ptrs[i]);
      *ptrs[i] = round * 1000 + i;
      rp.end_write(ptrs[i]);
    }
  rp.ace_barrier(s);
  if (rp.me() != 0)
    for (std::size_t i = 0; i < ptrs.size(); ++i) {
      rp.start_read(ptrs[i]);
      EXPECT_EQ(*ptrs[i], round * 1000 + i);
      rp.end_read(ptrs[i]);
    }
  rp.ace_barrier(s);
}

// --- signature accumulation ----------------------------------------------

TEST(AdaptSignature, AccumulatesAcrossEpochs) {
  Fixture f(4);
  constexpr std::uint32_t kRegions = 6;
  f.rt.run([&](RuntimeProc& rp) {
    AdvisorOptions opts;
    opts.execute = false;
    opts.min_window = 4;  // exactly two producer/consumer rounds
    const SpaceId s = adapt::auto_space(rp, proto_names::kSC, opts);
    auto ptrs = pc_setup(rp, s, kRegions);
    // The setup barrier consumed one epoch; run rounds until the first
    // decision exists.
    for (std::uint64_t r = 1; r <= 2; ++r) pc_round(rp, s, ptrs, r);
  });
  Advisor* a = adapt::find_advisor(f.rt, 1);
  ASSERT_NE(a, nullptr);
  ASSERT_FALSE(a->decisions().empty());
  const Signature& sig = a->decisions()[0].sig;
  EXPECT_EQ(sig.epochs, 4u);
  // Window = setup barrier + round 1 + first epoch of round 2: the producer
  // wrote 2 full rounds' worth minus what falls outside the window; at
  // minimum one full round of writes and reads landed.
  EXPECT_GE(sig.writes, kRegions);
  EXPECT_GE(sig.reads, kRegions * 3u);  // three consumers
  EXPECT_EQ(sig.writer_procs, 1u);
  EXPECT_EQ(sig.reader_procs, 3u);
  EXPECT_EQ(sig.regions, kRegions);
  EXPECT_EQ(sig.region_bytes, kRegions * sizeof(std::uint64_t));
  // Every write hit a fresh region, so runs == writes.
  EXPECT_EQ(sig.write_runs, sig.writes);
  EXPECT_GT(sig.window_ns, 0u);
  EXPECT_GT(sig.remote_reads, 0u);
  EXPECT_EQ(sig.remote_writes, 0u);  // the producer owns its regions
}

TEST(AdaptSignature, SurvivesAppProtocolChange) {
  // An application-issued Ace_ChangeProtocol mid-window must not corrupt
  // the delta counters (the segment re-baselines underneath the advisor).
  Fixture f(2);
  f.rt.run([&](RuntimeProc& rp) {
    AdvisorOptions opts;
    opts.execute = false;
    opts.min_window = 4;
    const SpaceId s = rp.new_space(proto_names::kSC);
    adapt::attach(rp, s, opts);
    auto ptrs = pc_setup(rp, s, 4);
    pc_round(rp, s, ptrs, 1);
    rp.change_protocol(s, proto_names::kDynamicUpdate);
    pc_round(rp, s, ptrs, 2);  // completes the 4-epoch window
  });
  Advisor* a = adapt::find_advisor(f.rt, 1);
  ASSERT_NE(a, nullptr);
  ASSERT_FALSE(a->decisions().empty());
  const Decision& d = a->decisions()[0];
  EXPECT_EQ(d.current, proto_names::kDynamicUpdate);
  // Counters stayed sane (no underflow from the segment swap).
  EXPECT_LT(d.sig.read_misses, 1000u);
  EXPECT_LT(d.sig.msgs, 100000u);
  EXPECT_EQ(d.sig.epochs, 4u);
}

// --- cost model -----------------------------------------------------------

Signature producer_consumer_sig(std::uint32_t nprocs, std::uint64_t regions,
                                std::uint64_t writes_per_epoch,
                                std::uint64_t epochs) {
  Signature s;
  s.epochs = epochs;
  s.regions = regions;
  s.region_bytes = regions * 8;
  s.writes = writes_per_epoch * epochs;
  s.write_runs = s.writes;
  s.writer_procs = 1;
  s.reader_procs = nprocs - 1;
  s.reads = s.writes * (nprocs - 1);
  s.remote_reads = s.reads;
  return s;
}

TEST(AdaptCostModel, FeasibilityGatesRemoteWrites) {
  const Registry reg = Registry::with_builtins();
  Signature s;
  s.remote_writes = 1;
  EXPECT_FALSE(
      adapt::feasible(reg.info(proto_names::kStaticUpdate).costs, s));
  EXPECT_FALSE(adapt::feasible(reg.info(proto_names::kHomeWrite).costs, s));
  EXPECT_TRUE(adapt::feasible(reg.info(proto_names::kSC).costs, s));
  EXPECT_TRUE(
      adapt::feasible(reg.info(proto_names::kDynamicUpdate).costs, s));
  s.remote_writes = 0;
  EXPECT_TRUE(
      adapt::feasible(reg.info(proto_names::kStaticUpdate).costs, s));
}

TEST(AdaptCostModel, MonotoneInTraffic) {
  const Registry reg = Registry::with_builtins();
  const am::CostModel cm;
  for (const char* name : {proto_names::kSC, proto_names::kDynamicUpdate,
                           proto_names::kStaticUpdate}) {
    const ProtocolCosts& c = reg.info(name).costs;
    const double lo =
        adapt::predict_ns(c, producer_consumer_sig(4, 8, 8, 4), cm, 4);
    const double hi =
        adapt::predict_ns(c, producer_consumer_sig(4, 8, 64, 4), cm, 4);
    EXPECT_LT(lo, hi) << name;
    EXPECT_GT(lo, 0.0) << name;
  }
}

TEST(AdaptCostModel, RanksUpdateOverInvalidateOnProducerConsumer) {
  const Registry reg = Registry::with_builtins();
  const am::CostModel cm;
  const Signature s = producer_consumer_sig(4, 8, 8, 4);
  const double sc =
      adapt::predict_ns(reg.info(proto_names::kSC).costs, s, cm, 4);
  const double du =
      adapt::predict_ns(reg.info(proto_names::kDynamicUpdate).costs, s, cm, 4);
  EXPECT_GT(sc, du * 1.5);
}

TEST(AdaptCostModel, RanksInvalidateOverUpdateOnReadMostly) {
  const Registry reg = Registry::with_builtins();
  const am::CostModel cm;
  Signature s;
  s.epochs = 8;
  s.regions = 16;
  s.region_bytes = 16 * 64;
  s.reads = 4000;
  s.remote_reads = 3000;
  s.reader_procs = 4;  // nobody writes
  const double sc =
      adapt::predict_ns(reg.info(proto_names::kSC).costs, s, cm, 4);
  const double du =
      adapt::predict_ns(reg.info(proto_names::kDynamicUpdate).costs, s, cm, 4);
  EXPECT_LT(sc, du);  // DU pays its extra barrier round for nothing
}

TEST(AdaptCostModel, SwitchCostIsPositiveAndScalesWithRegions) {
  const am::CostModel cm;
  Signature a, b;
  a.regions = 4;
  a.region_bytes = 4 * 64;
  b.regions = 64;
  b.region_bytes = 64 * 64;
  const double ca = adapt::switch_cost_ns(a, cm, 4);
  const double cb = adapt::switch_cost_ns(b, cm, 4);
  EXPECT_GT(ca, 0.0);
  EXPECT_GT(cb, ca);
}

TEST(AdaptCostModel, PredictionTracksMeasuredTime) {
  // Record-only advisor on a compute-free producer/consumer run: the
  // prediction for the *installed* protocol must land within a small factor
  // of the measured window time (the model and the machine share the same
  // cost constants, so gross disagreement means a formula bug).
  Fixture f(4);
  f.rt.run([&](RuntimeProc& rp) {
    AdvisorOptions opts;
    opts.execute = false;
    opts.min_window = 8;
    opts.max_window = 8;  // fixed windows: the 2nd one is pure steady state
    const SpaceId s = adapt::auto_space(rp, proto_names::kSC, opts);
    auto ptrs = pc_setup(rp, s, 8);
    // Burn the cold-start window, then measure steady state.
    for (std::uint64_t r = 1; r <= 8; ++r) pc_round(rp, s, ptrs, r);
  });
  Advisor* a = adapt::find_advisor(f.rt, 1);
  ASSERT_NE(a, nullptr);
  ASSERT_GE(a->decisions().size(), 2u);
  const Decision& d = a->decisions().back();  // steady-state window
  ASSERT_EQ(d.current, proto_names::kSC);
  double predicted = 0;
  for (const auto& c : d.costs)
    if (c.protocol == d.current) predicted = c.predicted_ns;
  ASSERT_GT(predicted, 0.0);
  const double measured = static_cast<double>(d.measured_ns);
  EXPECT_GT(measured, 0.0);
  EXPECT_LT(predicted, measured * 3.0);
  EXPECT_GT(predicted, measured / 3.0);
}

// --- the policy engine ----------------------------------------------------

TEST(AdaptAdvisor, AutoSpacePicksDynamicUpdateOnProducerConsumer) {
  Fixture f(4);
  constexpr std::uint32_t kRegions = 8;
  constexpr std::uint64_t kRounds = 12;
  f.rt.run([&](RuntimeProc& rp) {
    AdvisorOptions opts;
    opts.candidates = {proto_names::kSC, proto_names::kDynamicUpdate};
    const SpaceId s = adapt::auto_space(rp, proto_names::kSC, opts);
    auto ptrs = pc_setup(rp, s, kRegions);
    for (std::uint64_t r = 1; r <= kRounds; ++r) pc_round(rp, s, ptrs, r);
    // The advisor must have moved the space off SC by now.
    EXPECT_EQ(rp.space(s).protocol_name(), proto_names::kDynamicUpdate);
  });
  Advisor* a = adapt::find_advisor(f.rt, 1);
  ASSERT_NE(a, nullptr);
  EXPECT_GE(a->switches(), 1u);
  bool saw_switch = false;
  for (const Decision& d : a->decisions())
    if (d.switched) {
      saw_switch = true;
      EXPECT_EQ(d.chosen, proto_names::kDynamicUpdate);
    }
  EXPECT_TRUE(saw_switch);
}

TEST(AdaptAdvisor, HysteresisPreventsFlapping) {
  // A stable workload must not oscillate.  Monotone improvement is allowed
  // (SC -> DynamicUpdate -> StaticUpdate as the signature sharpens), but a
  // switch must never return to a protocol the advisor already abandoned,
  // and the run must end in a steady hold.
  Fixture f(4);
  f.rt.run([&](RuntimeProc& rp) {
    const SpaceId s = adapt::auto_space(rp, proto_names::kSC);
    auto ptrs = pc_setup(rp, s, 8);
    for (std::uint64_t r = 1; r <= 40; ++r) pc_round(rp, s, ptrs, r);
  });
  Advisor* a = adapt::find_advisor(f.rt, 1);
  ASSERT_NE(a, nullptr);
  const auto& ds = a->decisions();
  ASSERT_GE(ds.size(), 2u);
  EXPECT_LE(a->switches(), 2u);
  std::vector<std::string> abandoned;
  for (const Decision& d : ds)
    if (d.switched) {
      EXPECT_EQ(std::find(abandoned.begin(), abandoned.end(), d.chosen),
                abandoned.end())
          << "flapped back to " << d.chosen;
      abandoned.push_back(d.current);
    }
  // And the tail of the run is all holds.
  EXPECT_FALSE(ds.back().switched);
}

TEST(AdaptAdvisor, DecisionsIdenticalOnEveryProcessor) {
  Fixture f(4);
  f.rt.run([&](RuntimeProc& rp) {
    const SpaceId s = adapt::auto_space(rp, proto_names::kSC);
    auto ptrs = pc_setup(rp, s, 6);
    for (std::uint64_t r = 1; r <= 10; ++r) pc_round(rp, s, ptrs, r);
  });
  Advisor* a0 = adapt::find_advisor(f.rt, 1, 0);
  ASSERT_NE(a0, nullptr);
  ASSERT_FALSE(a0->decisions().empty());
  for (ProcId p = 1; p < 4; ++p) {
    Advisor* ap = adapt::find_advisor(f.rt, 1, p);
    ASSERT_NE(ap, nullptr);
    ASSERT_EQ(ap->decisions().size(), a0->decisions().size());
    for (std::size_t i = 0; i < a0->decisions().size(); ++i) {
      const Decision &x = a0->decisions()[i], &y = ap->decisions()[i];
      EXPECT_EQ(x.epoch, y.epoch);
      EXPECT_EQ(x.chosen, y.chosen);
      EXPECT_EQ(x.reason, y.reason);
      EXPECT_EQ(x.switched, y.switched);
      EXPECT_EQ(x.sig.writes, y.sig.writes);
      EXPECT_EQ(x.sig.window_ns, y.sig.window_ns);
    }
  }
}

TEST(AdaptAdvisor, AdviseModeNeverSwitches) {
  Fixture f(2);
  f.rt.run([&](RuntimeProc& rp) {
    const SpaceId s = rp.new_space(proto_names::kSC);
    adapt::advise(rp, s, {});
    auto ptrs = pc_setup(rp, s, 8);
    for (std::uint64_t r = 1; r <= 10; ++r) pc_round(rp, s, ptrs, r);
    EXPECT_EQ(rp.space(s).protocol_name(), proto_names::kSC);
  });
  Advisor* a = adapt::find_advisor(f.rt, 1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->switches(), 0u);
  bool advised = false;
  for (const Decision& d : a->decisions()) {
    EXPECT_FALSE(d.switched);
    if (d.reason == "advise-only") advised = true;
  }
  // With one producer and one consumer the advisor should at least have
  // found something better than SC to recommend.
  EXPECT_TRUE(advised);
}

TEST(AdaptAdvisor, EnumeratesComposedStackCandidates) {
  // The default candidate set is every advisable registered protocol, which
  // with the block-composed library includes two stacks beyond the paper's
  // nine protocols.  Candidates in the same (write_policy, barrier_rounds)
  // descriptor class must price identically (the class is priced once).
  Fixture f(4);
  f.rt.run([&](RuntimeProc& rp) {
    AdvisorOptions opts;
    opts.execute = false;
    opts.min_window = 4;
    const SpaceId s = adapt::auto_space(rp, proto_names::kSC, opts);
    auto ptrs = pc_setup(rp, s, 8);
    for (std::uint64_t r = 1; r <= 4; ++r) pc_round(rp, s, ptrs, r);
  });
  Advisor* a = adapt::find_advisor(f.rt, 1);
  ASSERT_NE(a, nullptr);
  ASSERT_FALSE(a->decisions().empty());
  const Decision& d = a->decisions()[0];
  auto cost_of = [&](const char* name) -> const adapt::CandidateCost* {
    for (const auto& c : d.costs)
      if (c.protocol == name) return &c;
    return nullptr;
  };
  // The stacks beyond the paper's nine are enumerated alongside the paper's
  // protocols.
  const auto* si = cost_of(proto_names::kStaticInvalidate);
  const auto* wt = cost_of(proto_names::kWriteThrough);
  ASSERT_NE(si, nullptr);
  ASSERT_NE(wt, nullptr);
  EXPECT_GE(d.costs.size(), 7u);  // 5 original advisables + 2 new stacks
  // Descriptor-class sharing: SC and StaticInvalidate are both
  // invalidate/1; HomeWrite and WriteThrough are both home_fetch/1.
  const auto* sc = cost_of(proto_names::kSC);
  const auto* hw = cost_of(proto_names::kHomeWrite);
  ASSERT_NE(sc, nullptr);
  ASSERT_NE(hw, nullptr);
  EXPECT_EQ(si->predicted_ns, sc->predicted_ns);
  EXPECT_EQ(wt->predicted_ns, hw->predicted_ns);
  // Feasibility still differs within a class: the producer writes only its
  // own regions here, so both owner-computes stacks stay feasible.
  EXPECT_TRUE(si->feasible);
  EXPECT_TRUE(wt->feasible);
}

TEST(AdaptAdvisor, ReportJsonRoundTrip) {
  Fixture f(2);
  f.rt.run([&](RuntimeProc& rp) {
    const SpaceId s = adapt::auto_space(rp, proto_names::kSC);
    auto ptrs = pc_setup(rp, s, 4);
    for (std::uint64_t r = 1; r <= 6; ++r) pc_round(rp, s, ptrs, r);
  });
  const auto spaces = adapt::collect_decisions(f.rt);
  ASSERT_EQ(spaces.size(), 1u);
  EXPECT_FALSE(spaces[0].decisions.empty());
  const std::string json = adapt::report_json("test", spaces);
  EXPECT_NE(json.find("\"schema\":\"ace-advisor-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"decisions\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"window_ns\""), std::string::npos);
}

// --- golden replay --------------------------------------------------------
//
// tests/data/ADVISOR_golden_pc.json is a recorded advisor report from the
// deterministic producer/consumer workload below.  The replay test re-runs
// today's cost model over the recorded signatures and fails on any drift
// from the logged predictions — the same audit `aceadvise` performs, but
// pinned to a committed report so a cost-model change cannot slip through
// unnoticed.  Regenerate deliberately (and review the diff) with:
//   ACE_REGEN_GOLDEN=1 ./tests/test_adapt --gtest_filter='AdaptGolden.*'

namespace js = ace::jsonin;

std::string golden_path() {
  return std::string(ACE_TEST_DATA_DIR) + "/ADVISOR_golden_pc.json";
}

std::string golden_report_json() {
  Fixture f(4);
  f.rt.run([&](RuntimeProc& rp) {
    AdvisorOptions opts;
    opts.execute = false;  // record-only: signatures independent of switches
    opts.min_window = 4;
    opts.max_window = 8;
    const SpaceId s = adapt::auto_space(rp, proto_names::kSC, opts);
    auto ptrs = pc_setup(rp, s, 8);
    for (std::uint64_t r = 1; r <= 6; ++r) pc_round(rp, s, ptrs, r);
  });
  return adapt::report_json("golden_pc", adapt::collect_decisions(f.rt));
}

Signature golden_signature(const js::Value& v) {
  Signature s;
  s.reads = v["reads"].as_u64();
  s.writes = v["writes"].as_u64();
  s.remote_reads = v["remote_reads"].as_u64();
  s.remote_writes = v["remote_writes"].as_u64();
  s.read_misses = v["read_misses"].as_u64();
  s.write_misses = v["write_misses"].as_u64();
  s.write_runs = v["write_runs"].as_u64();
  s.writer_procs = v["writer_procs"].as_u64();
  s.reader_procs = v["reader_procs"].as_u64();
  s.msgs = v["msgs"].as_u64();
  s.bytes = v["bytes"].as_u64();
  s.sharer_pairs = v["sharer_pairs"].as_u64();
  s.home_regions = v["home_regions"].as_u64();
  s.epochs = v["epochs"].as_u64();
  s.regions = v["regions"].as_u64();
  s.region_bytes = v["region_bytes"].as_u64();
  s.window_ns = v["window_ns"].as_u64();
  return s;
}

TEST(AdaptGolden, ReplayMatchesRecordedCostModel) {
  if (std::getenv("ACE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << golden_path();
    out << golden_report_json();
    GTEST_SKIP() << "golden regenerated at " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << golden_path();
  std::stringstream ss;
  ss << in.rdbuf();
  std::size_t err_off = 0;
  const auto doc = js::parse(ss.str(), &err_off);
  ASSERT_TRUE(doc.has_value()) << "malformed JSON at byte " << err_off;
  ASSERT_EQ((*doc)["schema"].as_str(), "ace-advisor-v1");

  const Registry reg = Registry::with_builtins();
  const am::CostModel cm;
  std::size_t decisions = 0, predictions = 0;
  bool saw_si = false, saw_sd = false;
  for (const js::Value& sp : (*doc)["spaces"].as_array()) {
    const auto procs = static_cast<std::uint32_t>(sp["procs"].as_u64(8));
    for (const js::Value& d : sp["decisions"].as_array()) {
      decisions += 1;
      const Signature sig = golden_signature(d["signature"]);
      // Every logged prediction must be reproduced by today's model.
      std::string replay_best;
      double replay_best_ns = 0;
      for (const js::Value& c : d["costs"].as_array()) {
        const std::string& name = c["protocol"].as_str();
        ASSERT_TRUE(reg.contains(name)) << "protocol vanished: " << name;
        const ProtocolCosts& pc = reg.info(name).costs;
        const bool ok = adapt::feasible(pc, sig);
        const double ns = adapt::predict_ns(pc, sig, cm, procs);
        EXPECT_EQ(ok, c["feasible"].as_bool(true))
            << name << ": feasibility drifted";
        const double logged = c["predicted_ns"].as_num();
        // The writer emits %.9g doubles; allow only that rounding.
        EXPECT_NEAR(ns, logged, std::max(1.0, logged * 1e-8))
            << name << ": cost model drifted (regenerate the golden "
            << "deliberately if this change is intended)";
        if (ok && (replay_best.empty() || ns < replay_best_ns)) {
          replay_best = name;
          replay_best_ns = ns;
        }
        if (name == proto_names::kSelfInvalidate) saw_si = true;
        if (name == proto_names::kSelfInvalidateDowngrade) saw_sd = true;
        predictions += 1;
      }
      // And the replayed ranking must match the run's own ranking.
      std::string run_best;
      double run_best_ns = 0;
      for (const js::Value& c : d["costs"].as_array())
        if (c["feasible"].as_bool(true) &&
            (run_best.empty() || c["predicted_ns"].as_num() < run_best_ns)) {
          run_best = c["protocol"].as_str();
          run_best_ns = c["predicted_ns"].as_num();
        }
      EXPECT_EQ(replay_best, run_best) << "ranking drifted";
    }
  }
  EXPECT_GE(decisions, 2u);
  // The golden must cover the whole advisable library, including the
  // self-invalidation family (its pricing branch is what this pins).
  EXPECT_GE(predictions, decisions * 9);
  EXPECT_TRUE(saw_si) << "golden lacks a SelfInvalidate candidate";
  EXPECT_TRUE(saw_sd) << "golden lacks a SelfInvalidateDowngrade candidate";
}

TEST(AdaptGolden, WorkloadStillProducesRecordedDecisions) {
  // The recorded run itself is deterministic: replaying the workload must
  // reproduce the golden's decision skeleton (epochs, chosen protocols,
  // reasons) — this catches advisor-policy drift the cost replay cannot.
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << golden_path();
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = js::parse(ss.str(), nullptr);
  ASSERT_TRUE(doc.has_value());
  const auto fresh = js::parse(golden_report_json(), nullptr);
  ASSERT_TRUE(fresh.has_value());
  const js::Array& want = (*doc)["spaces"].as_array();
  const js::Array& got = (*fresh)["spaces"].as_array();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const js::Array& wd = want[i]["decisions"].as_array();
    const js::Array& gd = got[i]["decisions"].as_array();
    ASSERT_EQ(gd.size(), wd.size());
    for (std::size_t j = 0; j < wd.size(); ++j) {
      EXPECT_EQ(gd[j]["epoch"].as_u64(), wd[j]["epoch"].as_u64());
      EXPECT_EQ(gd[j]["chosen"].as_str(), wd[j]["chosen"].as_str());
      EXPECT_EQ(gd[j]["reason"].as_str(), wd[j]["reason"].as_str());
      EXPECT_EQ(gd[j]["signature"]["writes"].as_u64(),
                wd[j]["signature"]["writes"].as_u64());
      EXPECT_EQ(gd[j]["signature"]["epochs"].as_u64(),
                wd[j]["signature"]["epochs"].as_u64());
    }
  }
}

// --- the consolidated space-creation surface ------------------------------

TEST(SpaceOptions, OneOverloadCoversAllThreeAdvisorModes) {
  Fixture f(2);
  f.rt.run([&](RuntimeProc& rp) {
    // kOff: a plain space on the requested protocol, no advisor attached.
    const SpaceId plain = adapt::new_space(
        rp, {.protocol = proto_names::kDynamicUpdate});
    EXPECT_EQ(rp.space(plain).protocol_name(), proto_names::kDynamicUpdate);
    // kAdvise: record-only advisor.
    const SpaceId advised =
        adapt::new_space(rp, {.advisor = ace::SpaceOptions::Advisor::kAdvise});
    // kAuto: executing advisor (adapt::auto_space semantics).
    AdvisorOptions aopts;
    aopts.min_window = 2;
    const SpaceId autos =
        adapt::new_space(rp, {.advisor = ace::SpaceOptions::Advisor::kAuto,
                              .advisor_options = aopts});
    auto ptrs = pc_setup(rp, autos, 8);
    for (std::uint64_t r = 1; r <= 10; ++r) pc_round(rp, autos, ptrs, r);
    (void)plain;
    (void)advised;
  });
  EXPECT_EQ(adapt::find_advisor(f.rt, 1), nullptr);  // kOff attached nothing
  Advisor* rec = adapt::find_advisor(f.rt, 2);
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->options().execute);  // kAdvise records only
  Advisor* ex = adapt::find_advisor(f.rt, 3);
  ASSERT_NE(ex, nullptr);
  EXPECT_TRUE(ex->options().execute);
  EXPECT_EQ(ex->options().min_window, 2u);
}

// --- the core collective the advisor rides on ----------------------------

TEST(AdaptCollectives, AllreduceU64SumAndMax) {
  Fixture f(4);
  f.rt.run([](RuntimeProc& rp) {
    std::uint64_t v[3] = {rp.me() + 1ull, 10ull * (rp.me() + 1), 7ull};
    rp.allreduce_u64(v, 3, RuntimeProc::ReduceOp::kSum);
    EXPECT_EQ(v[0], 1u + 2 + 3 + 4);
    EXPECT_EQ(v[1], 10u + 20 + 30 + 40);
    EXPECT_EQ(v[2], 28u);
    std::uint64_t m[2] = {rp.me() * 5ull, 100ull - rp.me()};
    rp.allreduce_u64(m, 2, RuntimeProc::ReduceOp::kMax);
    EXPECT_EQ(m[0], 15u);
    EXPECT_EQ(m[1], 100u);
  });
}

}  // namespace
