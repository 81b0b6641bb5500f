// Tests for the pluggable delivery seam (am/delivery.hpp): the guarantees a
// ChaosPolicy must preserve (per-sender FIFO, barrier fences / the flush
// lemma), seed determinism, bit-for-bit replay from a captured delivery
// log, the structured deadlock report, and the dispatch-trace payload fix.
//
// The determinism tests gate message arrival deterministically (every
// sender finishes sending before any receiver polls) so that the delivered
// schedule — and therefore the modeled clocks — depend only on the chaos
// seed, not on host thread timing.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "ace/runtime.hpp"
#include "am/delivery.hpp"
#include "am/machine.hpp"

namespace {

using ace::am::ChaosOptions;
using ace::am::DeliveryLog;
using ace::am::DeliveryRecord;
using ace::am::Machine;
using ace::am::Message;
using ace::am::Proc;
using ace::am::ProcId;

bool same_record(const DeliveryRecord& a, const DeliveryRecord& b) {
  return a.src == b.src && a.seq == b.seq && a.handler == b.handler &&
         a.jitter_ns == b.jitter_ns;
}

bool same_logs(const std::vector<DeliveryLog>& a,
               const std::vector<DeliveryLog>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p) {
    if (a[p].size() != b[p].size()) return false;
    for (std::size_t i = 0; i < a[p].size(); ++i)
      if (!same_record(a[p][i], b[p][i])) return false;
  }
  return true;
}

// --- deterministic all-to-all workload -------------------------------------

constexpr int kProcs = 4;
constexpr std::uint64_t kMsgs = 16;  ///< messages per (sender, receiver) pair

struct Outcome {
  /// Per receiver: (src, arg) in delivery order, recorded by the handler.
  std::vector<std::vector<std::pair<ProcId, std::uint64_t>>> order;
  std::vector<std::uint64_t> vclock;  ///< final (post-barrier) clocks
  std::vector<DeliveryLog> logs;
};

/// Every proc sends kMsgs messages to every other proc, then all procs wait
/// (WITHOUT polling) until every sender is done, then drain and barrier.
/// Arrival sets are thus identical across runs and the delivered schedule is
/// a pure function of the installed delivery policy.
Outcome run_gated_all_to_all(Machine& m) {
  Outcome out;
  out.order.resize(kProcs);
  out.vclock.assign(kProcs, 0);
  std::atomic<int> senders_done{0};
  std::vector<std::uint64_t> got(kProcs, 0);  // touched only by owner thread
  const auto h = m.register_handler([&](Proc& self, Message& msg) {
    out.order[self.id()].emplace_back(msg.src, msg.args[0]);
    got[self.id()] += 1;
  });
  m.run([&](Proc& p) {
    for (std::uint64_t i = 0; i < kMsgs; ++i)
      for (ProcId q = 0; q < kProcs; ++q)
        if (q != p.id()) p.send(q, h, {i});
    senders_done.fetch_add(1);
    while (senders_done.load() < kProcs)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    p.wait_until([&] { return got[p.id()] == kMsgs * (kProcs - 1); });
    p.barrier();
    out.vclock[p.id()] = p.vclock_ns();
  });
  out.logs = m.delivery_logs();
  return out;
}

TEST(Chaos, PreservesPerSenderFifo) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    auto m_ptr = Machine::create({.nprocs = kProcs});
    Machine& m = *m_ptr;
    ChaosOptions opt;
    opt.seed = seed;
    m.set_chaos(opt);
    const Outcome out = run_gated_all_to_all(m);
    for (int dst = 0; dst < kProcs; ++dst) {
      std::vector<std::uint64_t> next(kProcs, 0);
      for (const auto& [src, arg] : out.order[dst]) {
        EXPECT_EQ(arg, next[src]) << "seed " << seed << " dst " << dst
                                  << ": src " << src << " out of order";
        next[src] = arg + 1;
      }
      for (int src = 0; src < kProcs; ++src) {
        if (src != dst) {
          EXPECT_EQ(next[src], kMsgs);
        }
      }
    }
  }
}

TEST(Chaos, SameSeedSameLogAndClocks) {
  ChaosOptions opt;
  opt.seed = 42;
  const auto m1 = Machine::create({.nprocs = kProcs});
  const auto m2 = Machine::create({.nprocs = kProcs});
  m1->set_chaos(opt);
  m2->set_chaos(opt);
  const Outcome a = run_gated_all_to_all(*m1);
  const Outcome b = run_gated_all_to_all(*m2);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.vclock, b.vclock);
  // Compare the data-message schedule only: barrier arrivals from different
  // senders race in the mailbox, and fences deliver in arrival order, so
  // their relative positions in the log are host-dependent (and
  // semantically commutative — a barrier just counts arrivals).
  const auto data_only = [&](const std::vector<DeliveryLog>& logs) {
    std::vector<DeliveryLog> out(logs.size());
    for (std::size_t p = 0; p < logs.size(); ++p)
      for (const DeliveryRecord& r : logs[p])
        if (!m1->is_barrier_handler(r.handler)) out[p].push_back(r);
    return out;
  };
  EXPECT_TRUE(same_logs(data_only(a.logs), data_only(b.logs)));
}

TEST(Chaos, ActuallyReordersAcrossSenders) {
  // Deterministic arrival order: senders take strict turns (proc 1 sends all
  // its messages, then proc 2, then proc 3) while the receiver sleeps, so
  // proc 0's mailbox holds the messages grouped by sender.  A delivered
  // order different from that grouping can only come from the policy.
  bool reordered = false;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto m_ptr = Machine::create({.nprocs = kProcs});
    Machine& m = *m_ptr;
    ChaosOptions opt;
    opt.seed = seed;
    m.set_chaos(opt);
    std::vector<ProcId> order;
    std::uint64_t got = 0;
    std::atomic<int> turn{1};
    const auto h = m.register_handler([&](Proc&, Message& msg) {
      order.push_back(msg.src);
      got += 1;
    });
    m.run([&](Proc& p) {
      constexpr std::uint64_t kEach = 8;
      if (p.id() != 0) {
        while (turn.load() != static_cast<int>(p.id()))
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        for (std::uint64_t i = 0; i < kEach; ++i) p.send(0, h, {i});
        turn.store(static_cast<int>(p.id()) + 1);
        // Stay out of the barrier until every sender has had its turn: a
        // barrier arrival is a fence in the receiver's mailbox and would
        // pin the groups into arrival order.
        while (turn.load() != kProcs)
          std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        while (turn.load() != kProcs)
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        p.wait_until([&] { return got == kEach * (kProcs - 1); });
      }
      p.barrier();
    });
    // Arrival grouping: all of src 1, then src 2, then src 3.
    std::vector<ProcId> arrival;
    for (ProcId src = 1; src < kProcs; ++src)
      for (std::uint64_t i = 0; i < 8; ++i) arrival.push_back(src);
    if (order != arrival) reordered = true;
  }
  EXPECT_TRUE(reordered) << "no tested seed perturbed cross-sender order";
}

// The flush lemma — a message sent before its sender enters a barrier is
// handled at the destination before the destination leaves that barrier —
// must survive any legal chaos schedule (barrier messages are fences).
TEST(Chaos, PreservesFlushLemma) {
  constexpr int kP = 6;
  constexpr int kRounds = 10;
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    auto m_ptr = Machine::create({.nprocs = kP});
    Machine& m = *m_ptr;
    ChaosOptions opt;
    opt.seed = seed;
    opt.p_hold = 0.5;  // harsher than the default
    m.set_chaos(opt);
    std::vector<std::vector<int>> inbox(kP, std::vector<int>(kP, -1));
    const auto h = m.register_handler([&](Proc& self, Message& msg) {
      inbox[self.id()][msg.src] = static_cast<int>(msg.args[0]);
    });
    m.run([&](Proc& p) {
      for (int round = 0; round < kRounds; ++round) {
        for (ProcId q = 0; q < kP; ++q)
          if (q != p.id()) p.send(q, h, {static_cast<std::uint64_t>(round)});
        p.barrier();
        for (ProcId q = 0; q < kP; ++q) {
          if (q != p.id()) {
            EXPECT_EQ(inbox[p.id()][q], round) << "seed " << seed;
          }
        }
        p.barrier();
      }
    });
  }
}

TEST(Replay, ReproducesLogAndClocksBitForBit) {
  ChaosOptions opt;
  opt.seed = 1234;
  const auto m1 = Machine::create({.nprocs = kProcs});
  m1->set_chaos(opt);
  const Outcome chaos = run_gated_all_to_all(*m1);

  const auto m2 = Machine::create({.nprocs = kProcs});
  m2->set_replay(chaos.logs);
  const Outcome replay = run_gated_all_to_all(*m2);

  EXPECT_EQ(chaos.order, replay.order);
  EXPECT_EQ(chaos.vclock, replay.vclock);
  EXPECT_TRUE(same_logs(chaos.logs, replay.logs));
}

TEST(Replay, LogFileRoundTrip) {
  ChaosOptions opt;
  opt.seed = 77;
  auto m_ptr = Machine::create({.nprocs = kProcs});
  Machine& m = *m_ptr;
  m.set_chaos(opt);
  const Outcome out = run_gated_all_to_all(m);
  std::stringstream ss;
  ace::am::write_delivery_logs(ss, out.logs);
  const auto back = ace::am::read_delivery_logs(ss);
  EXPECT_TRUE(same_logs(out.logs, back));
}

// A protocol workload stays correct under chaos end-to-end (the heavier
// version of this lives in tools/acefuzz; this is the in-tree smoke).
TEST(Chaos, ProtocolSweepStaysCorrect) {
  for (std::uint64_t seed : {1u, 2u}) {
    auto m_ptr = Machine::create({.nprocs = kProcs});
    Machine& m = *m_ptr;
    ChaosOptions opt;
    opt.seed = seed;
    m.set_chaos(opt);
    ace::Runtime rt(m);
    rt.run([](ace::RuntimeProc& rp) {
      const ace::SpaceId sp = rp.new_space("DynamicUpdate");
      ace::RegionId id = 0;
      if (rp.me() == 0) id = rp.gmalloc(sp, 8);
      id = rp.bcast_region(id, 0);
      auto* p = static_cast<std::uint64_t*>(rp.map(id));
      rp.start_read(p);
      rp.end_read(p);
      rp.ace_barrier(sp);
      for (std::uint64_t round = 1; round <= 5; ++round) {
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
}

// The watchdog must die with the structured report (per-proc clocks, policy
// state, DSM dump) rather than a bare check failure.
TEST(DeadlockDeath, WatchdogPrintsStructuredReport) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto m_ptr = Machine::create({.nprocs = 2});
        Machine& m = *m_ptr;
        m.watchdog = std::chrono::milliseconds(300);
        ace::Runtime rt(m);
        rt.run([](ace::RuntimeProc& rp) {
          // Proc 0 waits for a message nobody ever sends; proc 1's closing
          // barrier arrival keeps proc 0's mailbox briefly busy, after which
          // the watchdog fires.
          if (rp.me() == 0) rp.proc().wait_until([] { return false; });
        });
      },
      "deadlock report");
}

// Regression for the trace-after-move bug: kAmDispatch must record the
// payload size even when the handler moves the payload out.
TEST(Trace, DispatchRecordsPayloadBytesAfterHandlerMovesPayload) {
  auto m_ptr = Machine::create({.nprocs = 2});
  Machine& m = *m_ptr;
  m.enable_tracing(64);
  ace::am::PayloadRef sink;
  const auto h = m.register_handler(
      [&](Proc&, Message& msg) { sink = std::move(msg.payload); });
  m.run([&](Proc& p) {
    if (p.id() == 0) {
      p.send(1, h, {}, std::vector<std::byte>(48));
    } else {
      p.wait_until([&] { return !sink.empty(); });
    }
    p.barrier();
  });
  ASSERT_EQ(sink.size(), 48u);
  bool found = false;
  for (const auto& pt : m.traces()) {
    if (pt.proc != 1) continue;
    ASSERT_NE(pt.ring, nullptr);
    for (std::size_t i = 0; i < pt.ring->size(); ++i) {
      const auto& e = pt.ring->at(i);
      if (e.kind == ace::obs::EventKind::kAmDispatch && e.arg0 == 0 &&
          e.arg1 == 48)
        found = true;
    }
  }
  EXPECT_TRUE(found) << "no kAmDispatch event recorded the moved payload size";
}

}  // namespace
