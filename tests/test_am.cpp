// Tests for the Active-Messages machine: delivery, polling discipline,
// barriers (including the FIFO flush lemma the protocols rely on), virtual
// clocks, and statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "am/machine.hpp"
#include "am/payload.hpp"

namespace {

using ace::am::Machine;
using ace::am::Message;
using ace::am::Proc;
using ace::am::ProcId;

TEST(Machine, RunsEveryProcessorExactlyOnce) {
  auto m_ptr = Machine::create({.nprocs = 8});
  Machine& m = *m_ptr;
  std::vector<int> hits(8, 0);
  m.run([&](Proc& p) { hits[p.id()] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Machine, SelfReturnsBoundProc) {
  auto m_ptr = Machine::create({.nprocs = 4});
  Machine& m = *m_ptr;
  m.run([&](Proc& p) { EXPECT_EQ(&Machine::self(), &p); });
}

TEST(Machine, MessageDeliveredOnPoll) {
  auto m_ptr = Machine::create({.nprocs = 2});
  Machine& m = *m_ptr;
  std::vector<std::uint64_t> got(2, 0);
  const auto h = m.register_handler(
      [&](Proc& self, Message& msg) { got[self.id()] = msg.args[0]; });
  m.run([&](Proc& p) {
    if (p.id() == 0) {
      p.send(1, h, {1234});
    } else {
      p.wait_until([&] { return got[1] != 0; });
      EXPECT_EQ(got[1], 1234u);
    }
    p.barrier();
  });
}

TEST(Machine, PayloadRoundTrip) {
  auto m_ptr = Machine::create({.nprocs = 2});
  Machine& m = *m_ptr;
  ace::am::PayloadRef received;
  const auto h = m.register_handler(
      [&](Proc&, Message& msg) { received = std::move(msg.payload); });
  m.run([&](Proc& p) {
    if (p.id() == 0) {
      std::vector<std::byte> data(64);
      for (int i = 0; i < 64; ++i) data[i] = static_cast<std::byte>(i);
      p.send(1, h, {}, std::move(data));
    } else {
      p.wait_until([&] { return !received.empty(); });
    }
    p.barrier();
  });
  ASSERT_EQ(received.size(), 64u);
  EXPECT_EQ(received.data()[63], static_cast<std::byte>(63));
}

// The StaticUpdate barrier-push shape across threads: every proc shares one
// small and one 4 KiB snapshot with every peer, so buffers are made on one
// thread and released on whichever receiver drops the last reference.  The
// bytes must arrive intact, and once the proc threads have exited (handing
// their magazines to the depot) the pool must hold no more than every
// thread cache full plus two barrier windows of snapshots.
TEST(Payload, CrossThreadFanoutRecyclesWithinBound) {
  constexpr int kProcs = 4;
  constexpr std::uint64_t kRounds = 400;
  constexpr std::uint64_t kWindow = 8;  // rounds between barriers
  constexpr std::size_t kSizes[] = {8, 4096};
  // Per thread and size class, at most 2·M = 64 buffers are cached.
  constexpr std::size_t kBound =
      kProcs * std::size(kSizes) * (64 + 2 * kWindow);
  auto m_ptr = Machine::create({.nprocs = kProcs});
  Machine& m = *m_ptr;
  const auto fill = [](std::uint64_t src, std::uint64_t round, std::size_t i) {
    return static_cast<std::byte>(src * 31 + round * 7 + i);
  };
  std::vector<std::uint64_t> got(kProcs, 0), bad(kProcs, 0);
  const auto h = m.register_handler([&](Proc& self, Message& msg) {
    got[self.id()] += 1;
    const ace::am::PayloadRef& pl = msg.payload;
    if (pl.size() != msg.args[1]) bad[self.id()] += 1;
    for (std::size_t i = 0; i < pl.size(); ++i) {
      if (pl.data()[i] != fill(msg.src, msg.args[0], i)) {
        bad[self.id()] += 1;
        break;
      }
    }
  });
  const std::size_t before = ace::am::payload_pool_cached();
  m.run([&](Proc& p) {
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      for (std::size_t n : kSizes) {
        ace::am::PayloadRef snap = ace::am::PayloadRef::make(n);
        for (std::size_t i = 0; i < n; ++i)
          snap.data()[i] = fill(p.id(), round, i);
        for (ProcId q = 0; q < kProcs; ++q)
          if (q != p.id()) p.send(q, h, {round, n}, snap);  // shares snap
      }
      if (round % kWindow == kWindow - 1) p.barrier();
    }
    p.barrier();
  });
  for (int q = 0; q < kProcs; ++q) {
    EXPECT_EQ(got[q], kRounds * std::size(kSizes) * (kProcs - 1)) << q;
    EXPECT_EQ(bad[q], 0u) << q;
  }
  const std::size_t after = ace::am::payload_pool_cached();
  EXPECT_GT(after, 0u);  // exited threads' magazines reached the depot
  EXPECT_LE(after, before + kBound);
}

TEST(Machine, FifoPerMailboxFromOneSender) {
  auto m_ptr = Machine::create({.nprocs = 2});
  Machine& m = *m_ptr;
  std::vector<std::uint64_t> order;
  const auto h = m.register_handler(
      [&](Proc&, Message& msg) { order.push_back(msg.args[0]); });
  m.run([&](Proc& p) {
    if (p.id() == 0)
      for (std::uint64_t i = 1; i <= 100; ++i) p.send(1, h, {i});
    else
      p.wait_until([&] { return order.size() == 100; });
    p.barrier();
  });
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(order[i], i + 1);
}

TEST(Machine, BarrierSynchronizesAllProcs) {
  constexpr int kProcs = 8;
  auto m_ptr = Machine::create({.nprocs = kProcs});
  Machine& m = *m_ptr;
  std::atomic<int> phase0{0};
  std::vector<int> seen_after(kProcs, -1);
  m.run([&](Proc& p) {
    phase0.fetch_add(1);
    p.barrier();
    // After the barrier, every processor must have completed phase 0.
    seen_after[p.id()] = phase0.load();
  });
  for (int v : seen_after) EXPECT_EQ(v, kProcs);
}

TEST(Machine, RepeatedBarriers) {
  auto m_ptr = Machine::create({.nprocs = 4});
  Machine& m = *m_ptr;
  std::atomic<int> counter{0};
  m.run([&](Proc& p) {
    for (int i = 0; i < 50; ++i) {
      if (p.id() == 0) counter.fetch_add(1);
      p.barrier();
      EXPECT_EQ(counter.load(), i + 1);
      p.barrier();
    }
  });
}

// The flush lemma: a message sent before the sender enters a barrier is
// handled by its destination before that destination leaves the barrier.
// Every barrier-synchronized update protocol depends on this.
TEST(Machine, FlushLemma) {
  constexpr int kProcs = 8;
  constexpr int kRounds = 25;
  auto m_ptr = Machine::create({.nprocs = kProcs});
  Machine& m = *m_ptr;
  std::vector<std::vector<int>> inbox(kProcs, std::vector<int>(kProcs, -1));
  const auto h = m.register_handler([&](Proc& self, Message& msg) {
    inbox[self.id()][msg.src] = static_cast<int>(msg.args[0]);
  });
  m.run([&](Proc& p) {
    for (int round = 0; round < kRounds; ++round) {
      for (ProcId q = 0; q < kProcs; ++q)
        if (q != p.id()) p.send(q, h, {static_cast<std::uint64_t>(round)});
      p.barrier();
      for (ProcId q = 0; q < kProcs; ++q) {
        if (q != p.id()) {
          EXPECT_EQ(inbox[p.id()][q], round);
        }
      }
      p.barrier();  // keep rounds from overlapping
    }
  });
}

TEST(Machine, StatsCountMessagesAndBytes) {
  auto m_ptr = Machine::create({.nprocs = 2});
  Machine& m = *m_ptr;
  const auto h = m.register_handler([](Proc&, Message&) {});
  m.run([&](Proc& p) {
    if (p.id() == 0) p.send(1, h, {}, std::vector<std::byte>(100));
    p.barrier();
  });
  const auto s = m.aggregate_stats();
  // 1 user message + barrier traffic (1 arrive + 1 release).
  EXPECT_EQ(s.bytes_sent, 100u);
  EXPECT_GE(s.msgs_sent, 3u);
  EXPECT_EQ(s.msgs_sent, s.msgs_received);
}

TEST(Machine, VirtualClockAdvancesWithCharges) {
  auto m_ptr = Machine::create({.nprocs = 1});
  Machine& m = *m_ptr;
  m.run([&](Proc& p) {
    const auto t0 = p.vclock_ns();
    p.charge(5000);
    EXPECT_EQ(p.vclock_ns(), t0 + 5000);
  });
}

TEST(Machine, ReceiverChargesDispatchPerMessage) {
  // Modeled-time rule: receivers pay dispatch cost per message; they do NOT
  // inherit the sender's clock (scheduling skew must not leak into virtual
  // time) — clocks join only at barriers and via explicit charge_rtt stalls.
  auto m_ptr = Machine::create({.nprocs = 2});
  Machine& m = *m_ptr;
  std::uint64_t handler_time = ~0ull;
  const auto h = m.register_handler(
      [&](Proc& self, Message&) { handler_time = self.vclock_ns(); });
  m.run([&](Proc& p) {
    if (p.id() == 0) {
      p.charge(1'000'000);  // sender far ahead in virtual time
      p.send(1, h, {});
    } else {
      p.wait_until([&] { return handler_time != ~0ull; });
      EXPECT_LT(handler_time, 1'000'000u);  // did not inherit sender's clock
      EXPECT_GE(handler_time, m.cost().handler_dispatch_ns);
    }
    p.barrier();
    EXPECT_GE(p.vclock_ns(), 1'000'000u);  // barrier joins clocks
  });
}

TEST(Machine, ChargeRttAdvancesClockByRoundTrip) {
  auto m_ptr = Machine::create({.nprocs = 1});
  Machine& m = *m_ptr;
  m.run([&](Proc& p) {
    const auto t0 = p.vclock_ns();
    p.charge_rtt();
    EXPECT_EQ(p.vclock_ns() - t0, 2 * m.cost().wire_latency_ns +
                                      m.cost().handler_dispatch_ns);
  });
}

TEST(Machine, BarrierJoinsVirtualClocks) {
  auto m_ptr = Machine::create({.nprocs = 4});
  Machine& m = *m_ptr;
  m.run([&](Proc& p) {
    if (p.id() == 2) p.charge(10'000'000);
    p.barrier();
    EXPECT_GE(p.vclock_ns(), 10'000'000u);
  });
}

TEST(Machine, ResetStatsClearsCountersAndClocks) {
  auto m_ptr = Machine::create({.nprocs = 2});
  Machine& m = *m_ptr;
  const auto h = m.register_handler([](Proc&, Message&) {});
  m.run([&](Proc& p) {
    if (p.id() == 0) p.send(1, h, {});
    p.barrier();
  });
  m.reset_stats();
  EXPECT_EQ(m.aggregate_stats().msgs_sent, 0u);
  EXPECT_EQ(m.max_vclock_ns(), 0u);
}

TEST(Machine, MultipleRunsPreserveMachine) {
  auto m_ptr = Machine::create({.nprocs = 4});
  Machine& m = *m_ptr;
  int runs = 0;
  for (int i = 0; i < 3; ++i)
    m.run([&](Proc& p) {
      if (p.id() == 0) ++runs;
      p.barrier();
    });
  EXPECT_EQ(runs, 3);
}

TEST(Machine, RunRethrowsProcFnException) {
  // A throwing ProcFn used to leave the other processors parked in the
  // closing barrier forever; run() must join everyone and rethrow.
  auto m_ptr = Machine::create({.nprocs = 4});
  Machine& m = *m_ptr;
  EXPECT_THROW(
      m.run([](Proc& p) {
        if (p.id() == 2) throw std::runtime_error("app failure");
        // The other procs return normally and must not hang.
      }),
      std::runtime_error);
}

TEST(Machine, BarrierEpochContinuityAcrossRuns) {
  // Barriers inside a second run() must still synchronize (the epoch
  // counters carry across runs; a stale epoch would let a proc sail through
  // a barrier opened in the previous run).
  constexpr int kProcs = 4;
  auto m_ptr = Machine::create({.nprocs = kProcs});
  Machine& m = *m_ptr;
  std::atomic<int> counter{0};
  for (int run = 0; run < 3; ++run) {
    m.run([&](Proc& p) {
      for (int i = 0; i < 5; ++i) {
        if (p.id() == 0) counter.fetch_add(1);
        p.barrier();
        EXPECT_EQ(counter.load(), run * 5 + i + 1);
        p.barrier();
      }
    });
  }
}

TEST(Machine, ResetStatsMakesRepsReproducible) {
  // The bench-rep pattern: run, reset_stats, run again — the second rep's
  // modeled time and message counts must equal the first's (nothing from
  // rep 1 may leak into rep 2's clocks or counters).
  auto m_ptr = Machine::create({.nprocs = 3});
  Machine& m = *m_ptr;
  std::vector<std::uint64_t> got(3, 0);
  const auto h = m.register_handler(
      [&](Proc& self, Message&) { got[self.id()] += 1; });
  const auto rep = [&] {
    std::fill(got.begin(), got.end(), 0);
    m.run([&](Proc& p) {
      p.charge(1000 * (p.id() + 1));
      const ProcId next = static_cast<ProcId>((p.id() + 1) % 3);
      for (int i = 0; i < 4; ++i) p.send(next, h, {});
      p.wait_until([&] { return got[p.id()] == 4; });
      p.barrier();
    });
  };
  rep();
  const auto msgs1 = m.aggregate_stats().msgs_sent;
  const auto t1 = m.max_vclock_ns();
  m.reset_stats();
  rep();
  EXPECT_EQ(m.aggregate_stats().msgs_sent, msgs1);
  EXPECT_EQ(m.max_vclock_ns(), t1);
}

TEST(Machine, HandlerMaySendMessages) {
  // A handler at proc 1 forwards to proc 2 (the home-forwarding pattern in
  // the update protocols).
  auto m_ptr = Machine::create({.nprocs = 3});
  Machine& m = *m_ptr;
  std::uint64_t final_val = 0;
  ace::am::HandlerId h2 = 0;
  const auto h1 = m.register_handler(
      [&](Proc& self, Message& msg) { self.send(2, h2, {msg.args[0] + 1}); });
  h2 = m.register_handler(
      [&](Proc&, Message& msg) { final_val = msg.args[0]; });
  m.run([&](Proc& p) {
    if (p.id() == 0) p.send(1, h1, {41});
    p.barrier();
    p.barrier();  // two hops -> two barriers (flush lemma, twice)
    EXPECT_EQ(final_val, 42u);
  });
}

TEST(Machine, ProgramAndHandlerSendsNumberSeparately) {
  // Proc 1's program sends to proc 0 before and after it dispatches a ping
  // whose handler replies to proc 0 too.  The program's two sends take seq 1
  // and 2 and the reply takes its own first number, so a replayed run names
  // every message the same however the host thread's polls fall.
  auto m_ptr = Machine::create({.nprocs = 2});
  Machine& m = *m_ptr;
  constexpr std::uint64_t kFromProgram = 0, kFromHandler = 1;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;  // (origin, seq)
  bool pinged = false;
  const auto rec = m.register_handler(
      [&](Proc&, Message& msg) { got.emplace_back(msg.args[0], msg.seq); });
  const auto ping = m.register_handler([&](Proc& self, Message&) {
    pinged = true;
    self.send(0, rec, {kFromHandler});
  });
  m.run([&](Proc& p) {
    if (p.id() == 0) {
      p.send(1, ping, {});
      p.wait_until([&] { return got.size() == 3; });
    } else {
      p.send(0, rec, {kFromProgram});
      p.wait_until([&] { return pinged; });
      p.send(0, rec, {kFromProgram});
    }
    p.barrier();
  });
  ASSERT_EQ(got.size(), 3u);
  std::vector<std::uint64_t> program, handler;
  for (const auto& [origin, seq] : got)
    (origin == kFromProgram ? program : handler).push_back(seq);
  EXPECT_EQ(program, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(handler, (std::vector<std::uint64_t>{1 | ace::am::kHandlerSeqBit}));
}

}  // namespace
