// Cross-backend conformance suite: every delivery guarantee the protocol
// stack relies on must hold identically on the deterministic thread backend
// and the multi-process ring backend (am/transport.hpp).
//
// Test mechanics on the proc backend: Machine::create forks, so ranks
// 1..N-1 execute the test body as real processes and exit inside Machine
// destruction/finalize.  Assertions therefore must be RANK-LOCAL (no
// cross-rank shared captures — fork gives every rank a private copy), and
// a child rank's gtest failures propagate through `child_exit_code`: the
// child exits nonzero, rank 0's finalize() counts it as an abnormal exit,
// and the rank-0 EXPECT on finalize() fails the test.  On the thread
// backend the same code runs in one address space and the per-proc-indexed
// state stays race-free the same way tests/test_am.cpp's does.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "acec/pipeline.hpp"
#include "am/delivery.hpp"
#include "am/machine.hpp"
#include "apps/em3d.hpp"
#include "apps/miglock.hpp"
#include "apps/water.hpp"
#include "bench/harness.hpp"
#include "bench/kernel_run.hpp"

namespace {

using ace::am::Backend;
using ace::am::Machine;
using ace::am::MachineOptions;
using ace::am::Message;
using ace::am::Proc;
using ace::am::ProcId;
using ace::am::TimeMode;

std::uint64_t bits(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

class Conformance : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<Machine> make(std::uint32_t procs, MachineOptions opts = {}) {
    opts.nprocs = procs;
    opts.backend = GetParam();
    auto m = Machine::create(opts);
    // Child ranks report test-framework failures through their exit code;
    // rank 0 folds them back in via finish().
    m->child_exit_code = [] { return ::testing::Test::HasFailure() ? 7 : 0; };
    return m;
  }

  // Call on every rank after the SPMD part: child ranks exit inside
  // finalize() (nonzero if they saw an EXPECT fail); rank 0 gets the count
  // of failed peers.
  static void finish(Machine& m) {
    EXPECT_EQ(m.finalize(), 0) << "a peer rank recorded a test failure";
  }
};

TEST_P(Conformance, PerSenderFifoAllPairs) {
  constexpr std::uint32_t kProcs = 4;
  constexpr std::uint64_t kMsgs = 200;
  auto m = make(kProcs);
  // next[receiver][sender]: the seq the receiver expects next from sender.
  std::vector<std::vector<std::uint64_t>> next(
      kProcs, std::vector<std::uint64_t>(kProcs, 1));
  std::vector<std::uint64_t> got(kProcs, 0);
  const auto h = m->register_handler([&](Proc& self, Message& msg) {
    auto& n = next[self.id()][msg.src];
    EXPECT_EQ(msg.args[0], n) << "reordered within sender " << msg.src;
    ++n;
    ++got[self.id()];
  });
  m->run([&](Proc& p) {
    for (std::uint64_t i = 1; i <= kMsgs; ++i)
      for (ProcId q = 0; q < kProcs; ++q)
        if (q != p.id()) p.send(q, h, {i});
    p.wait_until([&] { return got[p.id()] == (kProcs - 1) * kMsgs; });
    p.barrier();
  });
  finish(*m);
}

TEST_P(Conformance, FlushLemma) {
  // A message sent before the sender enters a barrier is handled at its
  // destination before that destination leaves the barrier — on rings
  // exactly as on threads.
  constexpr std::uint32_t kProcs = 4;
  constexpr int kRounds = 10;
  auto m = make(kProcs);
  std::vector<std::vector<int>> inbox(kProcs, std::vector<int>(kProcs, -1));
  const auto h = m->register_handler([&](Proc& self, Message& msg) {
    inbox[self.id()][msg.src] = static_cast<int>(msg.args[0]);
  });
  m->run([&](Proc& p) {
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
  finish(*m);
}

TEST_P(Conformance, BarrierEpochContinuityAcrossRuns) {
  // Barrier epochs carry across run() calls on both backends; a stale
  // epoch would let the flush-lemma check below see a previous round's
  // value (or deadlock a rank in an already-opened barrier).
  constexpr std::uint32_t kProcs = 4;
  auto m = make(kProcs);
  std::vector<std::vector<int>> inbox(kProcs, std::vector<int>(kProcs, -1));
  const auto h = m->register_handler([&](Proc& self, Message& msg) {
    inbox[self.id()][msg.src] = static_cast<int>(msg.args[0]);
  });
  for (int run = 0; run < 3; ++run) {
    m->run([&](Proc& p) {
      for (int i = 0; i < 5; ++i) {
        const int stamp = run * 5 + i;
        for (ProcId q = 0; q < kProcs; ++q)
          if (q != p.id()) p.send(q, h, {static_cast<std::uint64_t>(stamp)});
        p.barrier();
        for (ProcId q = 0; q < kProcs; ++q) {
          if (q != p.id()) {
            EXPECT_EQ(inbox[p.id()][q], stamp);
          }
        }
        p.barrier();
      }
    });
  }
  finish(*m);
}

TEST_P(Conformance, BigPayloadsBothDirectionsAtOnce) {
  // Payloads far larger than the rings, sent by both sides simultaneously:
  // exercises frame reassembly and the sender's drain-while-blocked path
  // (a naive blocking write would deadlock).
  constexpr std::size_t kBig = std::size_t{2} << 20;  // 2 MiB, 128 rings full
  constexpr int kEach = 3;
  auto m = make(2);
  std::vector<int> ok(2, 0);
  const auto h = m->register_handler([&](Proc& self, Message& msg) {
    EXPECT_EQ(msg.payload.size(), kBig);
    const auto tag = static_cast<unsigned char>(msg.args[0]);
    EXPECT_EQ(msg.payload.front(), static_cast<std::byte>(tag));
    EXPECT_EQ(msg.payload.back(), static_cast<std::byte>(tag + 1));
    ++ok[self.id()];
  });
  m->run([&](Proc& p) {
    const ProcId peer = 1 - p.id();
    for (int i = 0; i < kEach; ++i) {
      std::vector<std::byte> data(kBig);
      const auto tag = static_cast<unsigned char>(0x40 + i);
      data.front() = static_cast<std::byte>(tag);
      data.back() = static_cast<std::byte>(tag + 1);
      p.send(peer, h, {tag}, std::move(data));
    }
    p.wait_until([&] { return ok[p.id()] == kEach; });
    p.barrier();
  });
  finish(*m);
}

TEST_P(Conformance, FlushLemmaUnderChaos) {
  // The seeded chaos delivery policy (legal reorder/hold perturbation)
  // composes with either backend: its guarantees are stated against the
  // delivery contract, not against the thread implementation.
  constexpr std::uint32_t kProcs = 4;
  auto m = make(kProcs);
  ace::am::ChaosOptions copt;
  copt.seed = 42;
  m->set_chaos(copt);
  std::vector<std::vector<int>> inbox(kProcs, std::vector<int>(kProcs, -1));
  const auto h = m->register_handler([&](Proc& self, Message& msg) {
    inbox[self.id()][msg.src] = static_cast<int>(msg.args[0]);
  });
  m->run([&](Proc& p) {
    for (int round = 0; round < 8; ++round) {
      for (ProcId q = 0; q < kProcs; ++q)
        if (q != p.id()) p.send(q, h, {static_cast<std::uint64_t>(round)});
      p.barrier();
      for (ProcId q = 0; q < kProcs; ++q) {
        if (q != p.id()) {
          EXPECT_EQ(inbox[p.id()][q], round);
        }
      }
      p.barrier();
    }
  });
  finish(*m);
}

TEST_P(Conformance, WallClockModeAdvancesHostTime) {
  auto m = make(2, {.time_mode = TimeMode::kWall});
  EXPECT_EQ(m->time_mode(), TimeMode::kWall);
  m->run([&](Proc& p) {
    const auto t0 = p.vclock_ns();
    p.charge(1'000'000'000);  // modeled charges are no-ops in wall mode
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 100'000; ++i) sink = sink + i;
    p.barrier();
    const auto t1 = p.vclock_ns();
    EXPECT_GT(t1, t0);
    EXPECT_LT(t1 - t0, 60ull * 1'000'000'000);  // sane: well under a minute
  });
  EXPECT_GT(m->max_vclock_ns(), 0u);
  EXPECT_GT(m->last_run_wall_ns(), 0u);
  finish(*m);
}

TEST_P(Conformance, RankIdentityIsConsistent) {
  auto m = make(3);
  Machine& machine = *m;
  machine.run([&](Proc& p) {
    if (machine.multiprocess()) {
      // One rank per process: the only proc a process runs is its own.
      EXPECT_EQ(p.id(), machine.self_rank());
      EXPECT_EQ(machine.is_primary(), p.id() == 0);
    } else {
      EXPECT_EQ(machine.self_rank(), 0u);
      EXPECT_TRUE(machine.is_primary());
    }
    p.barrier();
  });
  finish(*m);
}

TEST_P(Conformance, GatherDeliversEveryValueInRankOrder) {
  // Machine::gather runs fn for each processor this process holds and
  // hands the primary all of them, indexed by rank; a non-primary rank
  // sees only its own entry.
  struct Rec {
    ProcId id;
    double square;
  };
  auto m = make(3);
  m->run([](Proc& p) { p.barrier(); });
  const auto got = m->gather([](Proc& p) {
    return Rec{p.id(), 1.5 * p.id() * p.id()};
  });
  ASSERT_EQ(got.size(), 3u);
  for (ProcId r = 0; r < 3; ++r) {
    const bool visible = m->is_primary() || r == m->self_rank();
    EXPECT_EQ(got[r].id, visible ? r : 0u) << r;
    EXPECT_EQ(got[r].square, visible ? 1.5 * r * r : 0.0) << r;
  }
  finish(*m);
}

INSTANTIATE_TEST_SUITE_P(Backends, Conformance,
                         ::testing::Values(Backend::kThread, Backend::kProc),
                         [](const auto& info) {
                           return info.param == Backend::kThread
                                      ? std::string("Thread")
                                      : std::string("ProcSocket");
                         });

TEST(TransportOptions, WatchdogAndTraceComeFromMachineOptions) {
  auto m = Machine::create({.nprocs = 1, .watchdog_ms = 12'345});
  EXPECT_EQ(m->watchdog.count(), 12'345);
  EXPECT_EQ(m->backend(), Backend::kThread);
  EXPECT_FALSE(m->multiprocess());  // nprocs=1 never forks
}

TEST(TransportOptions, ProcBackendWithOneRankStaysInProcess) {
  auto m = Machine::create({.nprocs = 1, .backend = Backend::kProc});
  EXPECT_FALSE(m->multiprocess());
  int ran = 0;
  m->run([&](Proc& p) {
    ++ran;
    p.barrier();
  });
  EXPECT_EQ(ran, 1);
}

// ---- cross-backend parity on real kernels ---------------------------------
//
// The acceptance bar for the proc backend: the fig7a application kernels
// produce bit-for-bit identical checksums on threads and on processes.
// run_ace/run_crl fork per call on the proc backend, so everything after a
// call is rank-0-only code; each body returns its rank's checksum, and the
// harness gathers them and checks that every rank agrees.

bench::RunOptions proc_opt() {
  bench::RunOptions o;
  o.backend = Backend::kProc;
  return o;
}

TEST(BackendParity, Em3dChecksumMatchesBitForBit) {
  apps::Em3dParams p;
  p.n_e = p.n_h = 120;
  p.degree = 4;
  p.steps = 6;
  p.seed = 3;
  const auto body = [&](apps::AceApi& a) { return em3d_run(a, p).checksum; };
  const auto t = bench::run_ace(4, body);
  const auto s = bench::run_ace(4, body, proc_opt());
  EXPECT_EQ(bits(t.checksum), bits(s.checksum));
  EXPECT_NE(bits(t.checksum), 0u);
  EXPECT_EQ(t.am.msgs_sent, s.am.msgs_sent);
  EXPECT_EQ(s.backend, "proc-socket");
  EXPECT_GT(s.wall_s, 0.0);
}

TEST(BackendParity, WaterChecksumMatchesBitForBit) {
  apps::WaterParams p;
  p.n_mols = 64;
  p.steps = 2;
  p.seed = 5;
  const auto body = [&](apps::AceApi& a) { return water_run(a, p).checksum; };
  const auto t = bench::run_ace(4, body);
  const auto s = bench::run_ace(4, body, proc_opt());
  EXPECT_EQ(bits(t.checksum), bits(s.checksum));
  EXPECT_NE(bits(t.checksum), 0u);
}

TEST(BackendParity, MigLockChecksumMatchesBitForBitOnBothSiStacks) {
  // The fig7b self-invalidation rows: the migratory-locks kernel must
  // agree bit-for-bit between threads and processes under both SI stacks
  // (acquire/release actions are program-order driven, so even the message
  // counts match).
  for (const char* proto : {ace::proto_names::kSelfInvalidate,
                            ace::proto_names::kSelfInvalidateDowngrade}) {
    apps::MigLockParams p;
    p.n_locks = 4;
    p.rounds = 12;
    p.protocol = proto;
    const auto body = [&](apps::AceApi& a) {
      return miglock_run(a, p).checksum;
    };
    const auto t = bench::run_ace(4, body);
    const auto s = bench::run_ace(4, body, proc_opt());
    EXPECT_EQ(bits(t.checksum), bits(s.checksum)) << proto;
    EXPECT_EQ(t.checksum, 4 * 12 * 3.0) << proto;  // L*rounds*(1+2)
    EXPECT_EQ(t.am.msgs_sent, s.am.msgs_sent) << proto;
    EXPECT_EQ(s.backend, "proc-socket") << proto;
  }
}

TEST(BackendParity, CrlEm3dChecksumMatchesBitForBit) {
  apps::Em3dParams p;
  p.n_e = p.n_h = 120;
  p.degree = 4;
  p.steps = 6;
  p.seed = 3;
  const auto body = [&](apps::CrlApi& a) { return em3d_run(a, p).checksum; };
  const auto t = bench::run_crl(4, body);
  const auto s = bench::run_crl(4, body, proc_opt());
  EXPECT_EQ(bits(t.checksum), bits(s.checksum));
  EXPECT_NE(bits(t.checksum), 0u);
}

TEST(BackendParity, CompiledKernelsMatchBitForBit) {
  // Table 4's compiled path over rings: every kernel at the DC level,
  // set up in the harness's set-up phase; each rank returns its partial
  // checksum and protocol-call count, which the harness sums.
  const ace::Registry reg = ace::Registry::with_builtins();
  for (const auto& kc : ace::ir::table4_cases(1)) {
    const auto c = ace::ir::compile(kc.program, kc.space_protocols, reg);
    const auto t = bench::run_kernel(kc, &c.dc(), 4, {});
    const auto s = bench::run_kernel(kc, &c.dc(), 4, proc_opt());
    EXPECT_EQ(bits(t.checksum), bits(s.checksum)) << kc.name;
    EXPECT_NE(bits(t.checksum), 0u) << kc.name;
    EXPECT_EQ(t.calls, s.calls) << kc.name;
    EXPECT_GT(t.calls, 0u) << kc.name;
  }
}

TEST(BenchHarnessDeath, RanksReturningDifferentChecksumsAbort) {
  // The harness is the only writer of RunResult::checksum, and it takes
  // the value only when every rank returned the same bits.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(bench::run_ace(2,
                              [](apps::AceApi& a) {
                                return static_cast<double>(a.me());
                              }),
               "ranks returned different checksums");
}

TEST(BackendParity, StatsAndModeledTimeMatchOnDeterministicWorkload) {
  // A fixed AM workload (no polling-dependent branches): message counts,
  // bytes, and the modeled critical path must agree across backends.
  const auto workload = [](Machine& m) {
    std::vector<std::uint64_t> got(4, 0);
    const auto h = m.register_handler(
        [&](Proc& self, Message& msg) { got[self.id()] += msg.args[0]; });
    m.run([&](Proc& p) {
      p.charge(1000 * (p.id() + 1));
      const ProcId next = static_cast<ProcId>((p.id() + 1) % 4);
      for (int i = 0; i < 25; ++i) p.send(next, h, {2}, std::vector<std::byte>(8));
      p.wait_until([&] { return got[p.id()] == 50; });
      p.barrier();
    });
  };
  auto a = Machine::create({.nprocs = 4});
  workload(*a);
  const auto sa = a->aggregate_stats();
  const auto va = a->max_vclock_ns();

  auto b = Machine::create({.nprocs = 4, .backend = Backend::kProc});
  workload(*b);
  // Child ranks exit here; rank 0 compares.
  const auto sb = b->aggregate_stats();
  EXPECT_EQ(sa.msgs_sent, sb.msgs_sent);
  EXPECT_EQ(sa.msgs_received, sb.msgs_received);
  EXPECT_EQ(sa.bytes_sent, sb.bytes_sent);
  EXPECT_EQ(va, b->max_vclock_ns());
  EXPECT_EQ(b->finalize(), 0);
}


// --- delivery batching (per-peer coalescing) --------------------------------
//
// Both backends coalesce outgoing messages per destination (thread: outbox
// segments handed over wholesale; proc: one length-prefixed multi-frame).
// The batching knobs are MachineOptions::batch_max_msgs/batch_max_bytes;
// everything the protocol stack relies on — per-sender FIFO, the flush
// lemma, chaos/replay determinism, stats — must be invariant across them.

class BatchKnobs
    : public ::testing::TestWithParam<std::tuple<Backend, std::uint32_t>> {};

TEST_P(BatchKnobs, FifoAndFlushLemmaAtWatermarkBoundaries) {
  const auto [backend, batch] = GetParam();
  constexpr std::uint32_t kProcs = 3;
  auto m = Machine::create(
      {.nprocs = kProcs, .backend = backend, .batch_max_msgs = batch});
  m->child_exit_code = [] { return ::testing::Test::HasFailure() ? 7 : 0; };
  // Message counts straddling the watermark: below, exactly at, one past,
  // and several full batches plus a remainder — the remainder only moves at
  // the barrier fence, so a lost tail shows up as a flush-lemma failure.
  const std::uint64_t counts[] = {1, batch, batch + 1, 3 * batch + 2};
  std::vector<std::vector<std::uint64_t>> next(
      kProcs, std::vector<std::uint64_t>(kProcs, 0));
  const auto h = m->register_handler([&](Proc& self, Message& msg) {
    auto& n = next[self.id()][msg.src];
    EXPECT_EQ(msg.args[0], n) << "reordered within sender " << msg.src;
    ++n;
  });
  m->run([&](Proc& p) {
    std::uint64_t base = 0;
    for (const std::uint64_t count : counts) {
      for (std::uint64_t i = 0; i < count; ++i)
        for (ProcId q = 0; q < kProcs; ++q)
          if (q != p.id()) p.send(q, h, {base + i});
      p.barrier();
      base += count;
      for (ProcId q = 0; q < kProcs; ++q) {
        if (q != p.id()) {
          EXPECT_EQ(next[p.id()][q], base)
              << "pre-barrier sends from " << q << " not all delivered";
        }
      }
      p.barrier();
    }
  });
  EXPECT_EQ(m->finalize(), 0) << "a peer rank recorded a test failure";
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BatchKnobs,
    ::testing::Combine(::testing::Values(Backend::kThread, Backend::kProc),
                       ::testing::Values(1u, 4u, 64u, 1024u)),
    [](const auto& info) {
      return (std::get<0>(info.param) == Backend::kThread
                  ? std::string("Thread")
                  : std::string("ProcSocket")) +
             "Batch" + std::to_string(std::get<1>(info.param));
    });

TEST(Batching, WatermarkFlushesWithoutSenderPoll) {
  // The count watermark alone must hand a full segment over — the sender
  // neither polls nor reaches a barrier while the receiver waits.  Thread
  // backend: the sender can observe receipt through shared memory without
  // ever entering poll().  Below the watermark nothing may move (the
  // messages still sit in the sender's outbox, so the receiver CANNOT have
  // them, regardless of scheduling); the barrier fence then releases them.
  constexpr std::uint32_t kBatch = 4;
  auto m = Machine::create({.nprocs = 2, .batch_max_msgs = kBatch});
  std::atomic<std::uint64_t> got{0};
  const auto h = m->register_handler(
      [&](Proc&, Message&) { got.fetch_add(1, std::memory_order_relaxed); });
  m->run([&](Proc& p) {
    if (p.id() == 0) {
      for (std::uint64_t i = 0; i < kBatch; ++i) p.send(1, h, {i});
      // No poll, no barrier: only the watermark can have flushed these.
      while (got.load(std::memory_order_relaxed) < kBatch)
        std::this_thread::yield();
      for (std::uint64_t i = 0; i < kBatch - 1; ++i) p.send(1, h, {i});
      for (int i = 0; i < 10'000; ++i) std::this_thread::yield();
      EXPECT_EQ(got.load(std::memory_order_relaxed), kBatch)
          << "an under-watermark segment moved without a flush point";
    }
    p.barrier();  // fence: the sender's residual segment must flush here
    // Flush lemma: the receiver has handled everything before *it* leaves
    // the barrier.  The sender may exit first (it leaves on issuing the
    // release), so it only checks after the second barrier, by which point
    // the receiver has provably left the first.
    if (p.id() == 1) {
      EXPECT_EQ(got.load(std::memory_order_relaxed), 2 * kBatch - 1);
    }
    p.barrier();
    EXPECT_EQ(got.load(std::memory_order_relaxed), 2 * kBatch - 1);
  });
}

TEST(Batching, ChaosReplayBitForBitAcrossBatchKnobs) {
  // A delivery log captured under one batching configuration replays
  // bit-for-bit under another: the log names (src, seq, handler, jitter) in
  // released order, and ReplayPolicy re-imposes that schedule regardless of
  // how arrivals were coalesced underneath.
  constexpr std::uint32_t kProcs = 4;
  constexpr std::uint64_t kMsgs = 40;
  struct Outcome {
    std::vector<std::vector<std::pair<ProcId, std::uint64_t>>> order;
    std::vector<std::uint64_t> vclock;
    std::vector<ace::am::DeliveryLog> logs;
  };
  const auto run_one = [&](Machine& m) {
    Outcome out;
    out.order.resize(kProcs);
    out.vclock.assign(kProcs, 0);
    std::atomic<int> senders_done{0};
    std::vector<std::uint64_t> got(kProcs, 0);
    const auto h = m.register_handler([&](Proc& self, Message& msg) {
      out.order[self.id()].emplace_back(msg.src, msg.args[0]);
      got[self.id()] += 1;
    });
    m.run([&](Proc& p) {
      for (std::uint64_t i = 0; i < kMsgs; ++i)
        for (ProcId q = 0; q < kProcs; ++q)
          if (q != p.id()) p.send(q, h, {i});
      senders_done.fetch_add(1);
      while (senders_done.load() < static_cast<int>(kProcs))
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      p.wait_until([&] { return got[p.id()] == kMsgs * (kProcs - 1); });
      p.barrier();
      out.vclock[p.id()] = p.vclock_ns();
    });
    out.logs = m.delivery_logs();
    return out;
  };
  const auto same_logs = [](const std::vector<ace::am::DeliveryLog>& a,
                            const std::vector<ace::am::DeliveryLog>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t p = 0; p < a.size(); ++p) {
      if (a[p].size() != b[p].size()) return false;
      for (std::size_t i = 0; i < a[p].size(); ++i) {
        const auto& x = a[p][i];
        const auto& y = b[p][i];
        if (x.src != y.src || x.seq != y.seq || x.handler != y.handler ||
            x.jitter_ns != y.jitter_ns)
          return false;
      }
    }
    return true;
  };

  auto m1 = Machine::create({.nprocs = kProcs, .batch_max_msgs = 1});
  ace::am::ChaosOptions copt;
  copt.seed = 987;
  m1->set_chaos(copt);
  const Outcome chaos = run_one(*m1);

  for (const std::uint32_t batch : {1u, 64u, 1024u}) {
    auto m2 = Machine::create({.nprocs = kProcs, .batch_max_msgs = batch});
    m2->set_replay(chaos.logs);
    const Outcome replay = run_one(*m2);
    EXPECT_EQ(chaos.order, replay.order) << "batch_max_msgs=" << batch;
    EXPECT_EQ(chaos.vclock, replay.vclock) << "batch_max_msgs=" << batch;
    EXPECT_TRUE(same_logs(chaos.logs, replay.logs))
        << "batch_max_msgs=" << batch;
  }
}

TEST(Batching, StatsAndModeledTimeInvariantAcrossKnobs) {
  // Batching is a transport optimization: message counts, bytes, and the
  // modeled critical path of a deterministic workload must not depend on
  // the knob — and reset_stats must restore bit-identical reproducibility
  // on the same machine (the bench harness reruns workloads in place).
  const auto run_ring = [](Machine& m, ace::am::HandlerId h,
                           std::vector<std::uint64_t>& got) {
    std::fill(got.begin(), got.end(), 0);
    m.run([&](Proc& p) {
      p.charge(500 * (p.id() + 1));
      const ProcId next = static_cast<ProcId>((p.id() + 1) % 4);
      for (int i = 0; i < 30; ++i)
        p.send(next, h, {2}, std::vector<std::byte>(16));
      p.wait_until([&] { return got[p.id()] == 60; });
      p.barrier();
    });
  };
  ace::am::Stats ref;
  std::uint64_t ref_v = 0;
  bool have_ref = false;
  for (const std::uint32_t batch : {1u, 64u, 1024u}) {
    auto m = Machine::create({.nprocs = 4, .batch_max_msgs = batch});
    std::vector<std::uint64_t> got(4, 0);
    const auto h = m->register_handler(
        [&](Proc& self, Message& msg) { got[self.id()] += msg.args[0]; });
    run_ring(*m, h, got);
    const auto s1 = m->aggregate_stats();
    const auto v1 = m->max_vclock_ns();
    // Same machine, stats reset: the second run must reproduce the first.
    m->reset_stats();
    run_ring(*m, h, got);
    const auto s2 = m->aggregate_stats();
    EXPECT_EQ(s1.msgs_sent, s2.msgs_sent) << "batch=" << batch;
    EXPECT_EQ(s1.msgs_received, s2.msgs_received) << "batch=" << batch;
    EXPECT_EQ(s1.bytes_sent, s2.bytes_sent) << "batch=" << batch;
    EXPECT_EQ(v1, m->max_vclock_ns()) << "batch=" << batch;
    if (!have_ref) {
      ref = s1;
      ref_v = v1;
      have_ref = true;
    } else {
      EXPECT_EQ(ref.msgs_sent, s1.msgs_sent) << "batch=" << batch;
      EXPECT_EQ(ref.msgs_received, s1.msgs_received) << "batch=" << batch;
      EXPECT_EQ(ref.bytes_sent, s1.bytes_sent) << "batch=" << batch;
      EXPECT_EQ(ref_v, v1) << "batch=" << batch;
    }
  }
}

TEST(Batching, ShrunkSndBufForcesPartialWriteResume) {
  // Regression: through a 16 KiB ring a 2 MiB payload takes hundreds of
  // short ring writes; the per-peer tx queue must resume at the exact byte
  // offset with no frame interleaving.  Small messages sent around each
  // bulk payload prove ordering survives the spill path.
  constexpr std::size_t kBig = std::size_t{2} << 20;
  constexpr int kEach = 2;
  auto m = Machine::create({.nprocs = 2, .backend = Backend::kProc});
  m->child_exit_code = [] { return ::testing::Test::HasFailure() ? 7 : 0; };
  std::vector<std::uint64_t> seen(2, 0);
  const auto h = m->register_handler([&](Proc& self, Message& msg) {
    // Sequence stamp proves small frames did not jump the bulk frame.
    EXPECT_EQ(msg.args[0], seen[self.id()]) << "frame order broken";
    seen[self.id()] += 1;
    if (msg.args[1] == 1) {
      ASSERT_EQ(msg.payload.size(), kBig);
      const auto tag = static_cast<unsigned char>(msg.args[2]);
      EXPECT_EQ(msg.payload.front(), static_cast<std::byte>(tag));
      EXPECT_EQ(msg.payload.data()[kBig / 2], static_cast<std::byte>(tag + 1));
      EXPECT_EQ(msg.payload.back(), static_cast<std::byte>(tag + 2));
    } else {
      EXPECT_TRUE(msg.payload.empty());
    }
  });
  m->run([&](Proc& p) {
    const ProcId peer = 1 - p.id();
    std::uint64_t stamp = 0;
    for (int i = 0; i < kEach; ++i) {
      p.send(peer, h, {stamp++, 0});
      std::vector<std::byte> data(kBig);
      const auto tag = static_cast<unsigned char>(0x20 + i);
      data.front() = static_cast<std::byte>(tag);
      data[kBig / 2] = static_cast<std::byte>(tag + 1);
      data.back() = static_cast<std::byte>(tag + 2);
      p.send(peer, h, {stamp++, 1, tag}, std::move(data));
      p.send(peer, h, {stamp++, 0});
    }
    p.wait_until([&] { return seen[p.id()] == 3 * kEach; });
    p.barrier();
  });
  EXPECT_EQ(m->finalize(), 0) << "a peer rank recorded a test failure";
}

// --- the arrival doorbell ---------------------------------------------------
//
// A proc rank skips its ring sweep while its doorbell has not moved, and a
// waiting rank yield-spins on the bell before it sleeps on its futex.  A
// wake-up lost anywhere in that handoff strands a frame in a ring (or in
// the spill queue) until the watchdog fires.

class DoorbellPingPong
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>> {};

TEST_P(DoorbellPingPong, EveryMessageArrivesOnceInOrderAtEveryReplyDelay) {
  using std::chrono::microseconds;
  const auto [batch, ring_sized] = GetParam();
  auto m = Machine::create({.nprocs = 2,
                            .backend = Backend::kProc,
                            .watchdog_ms = 20'000,
                            .batch_max_msgs = batch});
  m->child_exit_code = [] { return ::testing::Test::HasFailure() ? 7 : 0; };
  std::vector<std::uint64_t> got(2, 0);  // got[r]: messages r has received
  const auto h = m->register_handler([&](Proc& self, Message& msg) {
    EXPECT_EQ(msg.args[0], got[self.id()])
        << "message lost, duplicated or reordered";
    got[self.id()] += 1;
  });
  // Every bulk frame overfills the 16 KiB ring: a run of short writes that
  // wait for room and spill the peer's frames.  The ring-sized payload
  // leaves the frame a header's length past one ring.
  const std::size_t kBulk = ring_sized ? std::size_t{16} << 10
                                       : std::size_t{128} << 10;
  // The replier's delay catches the waiter yield-spinning (0), at the edge
  // of its spin (50 us) and asleep on its futex (2 ms).
  struct Phase {
    microseconds delay;
    int rounds;
  };
  const Phase phases[] = {
      {microseconds{0}, 64}, {microseconds{50}, 64}, {microseconds{2000}, 16}};
  m->run([&](Proc& p) {
    const ProcId peer = 1 - p.id();
    std::uint64_t sent = 0;       // stamps this rank has used
    std::uint64_t peer_sent = 0;  // what the peer has sent by round's end
    for (const Phase& ph : phases) {
      const std::uint64_t sleeps0 = p.stats().sleeps;
      auto worst = std::chrono::steady_clock::duration::zero();
      for (int i = 0; i < ph.rounds; ++i) {
        // On bulk rounds both ranks write a bulk frame at once.
        const bool bulk = i % 8 == 0;
        const auto bulk_payload = [&] {
          return bulk ? ace::am::PayloadRef(std::vector<std::byte>(kBulk))
                      : ace::am::PayloadRef();
        };
        if (p.id() == 0) {
          const auto t0 = std::chrono::steady_clock::now();
          p.send(peer, h, {sent++}, bulk_payload());
          peer_sent += bulk ? 2 : 1;  // the peer's bulk frame, then its reply
          p.wait_until([&] { return got[0] >= peer_sent; });
          worst = std::max(worst, std::chrono::steady_clock::now() - t0);
        } else {
          if (bulk) p.send(peer, h, {sent++}, bulk_payload());
          peer_sent += 1;
          p.wait_until([&] { return got[1] >= peer_sent; });
          if (ph.delay.count() != 0) std::this_thread::sleep_for(ph.delay);
          p.send(peer, h, {sent++});
        }
      }
      if (p.id() == 0) {
        // Far inside the 20 s watchdog: no round waited out a sleep slice.
        EXPECT_LT(worst, std::chrono::seconds{1})
            << "reply delay " << ph.delay.count() << " us";
        if (ph.delay >= microseconds{2000}) {
          EXPECT_GT(p.stats().sleeps, sleeps0)
              << "the waiter never reached its futex sleep";
        }
      }
    }
    p.barrier();
    EXPECT_EQ(got[p.id()], peer_sent);
  });
  EXPECT_EQ(m->finalize(), 0) << "a peer rank recorded a test failure";
}

INSTANTIATE_TEST_SUITE_P(
    Proc, DoorbellPingPong,
    ::testing::Combine(::testing::Values(1u, 64u), ::testing::Bool()),
    [](const auto& info) {
      return "Batch" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "SndBuf16K" : "");
    });

TEST(Doorbell, IdlePollsDoNotTouchTheSockets) {
  // (The name predates the rings: an idle poll must not sweep them.)
  auto m = Machine::create({.nprocs = 2, .backend = Backend::kProc});
  m->child_exit_code = [] { return ::testing::Test::HasFailure() ? 7 : 0; };
  bool done = false;
  const auto h = m->register_handler([&](Proc&, Message&) { done = true; });
  m->run([&](Proc& p) {
    p.barrier();
    if (p.id() == 1) {
      EXPECT_GT(p.stats().sweeps, 0u) << "the barrier needed no sweep?";
      // Rank 0 sends nothing until it hears from rank 1, so every poll here
      // finds a quiet bell.  At most one sweep: the release may have been
      // read by a sweep that loaded the bell before the release's bump.
      const std::uint64_t before = p.stats().sweeps;
      for (int i = 0; i < 10'000; ++i) EXPECT_EQ(p.poll(), 0u);
      EXPECT_LE(p.stats().sweeps - before, 1u);
      p.send(0, h);
    } else {
      p.wait_until([&] { return done; });
    }
    p.barrier();
  });
  EXPECT_EQ(m->finalize(), 0) << "a peer rank recorded a test failure";
}

// --- peer death and the deadlock report on proc ----------------------------

TEST(ProcDeath, ChildExitMidRunFailsRankZeroWithinTwoSeconds) {
  // No socket EOF announces a dead peer any more: rank 0 reaps its children
  // between futex sleep slices, far inside the 20 s watchdog.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_DEATH(
      {
        auto m = Machine::create({.nprocs = 2,
                                  .backend = Backend::kProc,
                                  .watchdog_ms = 20'000});
        m->run([](Proc& p) {
          if (p.id() == 1) ::_exit(3);
          p.wait_until([] { return false; });
        });
      },
      "peer rank 1 \\(pid [0-9]+\\) died mid-run: exit status 3");
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds{2});
}

TEST(ProcDeath, DeadlockReportShowsRingState) {
  // Rank 1 sleeps without polling, so the frame rank 0 wrote stays in the
  // 0->1 ring when rank 0's watchdog fires.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto m = Machine::create(
            {.nprocs = 2, .backend = Backend::kProc, .watchdog_ms = 300});
        const auto h = m->register_handler([](Proc&, Message&) {});
        m->run([&](Proc& p) {
          if (p.id() == 1) {
            std::this_thread::sleep_for(std::chrono::seconds{10});
            return;
          }
          p.send(1, h, {}, ace::am::PayloadRef(std::vector<std::byte>(1000)));
          p.wait_until([] { return false; });
        });
      },
      "rings: bell=[0-9]+ swept=[0-9]+ sleepers=0 spilled=0\n"
      "  ring 0->1: [1-9][0-9]* B in flight, 1->0: 0 B in flight");
}

}  // namespace
