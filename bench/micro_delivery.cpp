// Microbenchmark: per-(src,dst) message delivery rate through the AM
// substrate — the enqueue/mailbox/poll/dispatch path every protocol message
// rides (src/am/machine.hpp's CRL polling model).
//
// Five shapes:
//   * ping_pong      — one blocking round trip at a time: the latency floor
//                      a protocol miss stalls for.
//   * window/N       — N one-word messages pipelined into the peer's
//                      mailbox, then one flush round trip: the throughput
//                      the pipelined-write protocol's end_write path sees.
//   * payload_window — the same window with 4 KiB payloads: adds the bulk
//                      copy cost (region-data pushes).
//   * self           — send-to-self plus poll: pure enqueue/dispatch
//                      software path, no cross-thread handoff.
//   * fanout         — 4 procs each share one 8-byte snapshot with every
//                      peer, then barrier: the StaticUpdate barrier push,
//                      where one thread makes a payload and another drops
//                      its last reference.
//
// Counters are plain (non-atomic) because a handler runs only on its
// destination processor's own thread during poll(); each counter is touched
// by exactly one thread.

#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "am/machine.hpp"
#include "bench/micro_report.hpp"

namespace {

namespace am = ace::am;

struct Env {
  std::unique_ptr<am::Machine> machine_ptr =
      am::Machine::create({.nprocs = 2});
  am::Machine& machine = *machine_ptr;
  am::HandlerId ping = 0, pong = 0, sink = 0, stop = 0;
  std::uint64_t pongs = 0;    ///< rank 0's thread only
  std::uint64_t sunk = 0;     ///< receiver's thread only
  bool stopped = false;       ///< rank 1's thread only

  Env() {
    pong = machine.register_handler(
        [this](am::Proc&, am::Message&) { pongs += 1; }, "bench_pong");
    ping = machine.register_handler(
        [this](am::Proc& p, am::Message& m) { p.send(m.src, pong); },
        "bench_ping");
    sink = machine.register_handler(
        [this](am::Proc&, am::Message& m) { sunk += m.args[0]; },
        "bench_sink");
    stop = machine.register_handler(
        [this](am::Proc&, am::Message&) { stopped = true; }, "bench_stop");
  }

  /// Rank 0 runs `fn` while rank 1 services its mailbox until told to stop.
  template <class Fn>
  void drive(Fn&& fn) {
    machine.run([&](am::Proc& p) {
      if (p.id() == 0) {
        fn(p);
        p.send(1, stop);
      } else {
        p.wait_until([&] { return stopped; });
      }
    });
  }
};

void BM_PingPong(benchmark::State& state) {
  Env env;
  env.drive([&](am::Proc& p) {
    for (auto _ : state) {
      const std::uint64_t want = env.pongs + 1;
      p.send(1, env.ping);
      p.wait_until([&] { return env.pongs >= want; });
    }
  });
}
BENCHMARK(BM_PingPong);

void BM_Window(benchmark::State& state) {
  const auto window = static_cast<std::uint64_t>(state.range(0));
  Env env;
  env.drive([&](am::Proc& p) {
    for (auto _ : state) {
      for (std::uint64_t i = 0; i < window; ++i)
        p.send(1, env.sink, {1});
      // Delivery is FIFO per (src,dst) pair: the flush ping's reply proves
      // every sink in the window was dispatched.
      const std::uint64_t want = env.pongs + 1;
      p.send(1, env.ping);
      p.wait_until([&] { return env.pongs >= want; });
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * static_cast<std::int64_t>(window)));
  });
}
BENCHMARK(BM_Window)->Arg(16)->Arg(256);

void BM_PayloadWindow(benchmark::State& state) {
  constexpr std::uint64_t kWindow = 64;
  constexpr std::size_t kBytes = 4096;
  Env env;
  const std::vector<std::byte> payload(kBytes);
  env.drive([&](am::Proc& p) {
    for (auto _ : state) {
      for (std::uint64_t i = 0; i < kWindow; ++i)
        p.send(1, env.sink, {1}, payload);  // copies: each send owns its data
      const std::uint64_t want = env.pongs + 1;
      p.send(1, env.ping);
      p.wait_until([&] { return env.pongs >= want; });
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * static_cast<std::int64_t>(kWindow)));
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * static_cast<std::int64_t>(kWindow * kBytes)));
  });
}
BENCHMARK(BM_PayloadWindow);

void BM_SelfDelivery(benchmark::State& state) {
  Env env;
  env.drive([&](am::Proc& p) {
    for (auto _ : state) {
      const std::uint64_t want = env.sunk + 1;
      p.send(0, env.sink, {1});
      p.wait_until([&] { return env.sunk >= want; });
    }
  });
}
BENCHMARK(BM_SelfDelivery);

void BM_FanoutAllToAll(benchmark::State& state) {
  constexpr am::ProcId kProcs = 4;
  const auto machine = am::Machine::create({.nprocs = kProcs});
  std::vector<std::uint64_t> sunk(kProcs, 0);  ///< entry q: proc q only
  const am::HandlerId sink = machine->register_handler(
      [&](am::Proc& p, am::Message& m) { sunk[p.id()] += m.args[0]; },
      "bench_fanout_sink");
  // Rank 0 runs the timed loop; the others run the same number of rounds,
  // which google-benchmark fixes before the loop starts.
  const auto rounds = static_cast<std::int64_t>(state.max_iterations);
  machine->run([&](am::Proc& p) {
    const auto round = [&](std::uint64_t i) {
      const auto snap = am::PayloadRef::copy_of(&i, sizeof i);
      for (am::ProcId q = 0; q < kProcs; ++q)
        if (q != p.id()) p.send(q, sink, {1}, snap);
      p.barrier();
    };
    std::uint64_t i = 0;
    if (p.id() == 0) {
      for (auto _ : state) round(i++);
    } else {
      while (static_cast<std::int64_t>(i) < rounds) round(i++);
    }
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * kProcs * (kProcs - 1)));
}
BENCHMARK(BM_FanoutAllToAll);

}  // namespace

int main(int argc, char** argv) {
  return bench::micro_main("micro_delivery", argc, argv);
}
