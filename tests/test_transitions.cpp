// Ace_ChangeProtocol transition matrix: for every ordered pair of library
// protocols, data written under the old protocol must be intact and
// coherent under the new one ("the semantics of the change are defined by
// the old protocol ... manipulating objects into a base state, and then
// calling the initialization routine of the new protocol", §3.1).
//
// The driver uses only the intersection of the protocols' contracts: the
// home writes its own regions; remotes read them across barriers.  Counter
// has value semantics of its own and is covered separately (its
// flush/init round-trip is in test_protocols).

#include <gtest/gtest.h>

#include "ace/runtime.hpp"

namespace {

using namespace ace;

const std::vector<std::string>& transition_protocols() {
  static const std::vector<std::string> p = {
      proto_names::kSC,           proto_names::kNull,
      proto_names::kDynamicUpdate, proto_names::kStaticUpdate,
      proto_names::kMigratory,    proto_names::kHomeWrite,
      proto_names::kPipelinedWrite, proto_names::kRaceCheck,
  };
  return p;
}

bool remote_reads_allowed(const std::string& proto) {
  return proto != proto_names::kNull;  // Null phases are strictly local
}

bool remote_writes_allowed(const std::string& proto) {
  return proto == proto_names::kSC || proto == proto_names::kDynamicUpdate ||
         proto == proto_names::kMigratory || proto == proto_names::kRaceCheck;
}

// Protocol names are held inline rather than as std::string: gtest prints
// a parameter's raw bytes into the test's listed name, and a std::string's
// bytes hold a heap address that differs from process to process.
struct Pair {
  char from[32];
  char to[32];
};

Pair make_pair_of(const std::string& from, const std::string& to) {
  Pair p{};
  from.copy(p.from, sizeof p.from - 1);
  to.copy(p.to, sizeof p.to - 1);
  return p;
}

class TransitionMatrix : public ::testing::TestWithParam<Pair> {};

TEST_P(TransitionMatrix, DataSurvivesAndStaysCoherent) {
  const std::string from = GetParam().from, to = GetParam().to;
  constexpr std::uint32_t kProcs = 4;
  auto machine_ptr = am::Machine::create({.nprocs = kProcs});
  am::Machine& machine = *machine_ptr;
  Runtime rt(machine);
  rt.run([&, from = from, to = to](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(from);
    // One region per processor, homed round-robin.
    std::vector<RegionId> ids(kProcs);
    for (std::uint32_t q = 0; q < kProcs; ++q) {
      RegionId id = dsm::kInvalidRegion;
      if (rp.me() == q) id = rp.gmalloc(sp, 8);
      ids[q] = rp.bcast_region(id, static_cast<am::ProcId>(q));
    }
    std::vector<std::uint64_t*> ptr(kProcs);
    for (std::uint32_t q = 0; q < kProcs; ++q)
      ptr[q] = static_cast<std::uint64_t*>(rp.map(ids[q]));

    // Phase 1 under `from`: every home writes; remotes read if allowed.
    rp.start_write(ptr[rp.me()]);
    *ptr[rp.me()] = 100 + rp.me();
    rp.end_write(ptr[rp.me()]);
    rp.ace_barrier(sp);
    if (remote_reads_allowed(from)) {
      for (std::uint32_t q = 0; q < kProcs; ++q) {
        rp.start_read(ptr[q]);
        EXPECT_EQ(*ptr[q], 100 + q) << "under " << from;
        rp.end_read(ptr[q]);
      }
    }
    rp.ace_barrier(sp);

    // The transition under test.
    rp.change_protocol(sp, to);

    // Phase 2 under `to`: old data visible, new writes coherent.
    if (remote_reads_allowed(to)) {
      for (std::uint32_t q = 0; q < kProcs; ++q) {
        rp.start_read(ptr[q]);
        EXPECT_EQ(*ptr[q], 100 + q) << from << " -> " << to;
        rp.end_read(ptr[q]);
      }
    } else {  // Null: home can still see its own datum
      rp.start_read(ptr[rp.me()]);
      EXPECT_EQ(*ptr[rp.me()], 100 + rp.me()) << from << " -> " << to;
      rp.end_read(ptr[rp.me()]);
    }
    rp.ace_barrier(sp);
    rp.start_write(ptr[rp.me()]);
    *ptr[rp.me()] = 200 + rp.me();
    rp.end_write(ptr[rp.me()]);
    rp.ace_barrier(sp);
    if (remote_reads_allowed(to)) {
      for (std::uint32_t q = 0; q < kProcs; ++q) {
        rp.start_read(ptr[q]);
        EXPECT_EQ(*ptr[q], 200 + q) << from << " -> " << to;
        rp.end_read(ptr[q]);
      }
    }
    rp.ace_barrier(sp);
  });
}

std::vector<Pair> all_pairs() {
  std::vector<Pair> pairs;
  for (const auto& a : transition_protocols())
    for (const auto& b : transition_protocols()) pairs.push_back(make_pair_of(a, b));
  return pairs;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, TransitionMatrix,
                         ::testing::ValuesIn(all_pairs()),
                         [](const auto& info) {
                           return std::string(info.param.from) + "_to_" +
                                  info.param.to;
                         });

// Remote writers across a transition (only protocols whose contract allows
// remote writes participate as `from`/`to` writers).
class RemoteWriteTransition : public ::testing::TestWithParam<Pair> {};

TEST_P(RemoteWriteTransition, RemoteWriteThenSwitchThenRead) {
  const std::string from = GetParam().from, to = GetParam().to;
  constexpr std::uint32_t kProcs = 3;
  auto machine_ptr = am::Machine::create({.nprocs = kProcs});
  am::Machine& machine = *machine_ptr;
  Runtime rt(machine);
  rt.run([&, from = from, to = to](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(from);
    RegionId id = dsm::kInvalidRegion;
    if (rp.me() == 0) id = rp.gmalloc(sp, 8);
    id = rp.bcast_region(id, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    // Everyone reads first (so update protocols have sharers), then a
    // *remote* processor writes.
    rp.start_read(p);
    rp.end_read(p);
    rp.ace_barrier(sp);
    if (rp.me() == 2) {
      rp.start_write(p);
      *p = 777;
      rp.end_write(p);
    }
    rp.ace_barrier(sp);
    rp.change_protocol(sp, to);
    rp.start_read(p);
    EXPECT_EQ(*p, 777u) << from << " -> " << to;
    rp.end_read(p);
    rp.ace_barrier(sp);
  });
}

std::vector<Pair> remote_write_pairs() {
  std::vector<Pair> pairs;
  for (const auto& a : transition_protocols()) {
    if (!remote_writes_allowed(a)) continue;
    for (const auto& b : transition_protocols())
      if (remote_reads_allowed(b)) pairs.push_back(make_pair_of(a, b));
  }
  return pairs;
}

INSTANTIATE_TEST_SUITE_P(RemoteWriters, RemoteWriteTransition,
                         ::testing::ValuesIn(remote_write_pairs()),
                         [](const auto& info) {
                           return std::string(info.param.from) + "_to_" +
                                  info.param.to;
                         });

// Chained transitions: walk the whole library on one space, checking the
// datum after every hop.
TEST(TransitionChain, FullLibraryWalk) {
  constexpr std::uint32_t kProcs = 4;
  auto machine_ptr = am::Machine::create({.nprocs = kProcs});
  am::Machine& machine = *machine_ptr;
  Runtime rt(machine);
  rt.run([](RuntimeProc& rp) {
    const SpaceId sp = rp.new_space(proto_names::kSC);
    RegionId id = dsm::kInvalidRegion;
    if (rp.me() == 0) id = rp.gmalloc(sp, 8);
    id = rp.bcast_region(id, 0);
    auto* p = static_cast<std::uint64_t*>(rp.map(id));
    std::uint64_t expect = 0;
    std::uint64_t round = 0;
    for (const auto& proto : transition_protocols()) {
      rp.change_protocol(sp, proto);
      round += 1;
      if (rp.me() == 0) {  // home write is legal under every protocol
        rp.start_write(p);
        *p = round;
        rp.end_write(p);
      }
      expect = round;
      rp.ace_barrier(sp);
      if (remote_reads_allowed(proto)) {
        rp.start_read(p);
        EXPECT_EQ(*p, expect) << "after switching to " << proto;
        rp.end_read(p);
      }
      rp.ace_barrier(sp);
    }
  });
}

}  // namespace
