// Tests for the observability layer (src/obs/): event rings, per-space
// metric segments, Chrome trace export, and the two properties the layer
// promises the experiments — per-space counters that sum to the machine
// totals, and tracing that does not perturb modeled time.

#include <gtest/gtest.h>

#include <memory>

#include <cctype>
#include <string>
#include <string_view>

#include "ace/runtime.hpp"
#include "bench/harness.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace ace;

struct Fixture {
  std::unique_ptr<am::Machine> machine_ptr;
  am::Machine& machine;
  Runtime rt;
  explicit Fixture(std::uint32_t procs)
      : machine_ptr(am::Machine::create({.nprocs = procs})),
        machine(*machine_ptr),
        rt(machine) {}
};

// --- a mini JSON well-formedness checker (recursive descent, no values
// retained) so trace/bench exports are validated without a JSON library ----

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- TraceRing ------------------------------------------------------------

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  obs::TraceRing r(5);
  EXPECT_EQ(r.capacity(), 8u);
  EXPECT_EQ(obs::TraceRing(8).capacity(), 8u);
  EXPECT_EQ(obs::TraceRing(1).capacity(), 2u);  // minimum capacity is 2
}

TEST(TraceRing, WraparoundKeepsNewestCountsDropped) {
  obs::TraceRing r(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    obs::Event e;
    e.ts_ns = i;
    e.kind = obs::EventKind::kMap;
    r.record(e);
  }
  EXPECT_EQ(r.total(), 20u);
  EXPECT_EQ(r.size(), 8u);
  EXPECT_EQ(r.dropped(), 12u);
  // Oldest-first iteration yields ts 12..19.
  for (std::size_t i = 0; i < r.size(); ++i)
    EXPECT_EQ(r.at(i).ts_ns, 12 + i);
  r.clear();
  EXPECT_EQ(r.total(), 0u);
  EXPECT_EQ(r.size(), 0u);
}

// --- JsonWriter -----------------------------------------------------------

TEST(JsonWriter, NestedDocumentIsWellFormed) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("name", std::string("a\"b\\c\nd"));
  w.kv("count", std::uint64_t{42});
  w.kv("ratio", 2.5);
  w.kv("flag", true);
  w.key("rows");
  w.begin_array();
  w.begin_object();
  w.kv("x", 1);
  w.end_object();
  w.value(std::uint64_t{7});
  w.end_array();
  w.end_object();
  const std::string doc = std::move(w).str();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"a\\\"b\\\\c\\nd\""), std::string::npos) << doc;
}

// --- per-space metric segments --------------------------------------------

TEST(Obs, PerSpaceAttributionSeparatesSpaces) {
  Fixture f(2);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId s1 = rp.new_space(proto_names::kSC);
    const SpaceId s2 = rp.new_space(proto_names::kSC);
    RegionId id1 = 0, id2 = 0;
    if (rp.me() == 0) {
      id1 = rp.gmalloc(s1, 64);
      id2 = rp.gmalloc(s2, 64);
    }
    id1 = rp.bcast_region(id1, 0);
    id2 = rp.bcast_region(id2, 0);
    void* p1 = rp.map(id1);
    void* p2 = rp.map(id2);
    // 3 reads in s1, 1 read in s2 — attribution must not mix them.
    for (int i = 0; i < 3; ++i) {
      rp.start_read(p1);
      rp.end_read(p1);
    }
    rp.start_read(p2);
    rp.end_read(p2);
    rp.unmap(p1);
    rp.unmap(p2);
    rp.proc().barrier();
  });

  const auto rows = f.rt.aggregate_space_metrics();
  const obs::SpaceMetrics* m1 = nullptr;
  const obs::SpaceMetrics* m2 = nullptr;
  for (const auto& m : rows) {
    if (m.space == 1) m1 = &m;
    if (m.space == 2) m2 = &m;
  }
  ASSERT_NE(m1, nullptr);
  ASSERT_NE(m2, nullptr);
  EXPECT_EQ(m1->protocol, proto_names::kSC);
  EXPECT_EQ(m1->dsm.start_reads, 6u);  // 3 per proc, 2 procs
  EXPECT_EQ(m2->dsm.start_reads, 2u);
  EXPECT_EQ(m1->dsm.gmallocs, 1u);
  EXPECT_EQ(m2->dsm.gmallocs, 1u);
}

TEST(Obs, ChangeProtocolOpensNewSegment) {
  Fixture f(2);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId s = rp.new_space(proto_names::kSC);
    RegionId id = 0;
    if (rp.me() == 0) id = rp.gmalloc(s, 32);
    id = rp.bcast_region(id, 0);
    void* p = rp.map(id);
    rp.start_read(p);
    rp.end_read(p);
    rp.ace_barrier(s);
    if (rp.me() == 1) {
      // Leave a Modified remote copy so the switch has something to flush.
      rp.start_write(p);
      static_cast<char*>(p)[0] = 1;
      rp.end_write(p);
    }
    rp.change_protocol(s, proto_names::kDynamicUpdate);
    rp.start_read(p);
    rp.end_read(p);
    rp.start_read(p);
    rp.end_read(p);
    rp.unmap(p);
    rp.proc().barrier();
  });

  const auto rows = f.rt.aggregate_space_metrics();
  const obs::SpaceMetrics* sc = nullptr;
  const obs::SpaceMetrics* dyn = nullptr;
  for (const auto& m : rows) {
    if (m.space != 1) continue;
    if (m.protocol == proto_names::kSC) sc = &m;
    if (m.protocol == proto_names::kDynamicUpdate) dyn = &m;
  }
  ASSERT_NE(sc, nullptr);
  ASSERT_NE(dyn, nullptr);
  EXPECT_EQ(sc->dsm.start_reads, 2u);   // one per proc before the switch
  EXPECT_EQ(dyn->dsm.start_reads, 4u);  // two per proc after
  EXPECT_EQ(sc->dsm.start_writes, 1u);  // proc 1's pre-switch write
  // The ChangeProtocol flush is charged to the outgoing protocol's segment.
  EXPECT_EQ(sc->dsm.flushes, 1u);  // proc 1's Modified copy
  EXPECT_EQ(dyn->dsm.flushes, 0u);
}

TEST(Obs, SegmentsSumToMachineTotals) {
  Fixture f(4);
  f.rt.run([](RuntimeProc& rp) {
    const SpaceId s = rp.new_space(proto_names::kDynamicUpdate);
    RegionId id = 0;
    if (rp.me() == 0) id = rp.gmalloc(s, 128);
    id = rp.bcast_region(id, 0);
    void* p = rp.map(id);
    for (int i = 0; i < 4; ++i) {
      if (rp.me() == 0) {
        rp.start_write(p);
        static_cast<std::uint8_t*>(p)[0] += 1;
        rp.end_write(p);
      }
      rp.ace_barrier(s);
      rp.start_read(p);
      rp.end_read(p);
      rp.ace_barrier(s);
    }
    rp.unmap(p);
    rp.proc().barrier();
  });

  const DsmStats total = f.rt.aggregate_dstats();
  DsmStats summed;
  for (const auto& m : f.rt.aggregate_space_metrics()) summed.merge(m.dsm);
  for (const auto& [name, field] : kDsmFields)
    EXPECT_EQ(summed.*field, total.*field) << name;
}

TEST(Obs, MergeByKeyMergesReinstalledProtocol) {
  std::vector<obs::SpaceMetrics> segs(3);
  segs[0].space = 1;
  segs[0].protocol = "A";
  segs[0].dsm.start_reads = 1;
  segs[1].space = 1;
  segs[1].protocol = "B";
  segs[1].dsm.start_reads = 2;
  segs[2].space = 1;
  segs[2].protocol = "A";  // A re-installed after B
  segs[2].dsm.start_reads = 4;
  const auto merged = obs::merge_by_key(segs);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].protocol, "A");
  EXPECT_EQ(merged[0].dsm.start_reads, 5u);
  EXPECT_EQ(merged[1].protocol, "B");
  EXPECT_EQ(merged[1].dsm.start_reads, 2u);
}

// --- tracing --------------------------------------------------------------

TEST(Obs, TraceRecordsDsmAndTransportEvents) {
#if !ACE_OBS_TRACE
  GTEST_SKIP() << "trace points compiled out (ACE_OBS_TRACE=0)";
#endif
  Fixture f(2);
  f.machine.enable_tracing(1u << 12);
  ASSERT_TRUE(f.machine.tracing());
  f.rt.run([](RuntimeProc& rp) {
    RegionId id = 0;
    if (rp.me() == 0) id = rp.gmalloc(kDefaultSpace, 64);
    id = rp.bcast_region(id, 0);
    void* p = rp.map(id);
    rp.start_read(p);
    rp.end_read(p);
    rp.unmap(p);
    rp.proc().barrier();
  });

  std::uint64_t dsm_events = 0, am_events = 0;
  for (const auto& pt : f.machine.traces()) {
    for (std::size_t i = 0; i < pt.ring->size(); ++i) {
      const obs::Event& e = pt.ring->at(i);
      if (e.kind == obs::EventKind::kStartRead) {
        ++dsm_events;
        EXPECT_EQ(e.space, kDefaultSpace);
      }
      if (e.kind == obs::EventKind::kAmSend ||
          e.kind == obs::EventKind::kAmDispatch)
        ++am_events;
      // Events land in completion order with their start timestamp, so
      // *end* times (ts + dur) are monotone per ring; start times are not
      // (an enclosing span completes after the events nested inside it).
      if (i > 0) {
        EXPECT_GE(e.ts_ns + e.dur_ns,
                  pt.ring->at(i - 1).ts_ns + pt.ring->at(i - 1).dur_ns);
      }
    }
  }
  EXPECT_EQ(dsm_events, 2u);  // one start_read per proc
  EXPECT_GT(am_events, 0u);
  f.machine.disable_tracing();
  EXPECT_FALSE(f.machine.tracing());
}

TEST(Obs, ChromeTraceJsonIsWellFormed) {
#if !ACE_OBS_TRACE
  GTEST_SKIP() << "trace points compiled out (ACE_OBS_TRACE=0)";
#endif
  Fixture f(2);
  f.machine.enable_tracing(1u << 12);
  f.rt.run([](RuntimeProc& rp) {
    RegionId id = 0;
    if (rp.me() == 0) id = rp.gmalloc(kDefaultSpace, 64);
    id = rp.bcast_region(id, 0);
    void* p = rp.map(id);
    rp.start_write(p);
    static_cast<char*>(p)[0] = 1;
    rp.end_write(p);
    rp.unmap(p);
    rp.proc().barrier();
  });

  const std::string doc = obs::chrome_trace_json(f.machine.traces());
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc.substr(0, 400);
  // The format markers Perfetto keys on.
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("start_write"), std::string::npos);
}

TEST(Obs, TracingDoesNotPerturbModeledTimeOrStats) {
  // The whole design constraint: stamped from the virtual clock, charging
  // nothing to it.  Two identical runs, tracing on vs off, must agree on
  // modeled time and every counter bit-for-bit.
  auto workload = [](RuntimeProc& rp) {
    const SpaceId s = rp.new_space(proto_names::kSC);
    RegionId id = 0;
    if (rp.me() == 0) id = rp.gmalloc(s, 256);
    id = rp.bcast_region(id, 0);
    void* p = rp.map(id);
    for (int i = 0; i < 8; ++i) {
      if (rp.me() == static_cast<am::ProcId>(i % 2)) {
        rp.start_write(p);
        static_cast<std::uint8_t*>(p)[0] += 1;
        rp.end_write(p);
      }
      rp.ace_barrier(s);
      rp.start_read(p);
      rp.end_read(p);
      rp.ace_barrier(s);
    }
    rp.unmap(p);
    rp.proc().barrier();
  };

  Fixture off(2);
  off.rt.run(workload);

  Fixture on(2);
  on.machine.enable_tracing();
  on.rt.run(workload);

  EXPECT_EQ(off.machine.max_vclock_ns(), on.machine.max_vclock_ns());
  // Every counter, except the three that count host scheduling (how often
  // a processor polled, swept or slept before its mail arrived).
  const auto s_off = off.machine.aggregate_stats();
  const auto s_on = on.machine.aggregate_stats();
  for (const auto& [name, field] : am::kStatsFields) {
    const std::string_view n = name;
    if (n == "polls" || n == "sweeps" || n == "sleeps") continue;
    EXPECT_EQ(s_off.*field, s_on.*field) << name;
  }
  const auto d_off = off.rt.aggregate_dstats();
  const auto d_on = on.rt.aggregate_dstats();
  for (const auto& [name, field] : kDsmFields)
    EXPECT_EQ(d_off.*field, d_on.*field) << name;
}

// --- bench harness serialization ------------------------------------------

TEST(Obs, BenchJsonIsWellFormedAndCarriesSpaces) {
  bench::RunResult res;
  res.modeled_s = 0.125;
  res.wall_s = 0.5;
  res.am.msgs_sent = 1000;
  res.am.bytes_sent = 1'500'000;
  obs::SpaceMetrics m;
  m.space = 1;
  m.protocol = proto_names::kDynamicUpdate;
  m.dsm.start_reads = 10;
  m.dsm.read_misses = 2;
  m.msgs = 40;
  m.bytes = 4096;
  res.spaces.push_back(m);

  const std::string doc = bench::to_json("unit", {{"em3d", "Ace", res}});
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"bench\":\"unit\""), std::string::npos);
  EXPECT_NE(doc.find("\"modeled_s\":0.125"), std::string::npos);
  EXPECT_NE(doc.find("\"protocol\":\"" + std::string(proto_names::kDynamicUpdate) +
                     "\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"read_misses\":2"), std::string::npos);
  // `msgs` and `mbytes` stay next to the table keys.
  EXPECT_NE(doc.find("\"msgs\":1000"), std::string::npos);
  EXPECT_NE(doc.find("\"mbytes\":1.5"), std::string::npos);
  // Every counter the runtime keeps reaches the row.
  for (const auto& [name, field] : am::kStatsFields)
    EXPECT_NE(doc.find("\"" + std::string(name) + "\":"), std::string::npos)
        << name;
  for (const auto& [name, field] : kDsmFields)
    EXPECT_NE(doc.find("\"" + std::string(name) + "\":"), std::string::npos)
        << name;
}

// --- collectives (bcast_region / allreduce_min) ---------------------------

TEST(Collectives, BcastRegionDeliversSameIdEverywhere) {
  Fixture f(4);
  std::vector<RegionId> got(4);
  f.rt.run([&](RuntimeProc& rp) {
    RegionId id = 0;
    if (rp.me() == 2) id = rp.gmalloc(kDefaultSpace, 16);
    got[rp.me()] = rp.bcast_region(id, 2);
    // Every processor can map the broadcast region and read it.
    void* p = rp.map(got[rp.me()]);
    rp.start_read(p);
    rp.end_read(p);
    rp.unmap(p);
    rp.proc().barrier();
  });
  for (auto id : got) EXPECT_EQ(id, got[2]);
  EXPECT_NE(got[0], dsm::kInvalidRegion);
}

TEST(Collectives, AllreduceMinFindsGlobalMinimum) {
  Fixture f(4);
  std::vector<std::uint64_t> got(4);
  f.rt.run([&](RuntimeProc& rp) {
    // Proc p contributes 100 - 10*p: the max proc holds the min value.
    const std::uint64_t mine = 100 - 10 * rp.me();
    got[rp.me()] = rp.allreduce_min(mine);
    rp.proc().barrier();
  });
  for (auto v : got) EXPECT_EQ(v, 70u);
}

TEST(Collectives, AllreduceMinIsRepeatable) {
  Fixture f(3);
  f.rt.run([](RuntimeProc& rp) {
    EXPECT_EQ(rp.allreduce_min(rp.me() + 5), 5u);
    EXPECT_EQ(rp.allreduce_min(100 + rp.me()), 100u);
    EXPECT_EQ(rp.allreduce_min(rp.me() == 1 ? 1 : UINT64_MAX), 1u);
    rp.proc().barrier();
  });
}

}  // namespace
