// Per-layer timing of the Ace runtime from outside, for the benchmark's
// traced run.
//
// The applications are templates over the DSM API concept (apps/api.hpp),
// so a wrapper that satisfies the concept and forwards to AceApi times every
// call into the `ace` layer without a change to src/.  Each rank keeps its
// accumulators and latency histograms in one trivially copyable record; the
// worker gathers the records after the run (Machine::gather_blobs on the
// process backend) and reduces them.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>

#include "apps/api.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Latency histogram: log2 octaves, each split into kSub linear
/// sub-buckets, so a quantile is resolved to 1/kSub of its octave.
class Hist {
 public:
  static constexpr unsigned kSubBits = 3;
  static constexpr unsigned kSub = 1u << kSubBits;
  static constexpr unsigned kBuckets = 64 * kSub;

  void add(std::uint64_t ns) { n_[bucket(ns)] += 1; }
  void merge(const Hist& o) {
    for (unsigned b = 0; b < kBuckets; ++b) n_[b] += o.n_[b];
  }

  /// The q-quantile in nanoseconds, interpolated inside its bucket; 0 when
  /// the histogram is empty.
  double quantile_ns(double q) const {
    std::uint64_t total = 0;
    for (const auto c : n_) total += c;
    if (total == 0) return 0;
    const double target = q * static_cast<double>(total);
    double below = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
      if (n_[b] == 0) continue;
      const double c = static_cast<double>(n_[b]);
      if (below + c >= target)
        return static_cast<double>(lower(b)) +
               static_cast<double>(width(b)) * (target - below) / c;
      below += c;
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  // Values below kSub get exact buckets; above, bucket (shift+1)*kSub + sub
  // holds [(kSub+sub) << shift, (kSub+sub+1) << shift).
  static unsigned bucket(std::uint64_t ns) {
    if (ns < kSub) return static_cast<unsigned>(ns);
    const unsigned shift =
        static_cast<unsigned>(63 - std::countl_zero(ns)) - kSubBits;
    const auto sub = static_cast<unsigned>(ns >> shift) & (kSub - 1);
    return (shift + 1) * kSub + sub;
  }
  static std::uint64_t lower(unsigned b) {
    if (b < kSub) return b;
    return (std::uint64_t{kSub} + b % kSub) << (b / kSub - 1);
  }
  static std::uint64_t width(unsigned b) {
    return b < kSub ? 1 : std::uint64_t{1} << (b / kSub - 1);
  }

  std::array<std::uint64_t, kBuckets> n_{};
};

/// The timed call families of the `ace` layer.  kColl is the set-up API:
/// collectives, space creation, protocol changes and allocation.
enum Family : unsigned {
  kRead,
  kWrite,
  kMap,
  kLock,
  kAcqRel,
  kBarrier,
  kColl,
  kFamilies
};
inline constexpr const char* kFamilyName[kFamilies] = {
    "read", "write", "map", "lock", "acqrel", "barrier", "coll"};

struct FamilyAcc {
  /// Opening calls: start_read, start_write, map, lock, acquire and
  /// release, barrier, and every set-up call.
  std::uint64_t calls = 0;
  /// Closing calls: end_read, end_write, unmap, unlock.
  std::uint64_t closes = 0;
  std::uint64_t busy_ns = 0;  ///< time inside both kinds of call
};

/// One rank's record.  Trivially copyable: the process backend ships it
/// between forked ranks of the same binary as raw bytes.
struct RankRecord {
  std::uint64_t body_start_ns = 0;     ///< the SPMD body began
  std::uint64_t first_barrier_ns = 0;  ///< the first barrier returned
  std::uint64_t end_ns = 0;            ///< the SPMD body returned
  std::array<FamilyAcc, kFamilies> fam{};
  Hist read_lat, write_lat, lock_lat;  ///< opening-call latencies
};
static_assert(std::is_trivially_copyable_v<RankRecord>);

/// The Api-concept wrapper.  With kTimed every call is timed into the
/// rank's record; without, the wrapper only stamps the end of the first
/// barrier (where set-up ends and the measured run begins) and otherwise
/// compiles down to AceApi's forwarding.
template <bool kTimed>
class BenchApi {
 public:
  BenchApi(apps::AceApi& in, RankRecord& rec) : in_(in), rec_(rec) {}

  apps::ProcId me() const { return in_.me(); }
  std::uint32_t nprocs() const { return in_.nprocs(); }

  std::uint32_t new_space(const std::string& protocol) {
    [[maybe_unused]] auto s = span(kColl);
    return in_.new_space(protocol);
  }
  void change_protocol(std::uint32_t space, const std::string& protocol) {
    [[maybe_unused]] auto s = span(kColl);
    in_.change_protocol(space, protocol);
  }
  apps::RegionId gmalloc(std::uint32_t space, std::uint32_t size) {
    [[maybe_unused]] auto s = span(kColl);
    return in_.gmalloc(space, size);
  }
  void* map(apps::RegionId id) {
    [[maybe_unused]] auto s = span(kMap);
    return in_.map(id);
  }
  void unmap(void* p) {
    [[maybe_unused]] auto s = span(kMap, /*closing=*/true);
    in_.unmap(p);
  }
  void start_read(void* p) {
    [[maybe_unused]] auto s = span(kRead, false, &rec_.read_lat);
    in_.start_read(p);
  }
  void end_read(void* p) {
    [[maybe_unused]] auto s = span(kRead, true);
    in_.end_read(p);
  }
  void start_write(void* p) {
    [[maybe_unused]] auto s = span(kWrite, false, &rec_.write_lat);
    in_.start_write(p);
  }
  void end_write(void* p) {
    [[maybe_unused]] auto s = span(kWrite, true);
    in_.end_write(p);
  }
  void barrier(std::uint32_t space) {
    {
      [[maybe_unused]] auto s = span(kBarrier);
      in_.barrier(space);
    }
    if (rec_.first_barrier_ns == 0) rec_.first_barrier_ns = now_ns();
  }
  void lock(void* p) {
    [[maybe_unused]] auto s = span(kLock, false, &rec_.lock_lat);
    in_.lock(p);
  }
  void unlock(void* p) {
    [[maybe_unused]] auto s = span(kLock, true);
    in_.unlock(p);
  }
  void acquire(std::uint32_t space) {
    [[maybe_unused]] auto s = span(kAcqRel);
    in_.acquire(space);
  }
  void release(std::uint32_t space) {
    [[maybe_unused]] auto s = span(kAcqRel);
    in_.release(space);
  }

  apps::RegionId bcast_region(apps::RegionId id, apps::ProcId root) {
    [[maybe_unused]] auto s = span(kColl);
    return in_.bcast_region(id, root);
  }
  void bcast_bytes(void* data, std::uint32_t n, apps::ProcId root) {
    [[maybe_unused]] auto s = span(kColl);
    in_.bcast_bytes(data, n, root);
  }
  double allreduce_sum(double v) {
    [[maybe_unused]] auto s = span(kColl);
    return in_.allreduce_sum(v);
  }
  std::uint64_t allreduce_min(std::uint64_t v) {
    [[maybe_unused]] auto s = span(kColl);
    return in_.allreduce_min(v);
  }
  // The modeled-clock charge is a few nanoseconds of application
  // bookkeeping, so it stays inside apps.compute_s.
  void charge_compute(std::uint64_t ns) { in_.charge_compute(ns); }
  void auto_advise(std::uint32_t space, ace::adapt::AdvisorOptions opts = {}) {
    [[maybe_unused]] auto s = span(kColl);
    in_.auto_advise(space, std::move(opts));
  }

 private:
  /// Times one call, from construction to destruction (which runs after
  /// the callee's return value is built).
  struct Span {
    RankRecord* rec;
    Family fam;
    bool closing;
    Hist* lat;
    std::uint64_t t0;
    ~Span() {
      const std::uint64_t d = now_ns() - t0;
      FamilyAcc& a = rec->fam[fam];
      (closing ? a.closes : a.calls) += 1;
      a.busy_ns += d;
      if (lat != nullptr) lat->add(d);
    }
  };
  struct NoSpan {};

  auto span(Family fam, bool closing = false, Hist* lat = nullptr) {
    if constexpr (kTimed) {
      return Span{&rec_, fam, closing, lat, now_ns()};
    } else {
      (void)fam, (void)closing, (void)lat;
      return NoSpan{};
    }
  }

  apps::AceApi& in_;
  RankRecord& rec_;
};

}  // namespace perfbench
