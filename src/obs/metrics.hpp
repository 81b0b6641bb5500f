// Per-(space, protocol) metrics.
//
// The paper's whole argument is quantitative: a customized protocol buys
// fewer messages, fewer misses, fewer bytes for the data structure it is
// tailored to (§5).  Machine-wide totals cannot attribute those savings, so
// the runtime keeps one counter segment per (space, protocol-installation):
// Ace_NewSpace opens a segment, Ace_ChangeProtocol closes the old protocol's
// segment and opens a fresh one, and every DSM operation and protocol
// message is charged to the segment of the space it touched.  Aggregation
// merges segments with the same (space, protocol) key across processors and
// protocol re-installations.
//
// This header is the bottom of the observability layer: it depends on
// nothing above the standard library, so both the Ace runtime and the bench
// harness can include it without cycles.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace ace {

using SpaceId = std::uint32_t;

/// DSM-level operation counters.  These are the quantities the paper's
/// protocols trade against each other; the bench harnesses print them next
/// to modeled/wall time.  One instance per (space, protocol) segment per
/// processor; aggregated after a run.
struct DsmStats {
  std::uint64_t gmallocs = 0;
  std::uint64_t maps = 0;
  std::uint64_t map_meta_misses = 0;
  std::uint64_t unmaps = 0;
  std::uint64_t start_reads = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t start_writes = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t barriers = 0;
  std::uint64_t locks = 0;
  std::uint64_t unlocks = 0;
  std::uint64_t invalidations = 0;  ///< INV messages sent (home side)
  std::uint64_t recalls = 0;        ///< owner recalls issued (home side)
  std::uint64_t updates = 0;        ///< update/push data messages sent
  std::uint64_t fetches = 0;        ///< data fetch replies served (home side)
  std::uint64_t flushes = 0;        ///< regions flushed by ChangeProtocol
  std::uint64_t acquires = 0;       ///< Ace_Acquire calls
  std::uint64_t releases = 0;       ///< Ace_Release calls
  std::uint64_t writebacks = 0;     ///< dirty copies written back (SI/SD)

  void merge(const DsmStats& o);
  bool operator==(const DsmStats&) const = default;
};

/// Every DsmStats field with its name, in declaration order: the one list
/// that merge, the BENCH writer and the tests iterate.  The static_assert
/// makes a new counter a compile error until it is listed here.
inline constexpr std::pair<const char*, std::uint64_t DsmStats::*>
    kDsmFields[] = {
        {"gmallocs", &DsmStats::gmallocs},
        {"maps", &DsmStats::maps},
        {"map_meta_misses", &DsmStats::map_meta_misses},
        {"unmaps", &DsmStats::unmaps},
        {"start_reads", &DsmStats::start_reads},
        {"read_misses", &DsmStats::read_misses},
        {"start_writes", &DsmStats::start_writes},
        {"write_misses", &DsmStats::write_misses},
        {"barriers", &DsmStats::barriers},
        {"locks", &DsmStats::locks},
        {"unlocks", &DsmStats::unlocks},
        {"invalidations", &DsmStats::invalidations},
        {"recalls", &DsmStats::recalls},
        {"updates", &DsmStats::updates},
        {"fetches", &DsmStats::fetches},
        {"flushes", &DsmStats::flushes},
        {"acquires", &DsmStats::acquires},
        {"releases", &DsmStats::releases},
        {"writebacks", &DsmStats::writebacks},
};
static_assert(sizeof(DsmStats) ==
              std::size(kDsmFields) * sizeof(std::uint64_t));

inline void DsmStats::merge(const DsmStats& o) {
  for (const auto& [name, field] : kDsmFields) this->*field += o.*field;
}

namespace obs {

/// One (space, protocol) counter segment: the DSM op counters plus the
/// active-message traffic the runtime attributed to the space (protocol
/// messages, miss fetches, lock and map metadata traffic — collectives and
/// barrier control traffic are machine-level and stay unattributed).
struct SpaceMetrics {
  SpaceId space = 0;
  std::string protocol;
  DsmStats dsm;
  std::uint64_t msgs = 0;   ///< AM messages sent on behalf of this space
  std::uint64_t bytes = 0;  ///< payload bytes in those messages

  void merge_counters(const SpaceMetrics& o) {
    dsm.merge(o.dsm);
    msgs += o.msgs;
    bytes += o.bytes;
  }
};

/// Merge segments by (space, protocol), preserving first-appearance order.
/// Input order is (proc-major, segment-minor); a space that ran protocol A,
/// switched to B, and back to A yields two rows: (A with both A segments
/// merged) then (B).
std::vector<SpaceMetrics> merge_by_key(const std::vector<SpaceMetrics>& segs);

}  // namespace obs
}  // namespace ace
