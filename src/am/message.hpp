// Active-Message representation.
//
// Mirrors the CM-5 CMAML model the paper's runtime targets (§1: "Ace is
// portable to any system that supports an Active Messages mechanism"): a
// message names a handler to run at the destination, carries a handful of
// word-sized arguments, and optionally a bulk payload (the CM-5's scopy path).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "am/payload.hpp"

namespace ace::am {

using HandlerId = std::uint32_t;
using ProcId = std::uint32_t;

struct Message {
  HandlerId handler = 0;
  ProcId src = 0;
  /// Word arguments, by convention: args[0..] are protocol-defined.
  std::array<std::uint64_t, 6> args{};
  /// Bulk payload (region data).  Empty for control messages.  A refcounted
  /// pooled buffer: copying the Message shares the bytes (see am/payload.hpp
  /// for the ownership rules — handlers treat payloads as immutable).
  PayloadRef payload;
  /// Virtual time at which the message left the sender (ns); used by the
  /// cost model to order delivery against the receiver's clock.
  std::uint64_t send_vtime_ns = 0;
  /// Sender-assigned sequence number.  (src, seq) names a message uniquely at
  /// its destination; delivery policies key their decisions and logs on it.
  /// Numbers are dense per (src, dst, origin) starting at 1, where the origin
  /// is the sender's program or the handlers it runs (those numbers carry
  /// kHandlerSeqBit): each origin's sends to one destination are ordered by
  /// program order or by dispatch order, both of which a replay reproduces,
  /// but how the two interleave depends on when the host thread polls.
  std::uint64_t seq = 0;
  /// Receiver-assigned arrival index (stamped under the mailbox lock), the
  /// total order delivery policies perturb and the deadlock report shows.
  std::uint64_t arrival = 0;
};

/// Set in Message::seq on sends made while a handler runs (see Message::seq).
inline constexpr std::uint64_t kHandlerSeqBit = std::uint64_t{1} << 63;

/// One delivered message as recorded by a logging DeliveryPolicy (see
/// am/delivery.hpp).  (src, seq) identifies the message; handler is kept as
/// a cross-check; jitter_ns is the extra modeled latency the policy charged
/// so a replay reproduces virtual clocks bit-for-bit.
struct DeliveryRecord {
  ProcId src = 0;
  std::uint64_t seq = 0;
  HandlerId handler = 0;
  std::uint64_t jitter_ns = 0;
};

/// One processor's deliveries, in dispatch order.
using DeliveryLog = std::vector<DeliveryRecord>;

}  // namespace ace::am
