// The adaptive protocol advisor: closing the loop from per-space metrics to
// automatic Ace_ChangeProtocol.
//
// The paper's position is that the *programmer* picks a protocol per data
// structure, guided by measurement (§5).  This subsystem automates the
// measurement half of that loop: an Advisor attached to a space samples the
// access stream through the SpaceObserver seam, reduces the samples into a
// machine-wide Signature at barrier epochs, asks the cost model what every
// registered candidate protocol would have cost, and — when a candidate
// beats the installed protocol by more than the hysteresis margin plus the
// modeled switch cost — either recommends or executes Ace_ChangeProtocol.
//
// Determinism and collective safety are the design constraints:
//   * every decision input is globally reduced with order-free integer
//     reductions, so all processors compute the identical decision and can
//     issue the (collective) protocol change together without extra
//     coordination;
//   * decisions happen only in on_barrier — after the space's protocol
//     barrier, when every processor sits at the same epoch — so the switch
//     lands on a quiescent space;
//   * the same seed / same run reproduces the same switch sequence, which
//     the chaos fuzzer (tools/acefuzz.cpp) verifies under adversarial
//     message schedules.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ace/runtime.hpp"
#include "adapt/signature.hpp"

namespace ace::adapt {

struct AdvisorOptions {
  /// Protocols to choose between.  Empty = every registered protocol whose
  /// cost descriptor says `advisable yes`.  Naming a protocol explicitly
  /// overrides the advisable gate (that is how Null can be opted in), but
  /// never the safety gate: owner-computes protocols are still excluded
  /// while remote writes are observed.
  std::vector<std::string> candidates;
  /// true: execute Ace_ChangeProtocol when a switch wins.  false: record
  /// the recommendation only (adapt::advise mode).
  bool execute = true;
  /// First decision after this many barrier epochs; the window doubles on
  /// every "hold" decision up to max_window (each decision costs two
  /// machine-wide reductions, so steady-state sampling backs off), and
  /// resets to min_window after a switch (fast re-evaluation).
  std::uint32_t min_window = 2;
  std::uint32_t max_window = 128;
  /// A challenger must be predicted better than hysteresis * its own cost
  /// plus the modeled switch cost before the advisor moves (anti-flap).
  double hysteresis = 1.25;
  /// Decision points to sit out after a switch (the fresh protocol's cold
  /// misses would otherwise bias the next window against it).
  std::uint32_t cooldown = 1;
};

/// One candidate's prediction at a decision point.
struct CandidateCost {
  std::string protocol;
  double predicted_ns = 0;
  bool feasible = true;
};

/// One decision, recorded identically on every processor.
struct Decision {
  std::uint64_t epoch = 0;      ///< global barrier epoch of the decision
  std::uint32_t window = 0;     ///< epochs the signature covers
  std::string current;          ///< protocol installed during the window
  std::string chosen;           ///< winner (== current on hold)
  std::string reason;           ///< "switch", "hold", "hysteresis",
                                ///< "cooldown", "advise-only",
                                ///< "insufficient-signal" (window saw no
                                ///< producer/consumer pair)
  bool switched = false;        ///< an Ace_ChangeProtocol was executed
  std::uint64_t measured_ns = 0;  ///< measured window time (critical path)
  Signature sig;                ///< the reduced machine-wide signature
  std::vector<CandidateCost> costs;  ///< per-candidate predictions
};

/// The sampler + policy engine, attached per (processor, space).
class Advisor : public SpaceObserver {
 public:
  Advisor(RuntimeProc& rp, SpaceId space, AdvisorOptions opts);

  void on_read(Region& r) override;
  void on_write(Region& r) override;
  void on_barrier(SpaceId s) override;
  void on_protocol_change(SpaceId s, const std::string& protocol) override;

  const AdvisorOptions& options() const { return opts_; }
  /// Decisions taken so far (identical on every processor).
  const std::vector<Decision>& decisions() const { return decisions_; }
  /// Total switches executed.
  std::uint32_t switches() const { return switches_; }

 private:
  void decide();
  void reset_window();
  Signature local_signature() const;

  RuntimeProc& rp_;
  SpaceId space_;
  AdvisorOptions opts_;

  // Window accumulation (this processor's share; reduced in decide()).
  std::uint64_t reads_ = 0, writes_ = 0;
  std::uint64_t remote_reads_ = 0, remote_writes_ = 0;
  std::uint64_t write_runs_ = 0;
  RegionId cur_run_region_ = dsm::kInvalidRegion;
  struct Touched {
    std::uint32_t size = 0;
    bool remote_read = false;  ///< read here, homed elsewhere (sharer pair)
    bool home = false;         ///< homed on this processor
  };
  std::map<RegionId, Touched> touched_;
  std::uint32_t epoch_in_window_ = 0;
  std::uint64_t window_start_ns_ = 0;
  // Segment counters at window start (deltas give the window's misses and
  // message traffic); re-baselined when a protocol change opens a segment.
  DsmStats base_dsm_;
  std::uint64_t base_msgs_ = 0, base_bytes_ = 0;

  // Policy state.
  std::uint32_t window_;
  std::uint32_t cooldown_left_ = 0;
  std::uint64_t total_epochs_ = 0;
  std::uint32_t switches_ = 0;
  std::vector<Decision> decisions_;
};

/// Create a space with an Advisor attached in execute mode.  Collective:
/// call on every processor with the same arguments.  One-line forward to
/// new_space(rp, SpaceOptions) — kept for the Table-2-style name.
SpaceId auto_space(RuntimeProc& rp, const std::string& initial_protocol,
                   AdvisorOptions opts = {});

/// Attach an Advisor with the given options to an existing space (replacing
/// any previous observer).  Collective, like auto_space.
Advisor* attach(RuntimeProc& rp, SpaceId space, AdvisorOptions opts = {});

/// Attach an Advisor in record-only mode to an existing space (the advisor
/// logs what it *would* switch to; the application stays in charge).
/// Collective, like auto_space.
Advisor* advise(RuntimeProc& rp, SpaceId space, AdvisorOptions opts = {});

/// The Advisor attached to `space` on processor `proc` (nullptr if none).
/// Post-run analysis entry point.
Advisor* find_advisor(Runtime& rt, SpaceId space, ProcId proc = 0);

/// All advised spaces' decision logs (from processor 0's advisors, which
/// are identical to every other processor's by construction).
struct SpaceDecisions {
  SpaceId space = 0;
  bool execute = true;
  std::uint32_t nprocs = 0;  ///< machine size (offline replay needs it)
  std::vector<Decision> decisions;
};
std::vector<SpaceDecisions> collect_decisions(Runtime& rt);

/// Serialize decision logs as the ADVISOR_<tag>.json document.
std::string report_json(const std::string& tag,
                        const std::vector<SpaceDecisions>& spaces);
/// Write ADVISOR_<tag>.json to `dir` (default the working directory).
/// Returns the path written, or empty on I/O failure.
std::string write_report(const std::string& tag,
                         const std::vector<SpaceDecisions>& spaces,
                         const std::string& dir = ".");

}  // namespace ace::adapt

namespace ace {

/// The consolidated space-creation surface: one options struct consumed by
/// a single Ace_NewSpace overload covers plain, advised and auto spaces
/// (`Ace_NewSpace({.advisor = SpaceOptions::Advisor::kAuto})`).  To attach
/// a record-only advisor to an existing space, call adapt::advise.
/// Collective: call on every processor with the same options.
struct SpaceOptions {
  /// Initial protocol (registry name, see ace/registry.hpp).
  std::string protocol = proto_names::kSC;
  enum class Advisor : std::uint8_t {
    kOff,     ///< plain space, no advisor
    kAdvise,  ///< record-only advisor attached (adapt::advise semantics)
    kAuto,    ///< executing advisor attached (adapt::auto_space semantics)
  };
  Advisor advisor = Advisor::kOff;
  /// Sampling/policy knobs; only consulted when advisor != kOff.
  adapt::AdvisorOptions advisor_options{};
};

/// Create a space per `opts` (the one true entry point).
SpaceId Ace_NewSpace(const SpaceOptions& opts);

}  // namespace ace

namespace ace::adapt {

/// The RuntimeProc-level implementation behind Ace_NewSpace(SpaceOptions).
SpaceId new_space(RuntimeProc& rp, const SpaceOptions& opts);

}  // namespace ace::adapt
