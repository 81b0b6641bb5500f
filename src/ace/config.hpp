// The system configuration file (§3.2, Figure 1).
//
// In the paper, a protocol designer registers a protocol by running a Tcl/Tk
// script; the script emits a *system configuration file* naming the
// protocol, the access/synchronization points at which its routines must be
// invoked, and whether calls to it may be optimized.  The Ace compiler reads
// this file to learn the available protocols, derive handler names, drive
// its direct-call pass, and delete calls to null handlers.
//
// Here the configuration is a small text format with the same fields:
//
//   protocol SC {
//     start_read yes; end_read yes; start_write yes; end_write yes;
//     barrier yes; lock yes; unlock yes;
//     optimizable no;
//   }
//
// `parse_config` turns it into ProtocolInfo records; `default_config_text`
// is the configuration for the shipped protocol library (checked against
// the block derivations and the bespoke protocols' static_info() by
// Registry::with_builtins).  src/acec consumes the parsed result.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ace/protocol.hpp"

namespace ace {

struct ConfigError {
  std::string message;
  int line = 0;
};

/// Parse a configuration text.  On error, returns an empty vector and fills
/// *err.  Unknown keys are errors (a typo would otherwise silently change
/// which compiler optimizations are legal).
std::vector<ProtocolInfo> parse_config(std::string_view text,
                                       ConfigError* err);

/// The configuration describing the shipped protocol library (what the
/// registration scripts of all built-in protocols would have emitted).
std::string default_config_text();

/// Render ProtocolInfo records back to the file format (round-trips through
/// parse_config).
std::string render_config(const std::vector<ProtocolInfo>& infos);

/// The configuration-file identifier for a write policy ("invalidate",
/// "push_on_write", ...).
const char* to_string(WritePolicy p);

}  // namespace ace
