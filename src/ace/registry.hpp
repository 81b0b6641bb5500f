// Protocol registry — the runtime half of the paper's registration scheme.
//
// In the paper, a protocol is added by running a Tcl script that records the
// protocol's name, its hook points, and its optimizability into a *system
// configuration file*; the compiler reads that file to know the available
// protocols and their handler names (Figure 1).  Here the registry plays the
// runtime role (name -> factory + ProtocolInfo) and ace/config.hpp plays the
// file role: the shipped `protocols.cfg` is parsed into the same ProtocolInfo
// records and cross-checked against the registry in tests, and the compiler
// (src/acec) consumes the parsed configuration for its direct-call pass.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ace/protocol.hpp"

namespace ace {

class RuntimeProc;

class Registry {
 public:
  using Factory =
      std::function<std::unique_ptr<Protocol>(RuntimeProc&, std::uint32_t)>;

  /// Register a protocol.  `info.name` is the lookup key; registering a
  /// duplicate name is a configuration error.
  void add(ProtocolInfo info, Factory factory);

  /// Register a block composition under `name`: the ProtocolInfo (hook
  /// bits, cost descriptor) is derived from the blocks and the factory
  /// builds a protocols::ComposedProtocol.  ACE_CHECKs stack legality.
  void add_stack(const std::string& name, const StackSpec& stack);

  /// Register an already-derived composed ProtocolInfo (info.composed must
  /// be set).  with_builtins uses this after verifying declared-vs-derived.
  void add_composed(ProtocolInfo info);

  bool contains(const std::string& name) const;
  const ProtocolInfo& info(const std::string& name) const;
  std::vector<std::string> names() const;

  std::unique_ptr<Protocol> create(const std::string& name, RuntimeProc& rp,
                                   std::uint32_t space_id) const;

  /// A registry pre-loaded with the protocol library shipped with Ace,
  /// driven by the system configuration file (default_config_text): `stack`
  /// entries — SC, Null, DynamicUpdate, StaticUpdate, Migratory, HomeWrite,
  /// StaticInvalidate, WriteThrough, SelfInvalidate,
  /// SelfInvalidateDowngrade — synthesize ComposedProtocol factories from
  /// their blocks; `protocol` entries — PipelinedWrite, Counter, RaceCheck —
  /// bind the bespoke implementations.  Every declared fact is cross-checked
  /// against the block derivation (stacks) or the implementation's
  /// static_info (bespoke).  tests/data/PROTOCOL_golden.json pins the
  /// registration facts and run-time counters of the first six stacks.
  static Registry with_builtins();

 private:
  struct Entry {
    ProtocolInfo info;
    Factory factory;
  };
  std::map<std::string, Entry> entries_;
};

/// Canonical protocol names (string keys into the registry and the config).
namespace proto_names {
inline constexpr const char* kSC = "SC";
inline constexpr const char* kNull = "Null";
inline constexpr const char* kDynamicUpdate = "DynamicUpdate";
inline constexpr const char* kStaticUpdate = "StaticUpdate";
inline constexpr const char* kMigratory = "Migratory";
inline constexpr const char* kHomeWrite = "HomeWrite";
inline constexpr const char* kPipelinedWrite = "PipelinedWrite";
inline constexpr const char* kCounter = "Counter";
inline constexpr const char* kRaceCheck = "RaceCheck";
// Block-composed additions beyond the paper's nine protocols.
inline constexpr const char* kStaticInvalidate = "StaticInvalidate";
inline constexpr const char* kWriteThrough = "WriteThrough";
inline constexpr const char* kSelfInvalidate = "SelfInvalidate";
inline constexpr const char* kSelfInvalidateDowngrade = "SelfInvalidateDowngrade";
}  // namespace proto_names

}  // namespace ace
