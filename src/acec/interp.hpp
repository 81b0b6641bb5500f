// IR interpreter: executes a (possibly optimized) kernel against the real
// Ace runtime.  This is how Table 4 is measured: the same kernel runs at
// each optimization level, and the modeled-time difference comes from the
// protocol calls the passes removed, devirtualized, or hoisted — the same
// cause as in the paper.
//
// Dispatch cost model:
//   * a dynamic annotation op (kMap/kStart*/kEnd*) goes through
//     RuntimeProc's dispatching entry points (space lookup -> protocol
//     vtable), charging CostModel::dispatch_ns;
//   * a `direct` op (marked by the DC pass) calls the resolved protocol
//     routine, charging CostModel::direct_call_ns;
//   * ops deleted by the passes are simply absent.
#pragma once

#include <vector>

#include "acec/ir.hpp"

namespace ace::ir {

struct KernelArgs {
  std::vector<std::vector<RegionId>> region_tables;
  std::vector<std::vector<double>> f64_tables;
  std::vector<std::int64_t> ints;
  /// This processor's home regions that the kernel's checksum reads.
  std::vector<RegionId> home;
};

struct ExecStats {
  std::uint64_t insts = 0;
  std::uint64_t protocol_calls = 0;  ///< map/start/end executed
};

ExecStats execute(const Function& f, RuntimeProc& rp, const KernelArgs& args);

}  // namespace ace::ir
