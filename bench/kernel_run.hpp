// One Table-4 kernel run through the bench harness: the kernel's set-up is
// the set-up phase, and the measured body runs one compiled stage through
// the interpreter (or the hand-optimized version) and returns this rank's
// Partial — its checksum over its home regions and the protocol calls it
// executed.  table4_compiler_opts and the tests run kernels this one way.
#pragma once

#include "acec/interp.hpp"
#include "acec/kernels.hpp"
#include "bench/harness.hpp"

namespace bench {

/// Run `kc` with `f` interpreted, or its hand version when `f` is null.
inline RunResult run_kernel(const ace::ir::KernelCase& kc,
                            const ace::ir::Function* f, std::uint32_t procs,
                            const RunOptions& opt) {
  return run_ace(
      procs, [&kc](apps::AceApi& api) { return kc.setup(api.runtime_proc()); },
      [&kc, f](apps::AceApi& api, const ace::ir::KernelArgs& args) {
        ace::RuntimeProc& rp = api.runtime_proc();
        Partial part;
        if (f != nullptr)
          part.calls = ace::ir::execute(*f, rp, args).protocol_calls;
        else
          kc.hand(rp, args);
        rp.proc().barrier();
        part.checksum = kc.checksum(rp, args);
        return part;
      },
      opt);
}

}  // namespace bench
