// The compiled path of Table 4 in one call: annotate → LI → MC → DC, each
// stage checked by the annotation verifier (null-hook elisions accepted only
// at DC), the registry-aware protocol-usage linter and, after the first, the
// translation validator on the pass that produced it.  table4, acelint and
// the tests all compile through here.
#pragma once

#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "acec/passes.hpp"
#include "acec/verify.hpp"

namespace ace::ir {

/// One compilation stage and what the checkers found in it.
struct Stage {
  const char* name = "";    ///< "base", "li", "mc" or "dc"
  Function f;
  std::vector<Diag> delta;  ///< check_pass into this stage (empty at base)
  std::vector<Diag> diags;  ///< verify(), then lint(), on `f`
};

struct Compiled {
  std::array<Stage, 4> stages;  ///< base, li, mc, dc
  PassReport report;            ///< what the three passes did, summed

  const Function& dc() const { return stages[3].f; }
  /// Diagnostics over all stages, deltas included (0 = clean).
  std::size_t diag_count() const;
};

/// Compile a kernel's language-level `program` (running under
/// `space_protocols`) through every stage and check each one.
Compiled compile(
    const Function& program,
    const std::map<SpaceId, std::set<std::string>>& space_protocols,
    const Registry& registry);

}  // namespace ace::ir
