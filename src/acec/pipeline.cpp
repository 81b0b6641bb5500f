#include "acec/pipeline.hpp"

#include "acec/annotate.hpp"
#include "acec/lint.hpp"

namespace ace::ir {

std::size_t Compiled::diag_count() const {
  std::size_t n = 0;
  for (const Stage& s : stages) n += s.delta.size() + s.diags.size();
  return n;
}

Compiled compile(
    const Function& program,
    const std::map<SpaceId, std::set<std::string>>& space_protocols,
    const Registry& registry) {
  Compiled out;
  auto& [base, li, mc, dc] = out.stages;
  const auto an = [&](const Function& f) {
    return analyze(f, space_protocols, registry);
  };
  base.name = "base";
  base.f = annotate(program);
  li.name = "li";
  li.f = opt_loop_invariance(base.f, an(base.f), &out.report);
  mc.name = "mc";
  mc.f = opt_merge_calls(li.f, an(li.f), &out.report);
  dc.name = "dc";
  dc.f = opt_direct_calls(mc.f, an(mc.f), registry, &out.report);

  li.delta = check_pass(base.f, li.f, PassKind::kLoopInvariance,
                        space_protocols, registry);
  mc.delta = check_pass(li.f, mc.f, PassKind::kMergeCalls, space_protocols,
                        registry);
  dc.delta = check_pass(mc.f, dc.f, PassKind::kDirectCalls, space_protocols,
                        registry);
  for (Stage& s : out.stages) {
    const VerifyOptions vo{.null_hooks_elided = &s == &dc};
    s.diags = verify(s.f, space_protocols, registry, vo);
    const auto lints = lint(s.f, an(s.f), &registry);
    s.diags.insert(s.diags.end(), lints.begin(), lints.end());
  }
  return out;
}

}  // namespace ace::ir
