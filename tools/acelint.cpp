// acelint — static analysis over the Ace compiler's IR.
//
// Runs every Table-4 bench kernel through the full compilation pipeline
// (ace::ir::compile: annotate → LI → MC → DC) and reports, at each stage,
// the annotation verifier (AV rules), the protocol-usage linter (AL rules),
// and — between stages — the differential pass checker (AT rules) that
// asserts each pass preserved the protocol-call multiset modulo the legal
// Figure-6 merges.
//
// Diagnostics print as `function:instruction: RULE: message`; the process
// exits 1 if any diagnostic fired, so CI can gate on a clean run.
//
// Before any IR work, the protocol configuration itself is linted (AL05 +
// AL06): every `stack` entry's declared registration facts must agree with
// what its blocks derive, and its declared coherent bit must agree with the
// acemc model checker's exhaustive-litmus verdict.  --config=FILE lints
// that file instead of the built-in default_config_text (and exits without
// running kernels).
//
// Usage:
//   acelint [--kernel=NAME] [--scale=1] [--dump] [--quiet] [--config=FILE]
//   acelint --list-rules

#include <cstdio>
#include <fstream>
#include <sstream>

#include "ace/config.hpp"
#include "acec/kernels.hpp"
#include "acec/lint.hpp"
#include "acec/pipeline.hpp"
#include "common/cli.hpp"
#include "mc/checker.hpp"

namespace {

using namespace ace;
using namespace ace::ir;

struct Options {
  std::string kernel;  // empty = all
  bool dump = false;
  bool quiet = false;
};

std::size_t report(const std::vector<Diag>& diags) {
  if (!diags.empty()) std::fputs(to_string(diags).c_str(), stdout);
  return diags.size();
}

/// Report one compiled stage: its pass delta, its verify + lint
/// diagnostics, then its status line.  Returns the number of diagnostics.
std::size_t report_stage(const KernelCase& kc, const Stage& s,
                         const Options& opt) {
  const std::size_t delta = report(s.delta);
  const std::size_t n = report(s.diags);
  if (!opt.quiet)
    std::printf("%-11s %-4s %-28s %s (%zu insts)\n", kc.name.c_str(), s.name,
                s.f.name.c_str(), n == 0 ? "clean" : "DIAGNOSTICS",
                s.f.code.size());
  if (opt.dump) std::fputs(to_string(s.f).c_str(), stdout);
  return delta + n;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool list_rules = cli.get_bool("list-rules", false);
  Options opt;
  opt.kernel = cli.get_string("kernel", "");
  opt.dump = cli.get_bool("dump", false);
  opt.quiet = cli.get_bool("quiet", false);
  const std::string config_path = cli.get_string("config", "");
  const auto scale = static_cast<std::uint32_t>(cli.get_int("scale", 1));
  cli.finish();

  if (list_rules) {
    std::printf("acelint rule catalogue\n");
    std::printf("  AV* — annotation verifier, AL* — protocol-usage linter,\n"
                "  AT* — translation validation (differential pass checker)\n\n");
    for (const auto& r : rule_catalogue())
      std::printf("  %s  %s\n", r.id, r.summary);
    return 0;
  }

  std::size_t total = 0;

  // --- AL05: configuration lint --------------------------------------------
  {
    std::string text;
    if (!config_path.empty()) {
      std::ifstream in(config_path);
      if (!in) {
        std::fprintf(stderr, "acelint: cannot read '%s'\n",
                     config_path.c_str());
        return 2;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      text = ss.str();
    } else {
      text = default_config_text();
    }
    ConfigError cerr;
    const auto infos = parse_config(text, &cerr);
    if (infos.empty()) {
      std::fprintf(stderr, "acelint: config parse error at line %d: %s\n",
                   cerr.line, cerr.message.c_str());
      return 2;
    }
    const CoherenceOracle oracle = [](const StackSpec& s) {
      return mc::coherent_verdict(s);
    };
    const std::size_t n = report(lint_config(infos, oracle));
    if (!opt.quiet)
      std::printf("%-11s %-4s %-28s %s (%zu entries)\n", "config", "cfg",
                  config_path.empty() ? "<builtin>" : config_path.c_str(),
                  n == 0 ? "clean" : "DIAGNOSTICS", infos.size());
    if (!config_path.empty()) {
      if (n != 0) {
        std::printf("acelint: %zu diagnostic%s\n", n, n == 1 ? "" : "s");
        return 1;
      }
      if (!opt.quiet) std::printf("acelint: config clean\n");
      return 0;
    }
    total += n;
  }

  const Registry registry = Registry::with_builtins();
  auto cases = table4_cases(scale);
  bool matched = false;

  for (const auto& kc : cases) {
    if (!opt.kernel.empty() && kc.name != opt.kernel) continue;
    matched = true;

    const Compiled c = compile(kc.program, kc.space_protocols, registry);
    for (const Stage& s : c.stages) total += report_stage(kc, s, opt);
  }

  if (!matched) {
    std::fprintf(stderr, "acelint: no kernel named '%s' (have:",
                 opt.kernel.c_str());
    for (const auto& kc : cases) std::fprintf(stderr, " %s", kc.name.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  if (total != 0) {
    std::printf("acelint: %zu diagnostic%s\n", total, total == 1 ? "" : "s");
    return 1;
  }
  if (!opt.quiet) std::printf("acelint: all kernels clean at every stage\n");
  return 0;
}
