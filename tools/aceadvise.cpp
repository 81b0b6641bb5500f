// aceadvise — offline replay of recorded advisor signatures.
//
// Reads an ADVISOR_<tag>.json report (written by ace::adapt::write_report
// from an adapt::auto_space / adapt::advise run), rebuilds each decision's
// access signature, and re-runs the cost model over the registered protocols —
// independently of the run that produced the log.  Use it to
//   * audit a run: per decision, the full predicted ranking next to what
//     the online advisor chose, and the prediction-vs-measured ratio;
//   * re-ask with different assumptions: --procs rescales the machine
//     size, --candidates widens the set beyond what the run considered;
//   * inspect the inputs: --list-costs prints every registered protocol's
//     cost descriptor (the protocols.cfg cost keys).
//
// Exit status: 0 if every replayed decision's best-ranked feasible protocol
// matches the report's logged ranking, 1 on any divergence (a changed cost
// model or registry), 2 on usage/parse errors.
//
// Usage:
//   aceadvise ADVISOR_<tag>.json [--procs=N] [--candidates=A,B,...]
//   aceadvise --list-costs

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ace/config.hpp"
#include "ace/registry.hpp"
#include "adapt/cost_model.hpp"
#include "adapt/signature.hpp"
#include "am/machine.hpp"
#include "common/cli.hpp"
#include "common/jsonin.hpp"
#include "common/table.hpp"

namespace {

using namespace ace;
namespace js = ace::jsonin;

adapt::Signature signature_of(const js::Value& v) {
  adapt::Signature s;
  s.reads = v["reads"].as_u64();
  s.writes = v["writes"].as_u64();
  s.remote_reads = v["remote_reads"].as_u64();
  s.remote_writes = v["remote_writes"].as_u64();
  s.read_misses = v["read_misses"].as_u64();
  s.write_misses = v["write_misses"].as_u64();
  s.write_runs = v["write_runs"].as_u64();
  s.writer_procs = v["writer_procs"].as_u64();
  s.reader_procs = v["reader_procs"].as_u64();
  s.msgs = v["msgs"].as_u64();
  s.bytes = v["bytes"].as_u64();
  s.sharer_pairs = v["sharer_pairs"].as_u64();
  s.home_regions = v["home_regions"].as_u64();
  s.epochs = v["epochs"].as_u64();
  s.regions = v["regions"].as_u64();
  s.region_bytes = v["region_bytes"].as_u64();
  s.window_ns = v["window_ns"].as_u64();
  return s;
}

std::string read_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

int list_costs(const Registry& reg) {
  Table t({"protocol", "write_policy", "barrier_rounds", "remote_writes",
           "coherent", "advisable"});
  for (const std::string& n : reg.names()) {
    const ProtocolCosts& c = reg.info(n).costs;
    t.add_row({n, to_string(c.write_policy),
               std::to_string(c.barrier_rounds), c.remote_writes ? "yes" : "no",
               c.coherent ? "yes" : "no", c.advisable ? "yes" : "no"});
  }
  t.print();
  return 0;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Positional report path + flags (Cli handles only --key=value).
  std::string report_path;
  std::vector<char*> args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0)
      args.push_back(argv[i]);
    else
      report_path = argv[i];
  }
  Cli cli(static_cast<int>(args.size()), args.data());
  const bool list = cli.get_bool("list-costs", false);
  const auto procs_override =
      static_cast<std::uint32_t>(cli.get_int("procs", 0));
  const std::vector<std::string> extra =
      split_csv(cli.get_string("candidates", ""));
  cli.finish();

  const Registry reg = Registry::with_builtins();
  if (list) return list_costs(reg);

  if (report_path.empty()) {
    std::fprintf(stderr,
                 "usage: aceadvise ADVISOR_<tag>.json [--procs=N] "
                 "[--candidates=A,B,...] | aceadvise --list-costs\n");
    return 2;
  }
  for (const std::string& c : extra)
    if (!reg.contains(c)) {
      std::fprintf(stderr, "aceadvise: unknown protocol '%s'\n", c.c_str());
      return 2;
    }

  const std::string text = read_file(report_path.c_str());
  if (text.empty()) {
    std::fprintf(stderr, "aceadvise: cannot read %s\n", report_path.c_str());
    return 2;
  }
  std::size_t err_off = 0;
  const auto doc = js::parse(text, &err_off);
  if (!doc) {
    std::fprintf(stderr, "aceadvise: %s: malformed JSON at byte %zu\n",
                 report_path.c_str(), err_off);
    return 2;
  }
  if ((*doc)["schema"].as_str() != "ace-advisor-v1") {
    std::fprintf(stderr, "aceadvise: %s: not an ace-advisor-v1 report\n",
                 report_path.c_str());
    return 2;
  }

  const am::CostModel cm;  // the constants the simulated machine charges
  std::size_t decisions = 0, divergences = 0;
  for (const js::Value& sp : (*doc)["spaces"].as_array()) {
    const std::uint32_t procs =
        procs_override != 0
            ? procs_override
            : static_cast<std::uint32_t>(sp["procs"].as_u64(8));
    std::printf("space %llu (%s mode, %u procs):\n",
                static_cast<unsigned long long>(sp["space"].as_u64()),
                sp["mode"].as_str().c_str(), procs);
    for (const js::Value& d : sp["decisions"].as_array()) {
      decisions += 1;
      const adapt::Signature sig = signature_of(d["signature"]);

      // Candidate set: what the run scored, plus any --candidates extras.
      std::vector<std::string> names;
      for (const js::Value& c : d["costs"].as_array())
        names.push_back(c["protocol"].as_str());
      const std::size_t logged_n = names.size();
      for (const std::string& c : extra)
        if (std::find(names.begin(), names.end(), c) == names.end())
          names.push_back(c);

      std::string best, logged_best;
      double best_ns = 0, logged_best_ns = 0;
      std::printf("  epoch %llu (window %llu, current %s -> %s, %s)\n",
                  static_cast<unsigned long long>(d["epoch"].as_u64()),
                  static_cast<unsigned long long>(d["window"].as_u64()),
                  d["current"].as_str().c_str(), d["chosen"].as_str().c_str(),
                  d["reason"].as_str().c_str());
      for (std::size_t i = 0; i < names.size(); ++i) {
        const ProtocolCosts& c = reg.info(names[i]).costs;
        const bool ok = adapt::feasible(c, sig);
        const double ns = adapt::predict_ns(c, sig, cm, procs);
        if (ok && (best.empty() || ns < best_ns)) {
          best = names[i];
          best_ns = ns;
        }
        if (i < logged_n && ok &&
            (logged_best.empty() || ns < logged_best_ns)) {
          logged_best = names[i];
          logged_best_ns = ns;
        }
        std::printf("    %-14s %10.3f ms%s%s\n", names[i].c_str(), ns * 1e-6,
                    ok ? "" : "  (infeasible)",
                    i >= logged_n ? "  (added)" : "");
      }
      const double measured = d["measured_ns"].as_num();
      if (measured > 0 && !logged_best.empty()) {
        // How far off was the model for the protocol actually installed?
        for (const js::Value& c : d["costs"].as_array())
          if (c["protocol"].as_str() == d["current"].as_str())
            std::printf("    measured %.3f ms, logged prediction for %s "
                        "%.3f ms (x%.2f)\n",
                        measured * 1e-6, d["current"].as_str().c_str(),
                        c["predicted_ns"].as_num() * 1e-6,
                        measured > 0 ? c["predicted_ns"].as_num() / measured
                                     : 0.0);
      }

      // Divergence: replaying the logged candidates must reproduce the
      // run's own ranking (the logged minimum-cost feasible candidate).
      std::string run_best;
      double run_best_ns = 0;
      for (const js::Value& c : d["costs"].as_array())
        if (c["feasible"].as_bool(true) &&
            (run_best.empty() || c["predicted_ns"].as_num() < run_best_ns)) {
          run_best = c["protocol"].as_str();
          run_best_ns = c["predicted_ns"].as_num();
        }
      if (procs_override == 0 && !run_best.empty() &&
          run_best != logged_best) {
        divergences += 1;
        std::printf("    DIVERGES: run ranked %s best, replay ranks %s\n",
                    run_best.c_str(), logged_best.c_str());
      }
      if (!best.empty() && best != logged_best)
        std::printf("    with added candidates: %s would win (%.3f ms)\n",
                    best.c_str(), best_ns * 1e-6);
    }
  }

  std::printf("%zu decisions replayed, %zu divergence(s)\n", decisions,
              divergences);
  return divergences == 0 ? 0 : 1;
}
