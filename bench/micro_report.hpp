// Funnel google-benchmark results into bench::report().
//
// The micro benches (micro_map, micro_dispatch) time host wall-clock paths
// with google-benchmark, whose console output is its own; this adapter runs
// the registered benchmarks with the normal console display and *also*
// captures every run into bench::Row so the bench emits the same
// BENCH_<name>.json document as the modeled benches (schema: EXPERIMENTS.md).
// Mapping: label = benchmark name (including /arg), wall_s = real seconds
// per iteration, msgs = iteration count; modeled fields stay zero (there is
// no simulated machine under a microbenchmark).
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/harness.hpp"

namespace bench {

/// Display reporter that forwards to the normal console output while
/// capturing every run (passing a separate file reporter would force
/// --benchmark_out, which the funnel does not want).
class ReportFunnel : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& ctx) override {
    return console_.ReportContext(ctx);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    console_.ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      if (run.run_type != Run::RT_Iteration) continue;  // skip aggregates
      Row row;
      row.label = run.benchmark_name();
      row.res.wall_s =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : run.real_accumulated_time;
      row.res.am.msgs_sent = static_cast<std::uint64_t>(run.iterations);
      rows.push_back(std::move(row));
    }
  }

  void Finalize() override { console_.Finalize(); }

  std::vector<Row> rows;

 private:
  benchmark::ConsoleReporter console_;
};

/// Drop-in replacement for BENCHMARK_MAIN()'s body: run the registered
/// benchmarks with console output, then funnel the runs through
/// bench::report(name, ...) to get the uniform table + BENCH_<name>.json.
inline int micro_main(const std::string& name, int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ReportFunnel funnel;
  benchmark::RunSpecifiedBenchmarks(&funnel);
  benchmark::Shutdown();
  report(name, funnel.rows);
  return 0;
}

}  // namespace bench
