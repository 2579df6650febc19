// The benchmark's workloads. Each returns the run's verdict; main()
// prints its metrics and exits non-zero when an output check failed.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "spans.hpp"
#include "util.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for stores, reports, traces (inside the checkout).
  std::string state_dir;
  /// perfbench/baseline.json: the recorded report digest.
  std::string baseline_path;
  /// The `iotx` CLI the serve workload runs as a child process.
  std::string iotx_bin;
  /// Worker threads and client connections: the host's core count.
  std::size_t jobs = 1;
};

/// Modules under src/iotx/ that spans are attributed to, plus the
/// benchmark's own load generator ("gen").
inline const std::set<std::string> kLayers = {
    "core", "testbed", "flow",  "net",   "analysis",
    "ml",   "cache",   "report", "serve", "gen"};

/// Every per-layer metric name with its unit; traced runs report all of
/// them, with 0 where the workload does not exercise the layer.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fills the zero defaults of every per-layer metric, then the layer
/// self times and coverage of `attribution`.
void add_attribution(RunResult& result, const Attribution& attribution,
                     double traced_wall_s, double untraced_wall_s);

/// Writes the run's spans as Chrome trace JSON under the state directory.
void write_trace(const Options& options, const Tracer& tracer);

/// Cold campaign into the warm store, checked against the recorded digest:
/// the preparation step for `rerun`.
int fill_store(const Options& options);

/// `probe-campaign` / `probe-rerun`: one batch set-up in a fresh process.
/// Builds the workload's Study (campaign: over an empty store), then
/// writes one byte to stdout; the parent times process start to that byte.
int setup_probe(const Options& options);

RunResult run_campaign(const Options& options);
RunResult run_rerun(const Options& options);
RunResult run_serve(const Options& options);

}  // namespace perfbench
