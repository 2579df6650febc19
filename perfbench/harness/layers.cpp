#include <cstdio>
#include <fstream>

#include "workloads.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.pairs", "count"},
      {"core.pair_p50_s", "s"},
      {"core.pair_max_s", "s"},
      {"core.pool_util", "ratio"},
      {"core.peak_rss_mb", "MiB"},
      {"testbed.synth_s", "s"},
      {"testbed.captures", "count"},
      {"testbed.packets", "count"},
      {"testbed.bytes", "bytes"},
      {"testbed.user_study_s", "s"},
      {"flow.ingest_s", "s"},
      {"flow.packets", "count"},
      {"flow.bytes", "bytes"},
      {"flow.flows", "count"},
      {"flow.flows_copy_s", "s"},
      {"net.decodes_per_packet", "ratio"},
      {"analysis.destinations_s", "s"},
      {"analysis.encryption_s", "s"},
      {"analysis.pii_s", "s"},
      {"analysis.pii_bytes_scanned", "bytes"},
      {"analysis.pii_mb_per_s", "MiB/s"},
      {"analysis.pii_findings", "count"},
      {"analysis.audit_s", "s"},
      {"ml.train_s", "s"},
      {"ml.train_rows", "count"},
      {"ml.idle_detect_s", "s"},
      {"ml.detect_units", "count"},
      {"ml.units_classified", "count"},
      {"cache.store_s", "s"},
      {"cache.bytes_written", "bytes"},
      {"cache.load_s", "s"},
      {"cache.decode_s", "s"},
      {"cache.bytes_read", "bytes"},
      {"cache.hit_ratio", "ratio"},
      {"cache.corrupt", "count"},
      {"report.write_s", "s"},
      {"report.bytes", "bytes"},
      {"serve.connect_p50_ms", "ms"},
      {"serve.send_p50_ms", "ms"},
      {"serve.wait_p50_ms", "ms"},
      {"serve.wait_p99_ms", "ms"},
      {"serve.session_work_ms", "ms"},
      {"serve.report_bytes", "bytes"},
      {"serve.completed", "count"},
      {"serve.shed", "count"},
      {"serve.quarantined", "count"},
      {"serve.degraded_admits", "count"},
      {"serve.ladder_transitions", "count"},
      {"serve.admission_mean_us", "us"},
      {"gen.offered_sps", "1/s"},
      {"gen.achieved_sps", "1/s"},
      {"gen.late_p50_ms", "ms"},
      {"gen.late_p99_ms", "ms"},
      {"core.self_s", "s"},
      {"testbed.self_s", "s"},
      {"flow.self_s", "s"},
      {"net.self_s", "s"},
      {"analysis.self_s", "s"},
      {"ml.self_s", "s"},
      {"cache.self_s", "s"},
      {"report.self_s", "s"},
      {"serve.self_s", "s"},
      {"gen.self_s", "s"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_s", "s"},
  };
  return kMetrics;
}

void add_attribution(RunResult& result, const Attribution& a,
                     double traced_wall_s, double untraced_wall_s) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (!result.metrics.contains(name)) result.set(name, 0.0, unit);
  }
  std::printf("  layer self time (thread-seconds), traced wall %.3f s:\n",
              traced_wall_s);
  for (const std::string& layer : kLayers) {
    const auto it = a.layer_self_s.find(layer);
    const double self = it == a.layer_self_s.end() ? 0.0 : it->second;
    result.set(layer + ".self_s", self, "s");
    std::printf("    %-9s %10.3f s\n", layer.c_str(), self);
  }
  std::printf("    %-9s %10.3f s\n", "(none)", a.unattributed_s);
  const double overhead = traced_wall_s - untraced_wall_s;
  std::printf("  coverage %.4f; tracing overhead %.3f s (traced %.3f s - "
              "untraced median %.3f s)\n",
              a.coverage, overhead, traced_wall_s, untraced_wall_s);
  result.set("trace.coverage", a.coverage, "ratio");
  result.set("trace.overhead_s", overhead, "s");
  if (a.coverage < 0.90) {
    result.fail_check("named layer spans cover only " +
                      std::to_string(a.coverage) + " of the traced time");
  }
}

void write_trace(const Options& o, const Tracer& tracer) {
  const std::string path = o.state_dir + "/trace-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".json";
  std::ofstream(path) << tracer.chrome_json();
  std::printf("  trace: %s\n", path.c_str());
}

}  // namespace perfbench
