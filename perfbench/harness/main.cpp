// perfbench: runs one workload of the repository benchmark and prints its
// metrics. run.py builds this program and calls it; see README.md.
//
//   perfbench <campaign|rerun|serve|fill|host|probe-campaign|probe-rerun>
//             --seed N --seconds S --trace 0|1
//             --state DIR --baseline FILE --iotx BIN --jobs N
//
// The last stdout line is the result JSON. A failed output check prints
// the reasons on stderr and exits 1 without a result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "iotx/util/simd.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},           {"wall_s", "s"},
    {"cpu_s", "s"},             {"rss_p95_mb", "MiB"},
    {"serve_p50_ms", "ms"},     {"serve_p75_ms", "ms"},
    {"report_p50_ms", "ms"},    {"serve_capacity_sps", "1/s"},
};

/// The host fingerprint a trajectory entry is recorded with.
int print_host(const Options& o) {
  std::string cpu = "unknown";
  const std::string info = read_file("/proc/cpuinfo");
  if (const std::size_t at = info.find("model name"); at != std::string::npos) {
    const std::size_t colon = info.find(':', at);
    const std::size_t end = info.find('\n', at);
    if (colon != std::string::npos && colon < end) {
      cpu = info.substr(colon + 2, end - colon - 2);
    }
  }
  std::printf(
      "{\"nproc\": %zu, \"cpu\": \"%s\", \"simd\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
      o.jobs, cpu.c_str(), iotx::simd::active_level(), __VERSION__,
      PERFBENCH_BUILD_TYPE);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench <campaign|rerun|serve|fill|host|"
               "probe-campaign|probe-rerun> --seed N "
               "--seconds S --trace 0|1 --state DIR --baseline FILE "
               "--iotx BIN --jobs N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (argc < 2) return usage();
  o.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--state") {
      o.state_dir = value;
    } else if (flag == "--baseline") {
      o.baseline_path = value;
    } else if (flag == "--iotx") {
      o.iotx_bin = value;
    } else if (flag == "--jobs") {
      o.jobs = std::max(1, std::atoi(value.c_str()));
    } else {
      return usage();
    }
  }
  if (o.state_dir.empty() || o.baseline_path.empty()) return usage();
  std::filesystem::create_directories(o.state_dir);

  RunResult result;
  try {
    if (o.workload == "fill") return fill_store(o);
    if (o.workload == "probe-campaign" || o.workload == "probe-rerun") {
      return setup_probe(o);
    }
    if (o.workload == "host") return print_host(o);
    if (o.workload == "campaign") {
      result = run_campaign(o);
    } else if (o.workload == "rerun") {
      result = run_rerun(o);
    } else if (o.workload == "serve") {
      result = run_serve(o);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    result.fail_check(std::string("exception: ") + e.what());
  }

  const auto& expected = o.trace ? per_layer_metrics() : kEndToEnd;
  RunResult out;
  out.correct = result.correct;
  out.errors = result.errors;
  out.attempted = result.attempted;
  out.failed = result.failed;
  for (const auto& [name, unit] : expected) {
    const auto it = result.metrics.find(name);
    if (it == result.metrics.end()) {
      out.fail_check("metric " + name + " was not measured");
    } else {
      out.metrics[name] = it->second;
      std::printf("  %-28s %14.6f %s\n", name.c_str(), it->second.value,
                  unit.c_str());
    }
  }
  if (out.attempted == 0) out.fail_check("no operation was attempted");
  std::fflush(stdout);
  if (!out.correct) {
    for (const std::string& e : out.errors) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    }
    return 1;
  }
  std::printf("%s\n", out.json_line().c_str());
  return 0;
}
