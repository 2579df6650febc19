// Measurement helpers shared by the benchmark's workloads: clocks, /proc
// readers for CPU time and resident memory, the percentile summary every
// latency metric goes through, the report-directory digest, and the
// result line the benchmark prints last.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
double to_ms(Clock::duration d);

/// User + system CPU seconds of this process (all threads).
double self_cpu_s();
/// User + system CPU seconds of another process, from /proc/<pid>/stat;
/// negative when the process cannot be read.
double proc_cpu_s(pid_t pid);
/// High-water resident set (VmHWM) in MiB; pid 0 means this process.
/// Negative when unreadable.
double peak_rss_mb(pid_t pid = 0);
/// Current resident set (VmRSS) in MiB; negative when unreadable.
double rss_mb(pid_t pid = 0);

/// Samples the resident set (VmRSS) of a process every 20 ms on a thread
/// of its own until stop(); pid 0 means this process.
class RssSampler {
 public:
  explicit RssSampler(pid_t pid = 0);
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling; returns the 95th percentile of the samples in MiB.
  double stop();

 private:
  pid_t pid_;
  std::atomic<bool> stop_{false};
  std::vector<double> samples_;  ///< written by thread_ until it joins
  std::thread thread_;
};

/// Order statistics of one latency sample. `beyond_p99` is how many
/// samples lie above the p99 value; a percentile is trusted only when at
/// least ten samples lie beyond it.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  std::size_t beyond_p99 = 0;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 for an
/// empty one.
double percentile(std::vector<double> values, double q);
Summary summarize(std::vector<double> values);
double median(std::vector<double> values);

/// SHA-256 over every regular file under `dir`: relative paths in byte
/// order, each followed by its size and contents. Empty string when the
/// directory cannot be read.
std::string directory_digest(const std::string& dir);

/// Reads a whole file; empty when unreadable.
std::string read_file(const std::string& path);
/// Finds `"key": "<string>"` in a flat JSON text; empty when absent.
std::string json_string_field(const std::string& json, const std::string& key);
/// Finds `"key": <number>` in a JSON text; `fallback` when absent.
double json_number_field(const std::string& json, const std::string& key,
                         double fallback = -1.0);

/// One measured value with its unit, as the result line carries it.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The benchmark's verdict for one run. The last stdout line is
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Reasons the outputs were judged wrong; non-empty means exit 1.
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail_check(const std::string& why);
  std::string json_line() const;
};

}  // namespace perfbench
