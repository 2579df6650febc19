#include "util.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "iotx/cache/hash.hpp"

namespace perfbench {

namespace fs = std::filesystem;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double to_ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double proc_cpu_s(pid_t pid) {
  const std::string stat =
      read_file("/proc/" + std::to_string(pid) + "/stat");
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  // After ')' come state (3) ... utime is field 14, stime field 15.
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return static_cast<double>(utime + stime) / static_cast<double>(ticks);
}

namespace {

/// A "VmXXX:" line of /proc/<pid>/status in MiB, or -1.
double status_mb(pid_t pid, const std::string& field) {
  const std::string path = pid == 0
                               ? std::string("/proc/self/status")
                               : "/proc/" + std::to_string(pid) + "/status";
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;  // kB -> MiB
    }
  }
  return -1.0;
}

}  // namespace

double peak_rss_mb(pid_t pid) { return status_mb(pid, "VmHWM:"); }

double rss_mb(pid_t pid) { return status_mb(pid, "VmRSS:"); }

RssSampler::RssSampler(pid_t pid) : pid_(pid) {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const double mb = rss_mb(pid_);
      if (mb > 0.0) samples_.push_back(mb);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
}

RssSampler::~RssSampler() { stop(); }

double RssSampler::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return percentile(samples_, 0.95);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0
                 : std::min(values.size() - 1,
                            static_cast<std::size_t>(rank) - 1);
  return values[index];
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = percentile(values, 0.50);
  s.p75 = percentile(values, 0.75);
  s.p90 = percentile(values, 0.90);
  s.p99 = percentile(values, 0.99);
  s.max = values.back();
  const auto p99_rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(values.size())));
  s.beyond_p99 = values.size() - std::max<std::size_t>(p99_rank, 1);
  return s;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

std::string directory_digest(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> files;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file()) {
      files.push_back(fs::relative(it->path(), dir).generic_string());
    }
  }
  if (ec || files.empty()) return {};
  std::sort(files.begin(), files.end());
  iotx::cache::Sha256 sha;
  for (const std::string& rel : files) {
    const std::string body = read_file(dir + "/" + rel);
    const std::uint64_t size = body.size();
    sha.update(rel);
    sha.update(std::string_view("\0", 1));
    sha.update(&size, sizeof(size));
    sha.update(body);
  }
  return iotx::cache::Sha256::hex(sha.finish());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

namespace {

/// Position just past `"key"` and the following colon, or npos.
std::size_t value_start(const std::string& json, const std::string& key) {
  const std::string quoted = "\"" + key + "\"";
  std::size_t pos = json.find(quoted);
  if (pos == std::string::npos) return pos;
  pos = json.find(':', pos + quoted.size());
  if (pos == std::string::npos) return pos;
  ++pos;
  while (pos < json.size() && (json[pos] == ' ' || json[pos] == '\n')) ++pos;
  return pos;
}

void append_number(std::string& out, double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::string json_string_field(const std::string& json, const std::string& key) {
  const std::size_t pos = value_start(json, key);
  if (pos == std::string::npos || pos >= json.size() || json[pos] != '"') {
    return {};
  }
  const std::size_t end = json.find('"', pos + 1);
  return end == std::string::npos ? std::string()
                                  : json.substr(pos + 1, end - pos - 1);
}

double json_number_field(const std::string& json, const std::string& key,
                         double fallback) {
  const std::size_t pos = value_start(json, key);
  if (pos == std::string::npos) return fallback;
  double v = fallback;
  const auto res =
      std::from_chars(json.data() + pos, json.data() + json.size(), v);
  return res.ec == std::errc() ? v : fallback;
}

void RunResult::fail_check(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

std::string RunResult::json_line() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    append_escaped(out, name);
    out += ": {\"value\": ";
    append_number(out, m.value);
    out += ", \"unit\": ";
    append_escaped(out, m.unit);
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
