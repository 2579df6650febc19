// Span recording for the traced runs. The benchmark wraps each call it
// makes into an iotx module's public API in a Span named
// "<layer>.<function>"; spans stay in memory and are written at exit as
// Chrome trace_event JSON (the format iotx's obs module writes, so one
// Perfetto view opens both).
//
// A span's self time is its duration minus the part of it that its
// children cover. A span whose name has no known layer prefix (the
// workload root, one pair or one request) is structure: its self time is
// time the trace cannot attribute to a module, and coverage is the share
// of all self time that lands in named layers.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util.hpp"

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::string trace;  ///< pair key or request id shared by related spans
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer();

  std::uint64_t next_id();
  std::int64_t now_ns() const;
  std::int64_t offset_ns(Clock::time_point t) const;
  void record(SpanRecord span);
  std::vector<SpanRecord> spans() const;

  /// Chrome trace_event document ("ph":"X", ts/dur in microseconds).
  std::string chrome_json() const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span; a null tracer records nothing and reports id 0.
class Span {
 public:
  Span(Tracer* tracer, std::string_view name, std::uint64_t parent = 0,
       std::string_view trace = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const noexcept { return record_.id; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
};

/// Small dense id of the calling thread, for the trace's tid column.
std::uint32_t thread_index();

/// Per-layer attribution of one traced run.
struct Attribution {
  std::map<std::string, double> layer_self_s;  ///< layer -> self seconds
  std::map<std::string, double> name_total_s;  ///< span name -> summed dur
  double unattributed_s = 0.0;  ///< self time of structural spans
  double coverage = 0.0;        ///< attributed / (attributed + unattributed)
};

/// The layer of a span name ("analysis.PiiScanner::scan" -> "analysis"),
/// or empty when the prefix is not one of `layers`.
std::string layer_of(const std::string& name,
                     const std::set<std::string>& layers);

Attribution attribute(const std::vector<SpanRecord>& spans,
                      const std::set<std::string>& layers);

}  // namespace perfbench
