#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::int64_t Tracer::now_ns() const { return offset_ns(Clock::now()); }

std::int64_t Tracer::offset_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

void Tracer::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Tracer::chrome_json() const {
  std::vector<SpanRecord> events = spans();
  std::sort(events.begin(), events.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanRecord& e = events[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"" + e.name + "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                  static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.end_ns - e.start_ns) / 1e3, e.tid);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\"cat\":\"perfbench\",\"args\":{\"id\":%llu,"
                  "\"parent\":%llu",
                  static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.parent));
    out += buf;
    if (!e.trace.empty()) out += ",\"trace\":\"" + e.trace + "\"";
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Span::Span(Tracer* tracer, std::string_view name, std::uint64_t parent,
           std::string_view trace)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.id = tracer_->next_id();
  record_.parent = parent;
  record_.name = std::string(name);
  record_.trace = std::string(trace);
  record_.tid = thread_index();
  record_.start_ns = tracer_->now_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = tracer_->now_ns();
  tracer_->record(std::move(record_));
}

std::string layer_of(const std::string& name,
                     const std::set<std::string>& layers) {
  const std::size_t dot = name.find('.');
  if (dot == std::string::npos) return {};
  std::string prefix = name.substr(0, dot);
  return layers.contains(prefix) ? prefix : std::string();
}

Attribution attribute(const std::vector<SpanRecord>& spans,
                      const std::set<std::string>& layers) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) children[s.parent].push_back(&s);

  Attribution out;
  double attributed = 0.0;
  for (const SpanRecord& s : spans) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_a = 0, run_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > run_b) {
        if (run_b > run_a) covered += run_b - run_a;
        run_a = a;
        run_b = b;
      } else {
        run_b = std::max(run_b, b);
      }
    }
    if (run_b > run_a) covered += run_b - run_a;

    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    const double self =
        std::max(0.0, dur - static_cast<double>(covered) / 1e9);
    out.name_total_s[s.name] += dur;
    const std::string layer = layer_of(s.name, layers);
    if (layer.empty()) {
      out.unattributed_s += self;
    } else {
      out.layer_self_s[layer] += self;
      attributed += self;
    }
  }
  const double total = attributed + out.unattributed_s;
  out.coverage = total > 0.0 ? attributed / total : 0.0;
  return out;
}

}  // namespace perfbench
