// The benchmark's own HTTP load client for `iotx serve`.
//
// Each request opens one connection (the daemon answers with Connection:
// close), sets TCP_NODELAY, sends the head and body in one sendmsg, and
// reads the whole response with no size cap. Requests carry a due time:
// an open loop sends each at its due time, a closed loop as soon as a
// connection is free, and never more than `connections` are in flight.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "spans.hpp"
#include "util.hpp"

namespace perfbench {

/// One HTTP exchange, with the instants of its phases.
struct HttpResult {
  bool transport_ok = false;  ///< connected, sent, and read a whole response
  int status = 0;
  std::string body;
  std::string error;
  std::size_t sent_bytes = 0;  ///< request body bytes written
  Clock::time_point start, connected, sent, first_byte, done;
};

/// Sends `method path` to 127.0.0.1:port. A non-empty body goes out
/// chunked when `chunked`, else with Content-Length.
HttpResult http_call(std::uint16_t port, const std::string& method,
                     const std::string& path,
                     std::span<const std::uint8_t> body = {},
                     bool chunked = false);

/// Upload outcome rules: success is a 200 whose body says the session was
/// admitted at full fidelity ("mode":"accept") and folded.
struct UploadVerdict {
  bool ok = false;
  bool shed = false;      ///< 503 from the admission ladder
  bool degraded = false;  ///< admitted at the truncate or sample rung
};
UploadVerdict judge_upload(const HttpResult& r);

/// A report read succeeds with a 200 and a whole tenant report document.
bool judge_report(const HttpResult& r);

struct LoadRequest {
  bool report = false;  ///< GET /report/<tenant>; else POST /ingest/<tenant>
  std::size_t capture = 0;
  std::string tenant;
  double due_s = 0.0;  ///< offset from the loop's start (open loop only)
};

struct LoadOutcome {
  HttpResult http;
  bool ok = false;
  bool shed = false;
  bool degraded = false;
  double latency_ms = 0.0;  ///< due time -> last response byte
  double late_ms = 0.0;     ///< due time -> send start
};

struct LoadRun {
  std::vector<LoadOutcome> outcomes;  ///< indexed like the requests
  double wall_s = 0.0;                ///< first send -> last response
};

/// Runs `requests` over at most `connections` concurrent connections.
/// `paced`: each request waits for its due time (open loop); otherwise
/// requests go back to back (closed loop). With a tracer, each request
/// records a span with connect/send/wait/read children, and each pacing
/// wait a gen.sleep span.
LoadRun run_load(std::uint16_t port, const std::vector<LoadRequest>& requests,
                 const std::vector<std::vector<std::uint8_t>>& captures,
                 std::size_t connections, bool paced, Tracer* tracer = nullptr,
                 std::uint64_t parent = 0);

/// Folds finished requests into a run's attempted/failed totals (every
/// request that is not ok fails: a shed 503, a degraded admission, any
/// other status, a transport error, a bad report read) and keeps what
/// the daemon's /health must conserve.
struct LoadTally {
  std::uint64_t uploads_seen = 0;  ///< uploads that reached the daemon
  std::uint64_t bytes_sent = 0;    ///< body bytes of uploads not shed
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t failed_uploads = 0;
  std::uint64_t failed_reports = 0;
  std::string first_error;  ///< the first transport error seen, if any

  void add(RunResult& r, const std::vector<LoadRequest>& requests,
           const LoadRun& run);
};

}  // namespace perfbench
