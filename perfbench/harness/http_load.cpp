#include "http_load.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <strings.h>
#include <thread>

namespace perfbench {

namespace {

/// Upload bodies go out in chunks this large: a camera capture (~420 KB)
/// is two chunks, sent with the head in one sendmsg.
constexpr std::size_t kChunkBytes = 256 * 1024;

/// Writes every buffer. MSG_NOSIGNAL: a daemon that answers and closes
/// before reading the whole body (a shed upload) makes the write fail
/// with EPIPE, which counts as a transport error instead of raising
/// SIGPIPE and killing the benchmark.
bool write_all(int fd, std::vector<iovec> iov) {
  std::size_t first = 0;
  while (first < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + first;
    msg.msg_iovlen = iov.size() - first;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    std::size_t left = static_cast<std::size_t>(n);
    while (first < iov.size() && left >= iov[first].iov_len) {
      left -= iov[first].iov_len;
      ++first;
    }
    if (first < iov.size()) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + left;
      iov[first].iov_len -= left;
    }
  }
  return true;
}

/// Content-Length of a response head, or -1 when absent.
long content_length(const std::string& head) {
  std::size_t pos = 0;
  while ((pos = head.find("\r\n", pos)) != std::string::npos) {
    pos += 2;
    if (strncasecmp(head.c_str() + pos, "Content-Length:", 15) == 0) {
      return std::strtol(head.c_str() + pos + 15, nullptr, 10);
    }
  }
  return -1;
}

}  // namespace

HttpResult http_call(std::uint16_t port, const std::string& method,
                     const std::string& path,
                     std::span<const std::uint8_t> body, bool chunked) {
  HttpResult r;
  r.start = Clock::now();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  const auto fail = [&r](std::string why) {
    r.error = std::move(why);
    r.done = Clock::now();
    return r;
  };
  if (fd < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return fail(std::string("connect: ") + std::strerror(errno));
  }
  r.connected = Clock::now();

  std::string head = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty() && chunked) {
    head += "Transfer-Encoding: chunked\r\n";
  } else if (!body.empty() || method == "POST") {
    head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  head += "\r\n";
  std::vector<std::string> frames;  // chunk-size lines, kept alive for iov
  std::vector<iovec> iov;
  iov.push_back({head.data(), head.size()});
  static const char kCrlf[] = "\r\n";
  static const char kLast[] = "0\r\n\r\n";
  if (chunked && !body.empty()) {
    frames.reserve(body.size() / kChunkBytes + 1);
    for (std::size_t off = 0; off < body.size(); off += kChunkBytes) {
      const std::size_t n = std::min(kChunkBytes, body.size() - off);
      char size_line[32];
      std::snprintf(size_line, sizeof(size_line), "%zx\r\n", n);
      frames.emplace_back(size_line);
      iov.push_back({frames.back().data(), frames.back().size()});
      iov.push_back({const_cast<std::uint8_t*>(body.data() + off), n});
      iov.push_back({const_cast<char*>(kCrlf), 2});
    }
    iov.push_back({const_cast<char*>(kLast), 5});
  } else if (!body.empty()) {
    iov.push_back({const_cast<std::uint8_t*>(body.data()), body.size()});
  }
  if (!write_all(fd, std::move(iov))) {
    ::close(fd);
    return fail(std::string("send: ") + std::strerror(errno));
  }
  r.sent_bytes = body.size();
  r.sent = Clock::now();

  std::string in;
  char buf[65536];
  long want = -1;
  std::size_t head_end = std::string::npos;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    if (in.empty()) r.first_byte = Clock::now();
    in.append(buf, static_cast<std::size_t>(n));
    if (head_end == std::string::npos) {
      head_end = in.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        want = content_length(in.substr(0, head_end + 2));
      }
    }
    if (head_end != std::string::npos && want >= 0 &&
        in.size() >= head_end + 4 + static_cast<std::size_t>(want)) {
      break;
    }
  }
  r.done = Clock::now();
  ::close(fd);
  if (in.empty()) r.first_byte = r.done;
  if (head_end == std::string::npos || in.rfind("HTTP/1.", 0) != 0) {
    r.error = "no response head";
    return r;
  }
  r.status = std::atoi(in.c_str() + 9);
  r.body = in.substr(head_end + 4);
  if (want >= 0 && r.body.size() != static_cast<std::size_t>(want)) {
    r.error = "response body cut short";
    return r;
  }
  r.transport_ok = true;
  return r;
}

UploadVerdict judge_upload(const HttpResult& r) {
  UploadVerdict v;
  v.shed = r.transport_ok && r.status == 503;
  if (!r.transport_ok || r.status != 200) return v;
  const std::string mode = json_string_field(r.body, "mode");
  v.degraded = mode == "truncate" || mode == "sample";
  v.ok = mode == "accept" &&
         r.body.find("\"accepted\":true") != std::string::npos;
  return v;
}

bool judge_report(const HttpResult& r) {
  return r.transport_ok && r.status == 200 && r.body.size() >= 2 &&
         r.body.front() == '{' && r.body.back() == '}' &&
         r.body.find("\"section\":\"tenant_report\"") != std::string::npos;
}

LoadRun run_load(std::uint16_t port, const std::vector<LoadRequest>& requests,
                 const std::vector<std::vector<std::uint8_t>>& captures,
                 std::size_t connections, bool paced, Tracer* tracer,
                 std::uint64_t parent) {
  LoadRun run;
  run.outcomes.resize(requests.size());
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < requests.size();) {
      const LoadRequest& req = requests[i];
      LoadOutcome& out = run.outcomes[i];
      auto due = Clock::now();
      if (paced) {
        due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(req.due_s));
        if (due > Clock::now()) {
          const Span sleep(tracer, "gen.sleep", parent);
          std::this_thread::sleep_until(due);
        }
      }
      out.http =
          req.report
              ? http_call(port, "GET", "/report/" + req.tenant)
              : http_call(port, "POST", "/ingest/" + req.tenant,
                          captures[req.capture], /*chunked=*/true);
      out.late_ms = to_ms(out.http.start - due);
      out.latency_ms = to_ms(out.http.done - due);
      if (req.report) {
        out.ok = judge_report(out.http);
      } else {
        const UploadVerdict v = judge_upload(out.http);
        out.ok = v.ok;
        out.shed = v.shed;
        out.degraded = v.degraded;
      }
      if (tracer != nullptr) {
        const std::string id = std::to_string(i);
        const HttpResult& h = out.http;
        const std::uint32_t tid = thread_index();
        SpanRecord request{tracer->next_id(), parent,
                           req.report ? "report_request" : "upload_request",
                           id, tid, tracer->offset_ns(h.start),
                           tracer->offset_ns(h.done)};
        const auto phase = [&](const char* name, Clock::time_point a,
                               Clock::time_point b) {
          if (b <= a) return;
          tracer->record(SpanRecord{tracer->next_id(), request.id, name, id,
                                    tid, tracer->offset_ns(a),
                                    tracer->offset_ns(b)});
        };
        if (h.transport_ok) {
          phase("serve.connect", h.start, h.connected);
          phase("serve.send", h.connected, h.sent);
          phase("serve.wait", h.sent, h.first_byte);
          phase("serve.read", h.first_byte, h.done);
        }
        tracer->record(std::move(request));
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  Clock::time_point first = Clock::time_point::max(), last{};
  for (const LoadOutcome& o : run.outcomes) {
    first = std::min(first, o.http.start);
    last = std::max(last, o.http.done);
  }
  run.wall_s = requests.empty() ? 0.0
                                : std::chrono::duration<double>(last - first)
                                      .count();
  return run;
}

void LoadTally::add(RunResult& r, const std::vector<LoadRequest>& requests,
                    const LoadRun& run) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const LoadOutcome& o = run.outcomes[i];
    ++r.attempted;
    if (!o.ok) {
      ++r.failed;
      ++(requests[i].report ? failed_reports : failed_uploads);
      if (first_error.empty()) first_error = o.http.error;
    }
    if (requests[i].report) continue;
    if (o.http.connected != Clock::time_point{}) ++uploads_seen;
    if (o.shed) ++shed;
    if (o.degraded) ++degraded;
    if (!o.shed && o.http.sent != Clock::time_point{}) {
      bytes_sent += o.http.sent_bytes;
    }
  }
}

}  // namespace perfbench
