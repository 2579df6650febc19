// Self-tests of the benchmark harness's own logic: the percentile summary,
// due-time lateness against a deliberately slow server, failure counting
// for shed (also mid-upload) and degraded uploads, the report digest, and
// span attribution.
// Run with `python3 perfbench/run.py --selftest` (working directory: the
// build directory, where the digest test writes its scratch files).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <thread>

#include <gtest/gtest.h>

#include "http_load.hpp"
#include "spans.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// A one-at-a-time HTTP server: reads each request whole, waits `delay`,
/// then answers with the next canned (status, body) in turn and closes.
/// With `answer_at_accept` it answers as soon as it accepts, like the
/// daemon's accept-time shed: it sends the response and a FIN, waits
/// `delay`, and closes without reading the request.
class StubServer {
 public:
  StubServer(std::chrono::milliseconds delay,
             std::vector<std::pair<int, std::string>> responses,
             bool answer_at_accept = false)
      : delay_(delay), responses_(std::move(responses)),
        answer_at_accept_(answer_at_accept) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(fd_, 16);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { loop(); });
  }
  ~StubServer() {
    stop_ = true;
    thread_.join();
    ::close(fd_);
  }
  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  void loop() {
    std::size_t served = 0;
    while (!stop_) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      const int c = ::accept(fd_, nullptr, nullptr);
      if (c < 0) continue;
      const auto& [status, body] = responses_[served++ % responses_.size()];
      const std::string out = "HTTP/1.1 " + std::to_string(status) +
                              " X\r\nContent-Length: " +
                              std::to_string(body.size()) +
                              "\r\nConnection: close\r\n\r\n" + body;
      if (answer_at_accept_) {
        ::send(c, out.data(), out.size(), MSG_NOSIGNAL);
        ::shutdown(c, SHUT_WR);
        std::this_thread::sleep_for(delay_);
        ::close(c);
        continue;
      }
      std::string in;
      char buf[65536];
      while (true) {
        const std::size_t head = in.find("\r\n\r\n");
        if (head != std::string::npos) {
          const bool chunked =
              in.find("Transfer-Encoding: chunked") < head;
          const std::size_t cl = in.find("Content-Length: ");
          if (chunked && in.size() >= 5 &&
              in.compare(in.size() - 5, 5, "0\r\n\r\n") == 0) {
            break;
          }
          if (!chunked &&
              (cl == std::string::npos || cl > head ||
               in.size() >= head + 4 + std::stoul(in.substr(cl + 16)))) {
            break;
          }
        }
        const ssize_t n = ::recv(c, buf, sizeof(buf), 0);
        if (n <= 0) break;
        in.append(buf, static_cast<std::size_t>(n));
      }
      std::this_thread::sleep_for(delay_);
      ::send(c, out.data(), out.size(), MSG_NOSIGNAL);
      ::close(c);
    }
  }

  std::chrono::milliseconds delay_;
  std::vector<std::pair<int, std::string>> responses_;
  bool answer_at_accept_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

const std::string kAccept = R"({"mode":"accept","accepted":true})";

TEST(Percentile, SummaryReportsRankAndSamplesBeyondP99) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937_64(7));
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p75, 750.0);
  EXPECT_EQ(s.p90, 900.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.max, 1000.0);
  EXPECT_EQ(s.beyond_p99, 10u);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, SmallAndEmptySamples) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  const Summary s = summarize(v);
  EXPECT_EQ(s.p99, 99.0);
  EXPECT_EQ(s.beyond_p99, 1u);  // too few samples to trust a p99
  const Summary one = summarize({4.0});
  EXPECT_EQ(one.count, 1u);
  EXPECT_EQ(one.p50, 4.0);
  EXPECT_EQ(one.beyond_p99, 0u);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(OpenLoop, LatencyCountsFromDueTimeBehindASlowServer) {
  // One connection, a server that takes 60 ms per request, requests due
  // every 5 ms: each request waits for the ones before it, and that wait
  // is counted as lateness and as latency.
  StubServer server(std::chrono::milliseconds(60), {{200, kAccept}});
  const std::vector<std::vector<std::uint8_t>> captures = {
      std::vector<std::uint8_t>(1000, 0x5a)};
  std::vector<LoadRequest> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(LoadRequest{false, 0, "t", 0.005 * i});
  }
  const LoadRun run = run_load(server.port(), reqs, captures, 1, true);
  EXPECT_LT(run.outcomes[0].late_ms, 30.0);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const LoadOutcome& o = run.outcomes[i];
    EXPECT_TRUE(o.ok) << i;
    const double queued = 60.0 * static_cast<double>(i) - 5.0 * i;
    EXPECT_GE(o.late_ms, queued - 5.0) << i;
    EXPECT_GE(o.latency_ms, o.late_ms + 55.0) << i;
  }
}

TEST(FailFrac, ShedAndTruncateRungCountAsFailures) {
  StubServer server(std::chrono::milliseconds(0),
                    {{200, kAccept},
                     {503, R"({"error":"overloaded"})"},
                     {200, R"({"mode":"truncate","accepted":true})"},
                     {200, kAccept}});
  const std::vector<std::vector<std::uint8_t>> captures = {
      std::vector<std::uint8_t>(300 * 1024, 0x11)};
  const std::vector<LoadRequest> reqs(4, LoadRequest{false, 0, "t", 0.0});
  const LoadRun run = run_load(server.port(), reqs, captures, 1, false);
  RunResult r;
  LoadTally tally;
  tally.add(r, reqs, run);
  EXPECT_EQ(r.attempted, 4u);
  EXPECT_EQ(r.failed, 2u);
  EXPECT_EQ(tally.shed, 1u);
  EXPECT_EQ(tally.degraded, 1u);
  EXPECT_EQ(tally.uploads_seen, 4u);
  EXPECT_EQ(tally.bytes_sent, 3u * 300 * 1024);  // the shed body is not read
}

TEST(FailFrac, ShedBeforeTheBodyIsReadFailsWithoutSigpipe) {
  // The daemon sheds at accept by answering 503 and closing before it
  // reads anything. A body larger than the socket buffers is still being
  // written then: the client sees the FIN, then a reset, and its next
  // write fails with EPIPE. The upload must count as one failure, and the
  // process must not die of SIGPIPE.
  StubServer server(std::chrono::milliseconds(50),
                    {{503, R"({"error":"overloaded"})"}},
                    /*answer_at_accept=*/true);
  const std::vector<std::vector<std::uint8_t>> captures = {
      std::vector<std::uint8_t>(16 << 20, 0x22)};
  const std::vector<LoadRequest> reqs(1, LoadRequest{false, 0, "t", 0.0});
  const LoadRun run = run_load(server.port(), reqs, captures, 1, false);
  RunResult r;
  LoadTally tally;
  tally.add(r, reqs, run);
  EXPECT_EQ(r.attempted, 1u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(tally.failed_uploads, 1u);
  EXPECT_FALSE(run.outcomes[0].ok);
}

TEST(FailFrac, BadReportReadCountsAsFailure) {
  StubServer server(std::chrono::milliseconds(0),
                    {{200, R"({"section":"tenant_report"})"},
                     {200, R"({"section":"tenant_re)"}});
  const std::vector<LoadRequest> reqs(2, LoadRequest{true, 0, "t", 0.0});
  const LoadRun run = run_load(server.port(), reqs, {}, 1, false);
  RunResult r;
  LoadTally tally;
  tally.add(r, reqs, run);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(tally.failed_reports, 1u);
}

TEST(Digest, OneFlippedByteChangesTheDigest) {
  const fs::path dir = fs::current_path() / "selftest-digest";
  fs::remove_all(dir);
  fs::create_directories(dir / "sub");
  std::ofstream(dir / "table2.json") << R"({"rows":[1,2,3]})";
  std::ofstream(dir / "sub" / "pii.json") << R"({"findings":[]})";
  const std::string before = directory_digest(dir.string());
  ASSERT_EQ(before.size(), 64u);
  EXPECT_EQ(directory_digest(dir.string()), before);
  {
    std::fstream f(dir / "table2.json",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('9');
  }
  EXPECT_NE(directory_digest(dir.string()), before);
  fs::remove_all(dir);
  EXPECT_EQ(directory_digest(dir.string()), "");
}

TEST(Attribution, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0,100] with layer children [10,50] and [40,70] (overlapping)
  // and an unnamed child [80,90] that has a layer child [80,85].
  const std::vector<SpanRecord> spans = {
      {1, 0, "root", "", 1, 0, 100},
      {2, 1, "flow.a", "", 1, 10, 50},
      {3, 1, "analysis.b", "", 2, 40, 70},
      {4, 1, "pair", "", 1, 80, 90},
      {5, 4, "ml.c", "", 1, 80, 85},
  };
  const Attribution a = attribute(spans, {"flow", "analysis", "ml"});
  EXPECT_NEAR(a.layer_self_s.at("flow"), 40e-9, 1e-15);
  EXPECT_NEAR(a.layer_self_s.at("analysis"), 30e-9, 1e-15);
  EXPECT_NEAR(a.layer_self_s.at("ml"), 5e-9, 1e-15);
  // root: 100 - (60 + 10) = 30; pair: 10 - 5 = 5.
  EXPECT_NEAR(a.unattributed_s, 35e-9, 1e-15);
  EXPECT_NEAR(a.coverage, 75.0 / 110.0, 1e-9);
  EXPECT_EQ(layer_of("analysis.PiiScanner::scan", {"analysis"}), "analysis");
  EXPECT_EQ(layer_of("pair", {"analysis"}), "");
}

TEST(ResultLine, CarriesEveryMetricWithItsUnit) {
  RunResult r;
  r.attempted = 3;
  r.set("wall_s", 1.25, "s");
  EXPECT_EQ(r.json_line(),
            R"({"correct": true, "attempted": 3, "failed": 0, "metrics": )"
            R"({"wall_s": {"value": 1.25, "unit": "s"}}})");
}

}  // namespace
}  // namespace perfbench
