// The `serve` workload: an `iotx serve` child process with default flags
// (8 session workers) takes a seeded mix of chunked capture uploads from
// at most `jobs` client connections, so the admission ladder stays at
// `accept` (load <= 3/8 < 0.50).
//
// The workload (daemon, clients, set-up) runs on one CPU at a time.
// Across CPUs every request waits on several thread wake-ups, and on a
// shared virtual machine their cost swings 2-3x with the host's load: on
// 4 vCPUs closed-loop capacity read anywhere from 1,600/s to 4,600/s from
// one minute to the next, while on one CPU it moves only with the host's
// speed. Each vCPU's speed also wanders by about 15% from second to
// second, so round k runs on the k-th CPU (mod their count) and the run
// pools or takes the median over them. During the open loops an
// IdleSpinner keeps the round's CPU out of its idle state.
//
//   set-up   daemon ready, the upload pool synthesized, a DetectorModel
//            trained for each of the 6 tenant classes and installed
//            (POST /model) on every round's 6 gateways and on the
//            identity tenant.
//   rounds   kRounds rounds, each an open loop then a closed loop:
//            A: seeded Poisson arrivals at kOpenRate for a share of
//               --seconds, with one GET /report/<tenant> per kReportEvery
//               requests; latency runs from each request's due time to
//               its last response byte.
//            B: kBatchUploads back to back over `jobs` connections.
//            Latencies pool the rounds' open loops; capacity is the median
//            round's closed loop, so a pause of the host that hits one
//            batch does not move it.
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <fcntl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <thread>

#include "http_load.hpp"
#include "iotx/analysis/inference.hpp"
#include "iotx/flow/dns_cache.hpp"
#include "iotx/flow/flow_table.hpp"
#include "iotx/flow/ingest.hpp"
#include "iotx/flow/traffic_unit.hpp"
#include "iotx/net/packet.hpp"
#include "iotx/net/pcap.hpp"
#include "iotx/serve/daemon.hpp"
#include "iotx/serve/detector.hpp"
#include "iotx/testbed/catalog.hpp"
#include "iotx/testbed/experiment.hpp"
#include "iotx/util/prng.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

using namespace iotx;

namespace {

/// A device class of the paper's Table 1 as the gateways see it: one
/// device stands for the class, and the class's share of uploads is its
/// share of the testbed's 81 deployed units.
struct TenantClass {
  const testbed::DeviceSpec* device = nullptr;
  double units = 0.0;
};

/// The six Table 1 categories, from the builtin catalog. Each class's
/// device is its first in catalog order that is deployed in the US lab,
/// where the captures are synthesized. Every deployed unit is taken to
/// upload at the same rate, so a class's upload share is its unit count
/// over 81: cameras 20, home automation 15, hubs, audio and appliances
/// 12 each, TVs 10.
const std::vector<TenantClass>& tenant_classes() {
  static const std::vector<TenantClass> classes = [] {
    std::vector<TenantClass> out(testbed::kCategoryCount);
    for (const testbed::DeviceSpec& d : testbed::device_catalog()) {
      TenantClass& c = out[static_cast<std::size_t>(d.category)];
      c.units += (d.in_us() ? 1.0 : 0.0) + (d.in_uk() ? 1.0 : 0.0);
      if (c.device == nullptr && d.in_us()) c.device = &d;
    }
    return out;
  }();
  return classes;
}

/// Open-loop request rate (uploads plus report reads): about a ninth of
/// the closed-loop capacity on one CPU (about 1,800/s). Queueing delay
/// grows as 1/(1 - load), so at a third of capacity a host that runs 20%
/// slower for a minute moved the upload p99 by half; at a ninth the
/// latency stays close to the service time.
constexpr double kOpenRate = 200.0;
/// Every kReportEvery-th request reads a report, the gateways in turn. No
/// published trace gives how often a gateway's report is read. 1 in 10
/// yields about 300 reads a run, and their median held within 0.06-0.08
/// over 8 runs where 1 in 25 (120 reads) spread 0.14. A read serializes
/// the tenant's whole accumulated report under the daemon's tenant lock,
/// so the reads stall uploads; spacing them evenly makes the report sizes
/// they see the same from seed to seed.
constexpr std::size_t kReportEvery = 10;
/// Rounds per run (two on each of 4 CPUs), and the share of --seconds
/// their open loops take.
constexpr std::size_t kRounds = 8;
constexpr double kOpenShare = 0.75;
/// Warm-up uploads before the first round, and each round's closed-loop
/// batch (a fixed count, so CPU is compared over equal work).
constexpr std::size_t kWarmup = 400;
constexpr std::size_t kBatchUploads = 1000;
constexpr int kSetups = 9;

/// Tenant gateway `i` of round `round`. Every round uploads to fresh
/// gateways, so each round starts from empty tenant state and the rounds
/// are repetitions of one shape: a gateway's report holds every flow it
/// was sent, and reading it holds the daemon's tenant lock for as long as
/// serializing it takes.
/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Moves the calling thread and every thread of process `pid` (0: none)
/// to `cpu`. Threads and processes the caller starts afterwards inherit
/// the CPU.
void pin_to_cpu(int cpu, pid_t pid = 0) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
  if (pid <= 0) return;
  std::error_code ec;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(tasks, ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10));
    sched_setaffinity(tid, sizeof(one), &one);
  }
}

/// Keeps one CPU out of its idle state: a thread of SCHED_IDLE priority
/// that spins on the CPU until destroyed, and yields it to any other
/// thread at once. On a shared virtual machine, waking a vCPU from idle
/// costs a varying share of a millisecond, so at an open loop's low load
/// that wake-up, not the daemon, set the latency tail: the upload p75
/// spread 0.29 over 8 runs without the spinner and 0.08 with it.
class IdleSpinner {
 public:
  explicit IdleSpinner(int cpu)
      : thread_([this, cpu] {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpu, &one);
          sched_setaffinity(0, sizeof(one), &one);
          // At normal priority the spinner would take CPU from the daemon.
          const sched_param param{};
          if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
          while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
          }
        }) {}
  ~IdleSpinner() {
    stop_ = true;
    thread_.join();
  }
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::string gateway(std::size_t round, std::size_t i) {
  return "gw" + std::to_string(round) + "-" + std::to_string(i);
}

std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

/// `iotx serve` as a child process; stopped (SIGTERM, then SIGKILL) and
/// reaped by stop() or the destructor.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess() { stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  bool start(const std::string& bin, const std::string& log, bool metrics,
             std::string& error) {
    port_ = free_port();
    const std::string port = std::to_string(port_);
    std::vector<std::string> args = {bin, "serve", "--port", port};
    if (metrics) args.push_back("--metrics");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      error = "cannot spawn " + bin;
      return false;
    }
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        error = "iotx serve exited during start-up; see " + log;
        return false;
      }
      const HttpResult h = http_call(port_, "GET", "/health");
      if (h.transport_ok && h.status == 200) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    error = "iotx serve did not answer /health";
    return false;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(15);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// The upload pool: pcap bytes of one capture per (class, activity).
struct Pool {
  std::vector<std::vector<std::uint8_t>> pcaps;
  std::vector<std::size_t> class_of;  ///< index into tenant_classes()
  std::vector<std::vector<std::size_t>> of_class;  ///< pool indices
  std::uint64_t packets = 0;
};

const testbed::NetworkConfig kUs{testbed::LabSite::kUs, false};

Pool synth_pool(Tracer* tr, std::uint64_t parent) {
  const testbed::ExperimentRunner runner(testbed::SchedulePlan{1, 1, 1, 0.0});
  const std::vector<TenantClass>& classes = tenant_classes();
  Pool pool;
  pool.of_class.resize(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const testbed::DeviceSpec& device = *classes[c].device;
    std::set<std::string> seen;
    for (const testbed::ExperimentSpec& spec : runner.schedule(device, kUs)) {
      if (spec.type == testbed::ExperimentType::kIdle ||
          !seen.insert(spec.activity).second) {
        continue;
      }
      testbed::LabeledCapture capture;
      {
        const Span s(tr, "testbed.ExperimentRunner::run", parent);
        capture = runner.run(spec, device);
      }
      pool.packets += capture.packets.size();
      const Span s(tr, "net.pcap_serialize", parent);
      pool.of_class[c].push_back(pool.pcaps.size());
      pool.pcaps.push_back(net::pcap_serialize(capture.packets));
      pool.class_of.push_back(c);
    }
  }
  return pool;
}

/// A small model per tenant device: the CLI's train-detector recipe
/// (labeled captures plus background windows) at a reduced schedule.
std::vector<std::uint8_t> train_model(const testbed::DeviceSpec& device,
                                      Tracer* tr, std::uint64_t parent,
                                      std::size_t& rows) {
  const testbed::ExperimentRunner runner(testbed::SchedulePlan{4, 2, 2, 0.0});
  std::vector<testbed::LabeledCapture> captures;
  {
    const Span s(tr, "testbed.ExperimentRunner::run", parent, device.id);
    for (const testbed::ExperimentSpec& spec : runner.schedule(device, kUs)) {
      if (spec.type != testbed::ExperimentType::kIdle) {
        captures.push_back(runner.run(spec, device));
      }
    }
  }
  {
    const Span s(tr, "testbed.TrafficSynthesizer::background", parent,
                 device.id);
    for (int i = 0; i < 4; ++i) {
      testbed::LabeledCapture bg;
      bg.spec.device_id = device.id;
      bg.spec.config = kUs;
      bg.spec.activity = std::string(analysis::kBackgroundLabel);
      bg.spec.repetition = i;
      util::Prng prng("perfbench-bg/" + device.id + "/" + std::to_string(i));
      bg.packets =
          runner.synthesizer().background(device, kUs, 0.0, 60.0, prng);
      captures.push_back(std::move(bg));
    }
  }
  analysis::InferenceParams params;
  params.validation.forest.n_trees = 20;
  params.validation.repetitions = 2;
  analysis::ActivityModel model;
  {
    const Span s(tr, "ml.train_activity_model", parent, device.id);
    model = analysis::train_activity_model(device, kUs, captures, params);
  }
  rows = model.dataset.size();
  const Span s(tr, "serve.DetectorModel::serialize", parent, device.id);
  return serve::DetectorModel::from_activity_model(device, model).serialize();
}

struct ServeSetup {
  DaemonProcess daemon;
  Pool pool;
  std::size_t identity = 0;  ///< pool index of the identity tenant's upload
  std::vector<std::vector<std::uint8_t>> models;  ///< per tenant class
  std::vector<std::size_t> train_rows;            ///< per tenant class
};

/// One set-up. The seed picks the capture the identity tenant gets, and
/// so the model installed for it.
bool set_up(const Options& o, bool metrics, ServeSetup& s, Tracer* tr,
            std::uint64_t parent, std::string& error) {
  {
    const Span span(tr, "serve.start_daemon", parent);
    if (!s.daemon.start(o.iotx_bin, o.state_dir + "/serve-daemon.log",
                        metrics, error)) {
      return false;
    }
  }
  s.pool = synth_pool(tr, parent);
  s.identity = static_cast<std::size_t>(o.seed % s.pool.pcaps.size());
  const std::vector<TenantClass>& classes = tenant_classes();
  s.models.assign(classes.size(), {});
  s.train_rows.assign(classes.size(), 0);
  std::vector<std::thread> trainers;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    trainers.emplace_back([&, c] {
      s.models[c] =
          train_model(*classes[c].device, tr, parent, s.train_rows[c]);
    });
  }
  for (std::thread& t : trainers) t.join();
  const Span span(tr, "serve.install_models", parent);
  const auto install = [&](const std::string& tenant,
                           const std::vector<std::uint8_t>& model) {
    const HttpResult h =
        http_call(s.daemon.port(), "POST", "/model/" + tenant, model);
    if (!h.transport_ok || h.status != 200) {
      error = "POST /model/" + tenant + " failed";
      return false;
    }
    return true;
  };
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (!install(gateway(round, c), s.models[c])) return false;
    }
  }
  return install("identity", s.models[s.pool.class_of[s.identity]]);
}

/// Draws the seeded upload mix: a class by its share of deployed units,
/// then one of its captures uniformly. Each upload goes to its class's
/// gateway of the round, whose model is trained for that device.
class UploadMix {
 public:
  UploadMix(const Pool& pool, std::size_t round)
      : pool_(pool), round_(round) {
    std::vector<double> units;
    for (const TenantClass& c : tenant_classes()) units.push_back(c.units);
    class_ = std::discrete_distribution<std::size_t>(units.begin(),
                                                     units.end());
  }

  LoadRequest next(std::mt19937_64& rng) {
    const std::size_t c = class_(rng);
    const std::vector<std::size_t>& captures = pool_.of_class[c];
    std::uniform_int_distribution<std::size_t> pick(0, captures.size() - 1);
    return LoadRequest{false, captures[pick(rng)], gateway(round_, c), 0.0};
  }

 private:
  const Pool& pool_;
  std::size_t round_;
  std::discrete_distribution<std::size_t> class_;
};

/// Seeded open-loop schedule: Poisson arrivals at `rate` over `count`
/// requests, each an upload from the mix, except every kReportEvery-th,
/// which reads a report.
std::vector<LoadRequest> open_loop_requests(std::mt19937_64& rng,
                                            const Pool& pool,
                                            std::size_t round, double rate,
                                            std::size_t count) {
  std::exponential_distribution<double> gap(rate);
  UploadMix mix(pool, round);
  const std::size_t gateways = tenant_classes().size();
  std::vector<LoadRequest> out(count);
  double t = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    LoadRequest& req = out[k];
    t += gap(rng);
    req = mix.next(rng);
    req.due_s = t;
    if (k % kReportEvery == kReportEvery - 1) {
      req.report = true;
      req.tenant = gateway(round, (k / kReportEvery) % gateways);
    }
  }
  return out;
}

std::vector<LoadRequest> closed_loop_requests(std::mt19937_64& rng,
                                              const Pool& pool,
                                              std::size_t round,
                                              std::size_t count) {
  UploadMix mix(pool, round);
  std::vector<LoadRequest> out(count);
  for (LoadRequest& req : out) req = mix.next(rng);
  return out;
}

/// The output checks every serve run ends with: /health conservation,
/// and the identity tenant's streamed report equal to the batch path.
void check_daemon(RunResult& r, const ServeSetup& s, const LoadTally& tally,
                  std::string* health_out) {
  const HttpResult health = http_call(s.daemon.port(), "GET", "/health");
  if (!health.transport_ok || health.status != 200) {
    r.fail_check("GET /health failed");
    return;
  }
  if (health_out != nullptr) *health_out = health.body;
  const auto field = [&](const char* name) {
    return static_cast<std::uint64_t>(json_number_field(health.body, name));
  };
  const std::uint64_t completed = field("sessions_completed");
  const std::uint64_t shed = field("sessions_shed");
  const std::uint64_t quarantined = field("sessions_quarantined");
  if (completed + shed + quarantined != tally.uploads_seen) {
    r.fail_check("/health does not conserve uploads: completed " +
                 std::to_string(completed) + " + shed " +
                 std::to_string(shed) + " + quarantined " +
                 std::to_string(quarantined) + " != attempted " +
                 std::to_string(tally.uploads_seen));
  }
  if (field("bytes_received") != tally.bytes_sent) {
    r.fail_check("/health bytes_received " +
                 std::to_string(field("bytes_received")) +
                 " != bytes sent " + std::to_string(tally.bytes_sent));
  }
  const HttpResult streamed =
      http_call(s.daemon.port(), "GET", "/report/identity");
  const std::string batch = serve::batch_report_json(
      "identity", s.pool.pcaps[s.identity], {},
      s.models[s.pool.class_of[s.identity]]);
  if (!streamed.transport_ok || streamed.status != 200 ||
      streamed.body != batch) {
    r.fail_check("identity tenant's streamed report differs from "
                 "serve::batch_report_json over the same bytes and model");
  }
}

Summary latency_of(const std::vector<LoadRequest>& reqs, const LoadRun& run,
                   bool reports) {
  std::vector<double> v;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].report == reports) v.push_back(run.outcomes[i].latency_ms);
  }
  return summarize(v);
}

RunResult trace_serve(const Options& o);

}  // namespace

RunResult run_serve(const Options& o) {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) {
    RunResult r;
    r.fail_check("no CPU to run on");
    return r;
  }
  pin_to_cpu(cpus.front());
  if (o.trace) return trace_serve(o);
  RunResult r;
  std::mt19937_64 rng(o.seed);

  std::vector<double> setups;
  std::unique_ptr<ServeSetup> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    const auto t = Clock::now();
    s = std::make_unique<ServeSetup>();
    std::string error;
    if (!set_up(o, false, *s, nullptr, 0, error)) {
      r.fail_check(error);
      return r;
    }
    setups.push_back(seconds_since(t));
  }
  const std::uint16_t port = s->daemon.port();
  LoadTally tally;

  const std::vector<LoadRequest> identity_req = {
      LoadRequest{false, s->identity, "identity", 0.0}};
  tally.add(r, identity_req,
            run_load(port, identity_req, s->pool.pcaps, 1, false));

  const auto n_a = static_cast<std::size_t>(
      std::llround(kOpenRate * kOpenShare * o.seconds / kRounds));
  const std::vector<LoadRequest> warmup =
      closed_loop_requests(rng, s->pool, 0, kWarmup);
  tally.add(r, warmup, run_load(port, warmup, s->pool.pcaps, o.jobs, false));

  std::vector<double> upload_ms, report_ms, late_ms, capacities;
  double cpu_b = 0.0;
  RssSampler rss(s->daemon.pid());
  for (std::size_t k = 0; k < kRounds; ++k) {
    const int cpu = cpus[k % cpus.size()];
    pin_to_cpu(cpu, s->daemon.pid());
    const std::vector<LoadRequest> open =
        open_loop_requests(rng, s->pool, k, kOpenRate, n_a);
    LoadRun run_a;
    {
      const IdleSpinner spinner(cpu);
      run_a = run_load(port, open, s->pool.pcaps, o.jobs, true);
    }
    tally.add(r, open, run_a);
    for (std::size_t i = 0; i < open.size(); ++i) {
      const LoadOutcome& out = run_a.outcomes[i];
      (open[i].report ? report_ms : upload_ms).push_back(out.latency_ms);
      late_ms.push_back(out.late_ms);
    }

    const std::vector<LoadRequest> batch =
        closed_loop_requests(rng, s->pool, k, kBatchUploads);
    const double cpu0 = proc_cpu_s(s->daemon.pid());
    const LoadRun run_b = run_load(port, batch, s->pool.pcaps, o.jobs, false);
    cpu_b += proc_cpu_s(s->daemon.pid()) - cpu0;
    tally.add(r, batch, run_b);
    capacities.push_back(static_cast<double>(batch.size()) / run_b.wall_s);
  }
  const double rss_p95 = rss.stop();
  pin_to_cpu(cpus.front(), s->daemon.pid());
  check_daemon(r, *s, tally, nullptr);
  s->daemon.stop();

  const Summary uploads = summarize(upload_ms);
  const Summary reports = summarize(report_ms);
  const Summary late = summarize(late_ms);
  const double capacity = median(capacities);
  std::printf("serve: %zu rounds of %zu open-loop requests at %.0f/s and "
              "%zu closed-loop uploads, %zu connections, one CPU a round\n",
              kRounds, n_a, kOpenRate, kBatchUploads, o.jobs);
  std::printf("  upload mix (deployed units):");
  for (const TenantClass& c : tenant_classes()) {
    std::printf(" %s %.0f", c.device->id.c_str(), c.units);
  }
  std::printf("; %zu captures\n", s->pool.pcaps.size());
  std::printf("  uploads: n=%zu p50 %.3f ms p75 %.3f ms p90 %.3f ms p99 %.3f "
              "ms (%zu beyond p99) max %.3f ms\n",
              uploads.count, uploads.p50, uploads.p75, uploads.p90,
              uploads.p99, uploads.beyond_p99, uploads.max);
  std::printf("  report reads: n=%zu p50 %.3f ms max %.3f ms\n",
              reports.count, reports.p50, reports.max);
  std::printf("  generator lateness: p50 %.3f ms p99 %.3f ms\n", late.p50,
              late.p99);
  std::printf("  closed loop per round:");
  for (const double c : capacities) std::printf(" %.0f/s", c);
  std::printf("\n");
  std::printf("  daemon CPU over the closed loops %.2f s, rss p95 %.1f MiB\n",
              cpu_b, rss_p95);
  std::printf("  fail_frac %.6f (%llu of %llu requests; %llu shed, %llu "
              "degraded, %llu failed report reads)\n",
              static_cast<double>(r.failed) / static_cast<double>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(tally.shed),
              static_cast<unsigned long long>(tally.degraded),
              static_cast<unsigned long long>(tally.failed_reports));
  if (!tally.first_error.empty()) {
    std::printf("  first transport error: %s\n", tally.first_error.c_str());
  }

  r.set("setup_s", median(setups), "s");
  r.set("wall_s", static_cast<double>(kRounds * kBatchUploads) / capacity,
        "s");
  r.set("cpu_s", cpu_b, "s");
  r.set("rss_p95_mb", rss_p95, "MiB");
  r.set("serve_p50_ms", uploads.p50, "ms");
  r.set("serve_p75_ms", uploads.p75, "ms");
  r.set("report_p50_ms", reports.p50, "ms");
  r.set("serve_capacity_sps", capacity, "1/s");
  return r;
}

namespace {

RunResult trace_serve(const Options& o) {
  RunResult r;
  std::mt19937_64 rng(o.seed);
  Tracer tracer;
  Tracer* tr = &tracer;
  ServeSetup s;
  LoadTally tally;
  double traced_closed = 0.0, untraced_closed = 0.0;
  std::vector<LoadRequest> nominal;
  LoadRun nominal_run;
  std::vector<double> session_ms;
  std::uint64_t decodes = 0, packets = 0, bytes = 0, flows = 0, units = 0,
                classified = 0;
  std::string health;
  double traced_wall = 0.0;
  {
    const Span root(tr, "serve", 0, "serve");
    {
      const Span setup(tr, "setup", root.id(), "setup");
      std::string error;
      if (!set_up(o, true, s, tr, setup.id(), error)) {
        r.fail_check(error);
        return r;
      }
    }
    const std::uint16_t port = s.daemon.port();
    const std::size_t n_pool = s.pool.pcaps.size();
    const std::vector<LoadRequest> identity_req = {
        LoadRequest{false, s.identity, "identity", 0.0}};
    tally.add(r, identity_req,
              run_load(port, identity_req, s.pool.pcaps, 1, false, tr,
                       root.id()));

    // The latency curve: open loops at fixed multiples of the open-loop
    // rate, up to about two thirds of one CPU's capacity, 1.5 s each.
    std::printf("serve trace: latency by offered rate (%zu connections)\n",
                o.jobs);
    std::size_t step_round = 0;
    {
      const IdleSpinner spinner(allowed_cpus().front());
      for (const double factor : {0.5, 1.0, 2.0, 4.0, 6.0}) {
        const double rate = kOpenRate * factor;
        const std::vector<LoadRequest> reqs =
            open_loop_requests(rng, s.pool, step_round++, rate,
                               static_cast<std::size_t>(rate * 1.5));
        const Span step(tr, "sweep", root.id(), std::to_string(rate));
        LoadRun run = run_load(port, reqs, s.pool.pcaps, o.jobs, true, tr,
                               step.id());
        tally.add(r, reqs, run);
        const Summary up = latency_of(reqs, run, false);
        std::printf("  %6.0f/s: uploads n=%zu p50 %.3f ms p99 %.3f ms\n",
                    rate, up.count, up.p50, up.p99);
        if (factor == 1.0) {
          nominal = reqs;
          nominal_run = std::move(run);
        }
      }
    }

    // Tracing overhead on the closed loop: the same upload count without
    // and with spans.
    const std::vector<LoadRequest> closed =
        closed_loop_requests(rng, s.pool, step_round, 1500);
    const LoadRun plain = run_load(port, closed, s.pool.pcaps, o.jobs, false);
    tally.add(r, closed, plain);
    untraced_closed = plain.wall_s;
    {
      const Span loop(tr, "closed_loop", root.id(), "closed");
      const LoadRun traced =
          run_load(port, closed, s.pool.pcaps, o.jobs, false, tr, loop.id());
      tally.add(r, closed, traced);
      traced_closed = traced.wall_s;
    }

    // Each distinct upload once more, outside the daemon: the session and
    // fold code (batch_report_json), then the layers under it.
    const Span replay(tr, "replay", root.id(), "replay");
    for (std::size_t i = 0; i < n_pool; ++i) {
      const std::vector<std::uint8_t>& pcap = s.pool.pcaps[i];
      const std::vector<std::uint8_t>& model_bytes =
          s.models[s.pool.class_of[i]];
      const auto t = Clock::now();
      {
        const Span sp(tr, "serve.batch_report_json", replay.id());
        serve::batch_report_json("replay", pcap, {}, model_bytes);
      }
      session_ms.push_back(to_ms(Clock::now() - t));
      std::optional<std::vector<net::PacketView>> views;
      {
        const Span sp(tr, "net.pcap_parse_views", replay.id());
        views = net::pcap_parse_views(pcap);
      }
      if (!views) {
        r.fail_check("an upload from the pool does not parse as pcap");
        continue;
      }
      const testbed::DeviceSpec& device =
          *tenant_classes()[s.pool.class_of[i]].device;
      flow::DnsCache dns;
      flow::FlowTable table;
      flow::MetaCollector collector(testbed::device_mac(device, true));
      flow::IngestPipeline pipeline;
      pipeline.add_sink(dns);
      pipeline.add_sink(table);
      pipeline.add_sink(collector);
      const std::uint64_t decode0 = net::decode_packet_calls();
      {
        const Span sp(tr, "flow.IngestPipeline::ingest_views", replay.id());
        pipeline.ingest_views(*views);
        pipeline.finish();
      }
      decodes += net::decode_packet_calls() - decode0;
      packets += pipeline.packets_seen();
      bytes += pipeline.bytes_seen();
      std::vector<flow::Flow> f;
      {
        const Span sp(tr, "flow.FlowTable::flows", replay.id());
        f = table.flows();
      }
      flows += f.size();
      {
        const Span sp(tr, "analysis.account_flows", replay.id());
        analysis::account_flows(f);
      }
      serve::DetectorModel model;
      {
        const Span sp(tr, "serve.DetectorModel::parse", replay.id());
        model = serve::DetectorModel::parse(model_bytes);
      }
      const Span sp(tr, "ml.run_detector", replay.id());
      const serve::DetectionOutcome outcome =
          serve::run_detector(model, collector.meta());
      units += outcome.units_total;
      classified += outcome.units_classified;
    }
  }
  for (const SpanRecord& sp : tracer.spans()) {
    if (sp.name == "serve") {
      traced_wall = static_cast<double>(sp.end_ns - sp.start_ns) / 1e9;
    }
  }
  check_daemon(r, s, tally, &health);
  const HttpResult metrics = http_call(s.daemon.port(), "GET", "/metrics");
  s.daemon.stop();

  const std::vector<SpanRecord> spans = tracer.spans();
  const Attribution a = attribute(spans, kLayers);
  // The overhead compares like with like: the closed loop with spans
  // against the same loop without.
  add_attribution(r, a, traced_closed, untraced_closed);

  const auto total = [&](const char* name) {
    const auto it = a.name_total_s.find(name);
    return it == a.name_total_s.end() ? 0.0 : it->second;
  };
  std::vector<double> connect, send, wait, report_bytes, late;
  std::size_t ok_nominal = 0;
  for (std::size_t i = 0; i < nominal.size(); ++i) {
    const LoadOutcome& out = nominal_run.outcomes[i];
    const HttpResult& h = out.http;
    late.push_back(out.late_ms);
    if (out.ok) ++ok_nominal;
    if (!h.transport_ok) continue;
    if (nominal[i].report) {
      report_bytes.push_back(static_cast<double>(h.body.size()));
      continue;
    }
    connect.push_back(to_ms(h.connected - h.start));
    send.push_back(to_ms(h.sent - h.connected));
    wait.push_back(to_ms(h.first_byte - h.sent));
  }
  const Summary waits = summarize(wait);
  const Summary lateness = summarize(late);
  r.set("serve.connect_p50_ms", median(connect), "ms");
  r.set("serve.send_p50_ms", median(send), "ms");
  r.set("serve.wait_p50_ms", waits.p50, "ms");
  r.set("serve.wait_p99_ms", waits.p99, "ms");
  r.set("serve.session_work_ms", median(session_ms), "ms");
  r.set("serve.report_bytes", median(report_bytes), "bytes");
  const auto hfield = [&](const char* name) {
    return std::max(0.0, json_number_field(health, name, 0.0));
  };
  r.set("serve.completed", hfield("sessions_completed"), "count");
  r.set("serve.shed", hfield("sessions_shed"), "count");
  r.set("serve.quarantined", hfield("sessions_quarantined"), "count");
  r.set("serve.degraded_admits", hfield("truncate") + hfield("sample"),
        "count");
  r.set("serve.ladder_transitions", hfield("ladder_transitions"), "count");
  const std::size_t hist = metrics.body.find("\"serve/admission_latency_ns\"");
  const std::string admission =
      hist == std::string::npos ? std::string() : metrics.body.substr(hist);
  const double count = json_number_field(admission, "count", 0.0);
  r.set("serve.admission_mean_us",
        count > 0.0 ? json_number_field(admission, "sum", 0.0) / count / 1e3
                    : 0.0,
        "us");
  const double span_s =
      nominal.empty() ? 0.0 : nominal.back().due_s - nominal.front().due_s;
  r.set("gen.offered_sps",
        span_s > 0.0 ? static_cast<double>(nominal.size() - 1) / span_s : 0.0,
        "1/s");
  r.set("gen.achieved_sps",
        nominal_run.wall_s > 0.0
            ? static_cast<double>(ok_nominal) / nominal_run.wall_s
            : 0.0,
        "1/s");
  r.set("gen.late_p50_ms", lateness.p50, "ms");
  r.set("gen.late_p99_ms", lateness.p99, "ms");
  r.set("testbed.synth_s", total("testbed.ExperimentRunner::run") +
                               total("testbed.TrafficSynthesizer::background"),
        "s");
  r.set("testbed.captures", static_cast<double>(s.pool.pcaps.size()), "count");
  r.set("testbed.packets", static_cast<double>(s.pool.packets), "count");
  std::uint64_t pool_bytes = 0;
  for (const auto& p : s.pool.pcaps) pool_bytes += p.size();
  r.set("testbed.bytes", static_cast<double>(pool_bytes), "bytes");
  r.set("flow.ingest_s", total("flow.IngestPipeline::ingest_views"), "s");
  r.set("flow.packets", static_cast<double>(packets), "count");
  r.set("flow.bytes", static_cast<double>(bytes), "bytes");
  r.set("flow.flows", static_cast<double>(flows), "count");
  r.set("flow.flows_copy_s", total("flow.FlowTable::flows"), "s");
  r.set("net.decodes_per_packet",
        packets == 0 ? 0.0
                     : static_cast<double>(decodes) /
                           static_cast<double>(packets),
        "ratio");
  r.set("analysis.encryption_s", total("analysis.account_flows"), "s");
  r.set("ml.train_s", total("ml.train_activity_model"), "s");
  std::size_t rows = 0;
  for (const std::size_t n : s.train_rows) rows += n;
  r.set("ml.train_rows", static_cast<double>(rows), "count");
  r.set("ml.idle_detect_s", total("ml.run_detector"), "s");
  r.set("ml.detect_units", static_cast<double>(units), "count");
  r.set("ml.units_classified", static_cast<double>(classified), "count");
  std::printf(
      "  traced wall %.3f s; batch_report_json per upload p50 %.3f ms\n",
      traced_wall, median(session_ms));
  write_trace(o, tracer);
  return r;
}

}  // namespace

}  // namespace perfbench
