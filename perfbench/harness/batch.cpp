// The batch workloads: `campaign` (the default Study into an empty
// artifact store, then the report directory) and `rerun` (the same
// campaign over a store this build filled before the timed runs), plus
// their traced replays.
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>

#include "iotx/cache/artifact_store.hpp"
#include "iotx/core/study.hpp"
#include "iotx/core/study_cache.hpp"
#include "iotx/net/packet.hpp"
#include "iotx/report/report.hpp"
#include "iotx/testbed/catalog.hpp"
#include "iotx/util/prng.hpp"
#include "iotx/util/task_pool.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;
using namespace iotx;

namespace {

/// (config, device) pairs of the default campaign: 81 devices over us,
/// uk, us-vpn and uk-vpn, each device in the labs that hold it.
constexpr std::size_t kPairs = 162;
/// Set-ups per run (about 2 ms each); set-up time is their median.
constexpr int kSetups = 41;
/// report_p50_ms is the median of this many report renderings (about
/// a second of work, so it spans the host's second-to-second wander).
constexpr std::size_t kReportRenders = 160;

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

std::string expected_digest(const Options& o) {
  return json_string_field(read_file(o.baseline_path), "report_digest");
}

core::StudyParams study_params(const Options& o, const std::string& store) {
  core::StudyParams p;
  p.jobs = o.jobs;
  p.cache_dir = store;
  return p;
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file()) total += it->file_size();
  }
  return total;
}

struct BatchPass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string digest;
  std::size_t pairs = 0;
  std::size_t failed = 0;
  cache::ArtifactStoreStats cache;
};

/// The timed operation of both batch workloads: Study::run() through the
/// return of write_report_directory.
BatchPass timed_pass(core::Study& study, const std::string& out_dir) {
  fs::remove_all(out_dir);
  BatchPass pass;
  const double cpu0 = self_cpu_s();
  const auto t0 = Clock::now();
  study.run();
  const bool wrote = report::write_report_directory(study, out_dir);
  pass.wall_s = seconds_since(t0);
  pass.cpu_s = self_cpu_s() - cpu0;
  pass.digest = wrote ? directory_digest(out_dir) : std::string();
  for (const std::string& key : study.config_keys()) {
    for (const core::DeviceRunResult& r : study.results(key)) {
      ++pass.pairs;
      if (r.status == core::RunStatus::kQuarantined ||
          r.status == core::RunStatus::kSkipped) {
        ++pass.failed;
      }
    }
  }
  pass.cache = study.cache_stats();
  return pass;
}

void check_pass(RunResult& r, const BatchPass& pass,
                const std::string& expected) {
  if (pass.pairs != kPairs) {
    r.fail_check("campaign ran " + std::to_string(pass.pairs) +
                 " (config, device) pairs, expected " +
                 std::to_string(kPairs));
  }
  if (pass.digest != expected) {
    r.fail_check("report directory digest " + pass.digest +
                 " differs from the recorded " + expected);
  }
}

/// The documents of the report directory, as write_report_directory
/// builds and names them.
struct Document {
  const char* file;
  std::string (*build)(const core::Study&);
};
constexpr Document kDocuments[] = {
    {"table2.json", report::table2_json},
    {"table3.json", report::table3_json},
    {"table4.json", report::table4_json},
    {"figure2.json", report::figure2_json},
    {"table5.json", report::table5_json},
    {"table6.json", report::table6_json},
    {"table7.json", report::table7_json},
    {"table8.json", report::table8_json},
    {"table9.json", report::table9_json},
    {"table10.json", report::table10_json},
    {"table11.json", report::table11_json},
    {"pii.json", report::pii_json},
    {"lifecycle.json", report::lifecycle_json},
    {"robustness.json", report::robustness_json},
    {"robustness.txt", report::robustness_text},
    {"report.json", report::full_report_json},
};

/// Checks that kDocuments is what write_report_directory wrote to `dir`
/// for this study: the same file names, each file the document's
/// rendering plus a newline. So the renderings report_p50_ms times stay
/// the program's report.
void check_documents(RunResult& r, const core::Study& study,
                     const std::string& dir) {
  std::set<std::string> written, listed;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file()) {
      written.insert(fs::relative(it->path(), dir).generic_string());
    }
  }
  for (const Document& d : kDocuments) {
    listed.insert(d.file);
    if (read_file(dir + "/" + d.file) != d.build(study) + "\n") {
      r.fail_check(std::string(d.file) + " in " + dir +
                   " differs from its in-memory rendering");
    }
  }
  if (written != listed) {
    r.fail_check("the report directory " + dir + " holds " +
                 std::to_string(written.size()) +
                 " files, not the rendered documents");
  }
}

/// Renders every document of the finished study's report directory in
/// memory and returns the latencies in ms: the report's CPU cost without
/// the file system, whose latency on this host varies more than the
/// rendering does. The renderings take the CPUs this process may use in
/// turn: on a shared virtual machine one vCPU can run single-threaded
/// code a third slower than another, and which CPU the thread happened
/// to land on decided the median. Every rendering must equal the first.
std::vector<double> report_renders(RunResult& r, const core::Study& study,
                                   std::size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  std::vector<double> out;
  std::string first;
  for (std::size_t i = 0; i < count && r.correct; ++i) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    const auto t = Clock::now();
    std::string all;
    for (const Document& d : kDocuments) all += d.build(study);
    out.push_back(to_ms(Clock::now() - t));
    if (i == 0) {
      first = std::move(all);
    } else if (all != first) {
      r.fail_check("the report rendered differently the second time");
    }
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  return out;
}

void print_batch(const char* workload, const std::vector<double>& walls,
                 std::uint64_t attempted, std::uint64_t failed) {
  const Summary w = summarize(walls);
  std::printf("%s: %zu timed pass(es), wall p50 %.3f s p75 %.3f s\n",
              workload, w.count, w.p50, w.p75);
  std::printf("  fail_frac %.6f (%llu of %llu pairs quarantined or skipped)\n",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
}

/// The serving metrics' batch analogue: the unit of work is a whole
/// pass, so latency is the pass wall time and capacity is pairs per
/// second.
void set_batch_metrics(RunResult& r, const std::vector<double>& setups,
                       const std::vector<double>& walls,
                       const std::vector<double>& cpus,
                       const std::vector<double>& reports, double rss_p95) {
  const Summary w = summarize(walls);
  r.set("setup_s", median(setups), "s");
  r.set("wall_s", w.p50, "s");
  r.set("cpu_s", median(cpus), "s");
  r.set("rss_p95_mb", rss_p95, "MiB");
  r.set("serve_p50_ms", w.p50 * 1e3, "ms");
  r.set("serve_p75_ms", w.p75 * 1e3, "ms");
  r.set("report_p50_ms", median(reports), "ms");
  r.set("serve_capacity_sps", static_cast<double>(kPairs) / w.p50, "1/s");
}

// ---------------------------------------------------------------------
// Traced replays

/// Counts gathered at the layer boundaries of a replay.
struct ReplayCounts {
  std::uint64_t captures = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t flows = 0;
  std::uint64_t pii_bytes = 0;
  std::uint64_t pii_findings = 0;
  std::uint64_t train_rows = 0;
  std::uint64_t detect_units = 0;
  std::uint64_t units_classified = 0;

  void add(const ReplayCounts& o) {
    captures += o.captures;
    packets += o.packets;
    bytes += o.bytes;
    flows += o.flows;
    pii_bytes += o.pii_bytes;
    pii_findings += o.pii_findings;
    train_rows += o.train_rows;
    detect_units += o.detect_units;
    units_classified += o.units_classified;
  }
};

/// What a replayed pair produced, compared against Study::result_for and
/// against the artifacts the Study stored under the same stage keys.
struct PairOutput {
  std::vector<analysis::DestinationRecord> destinations;
  analysis::EncryptionBytes enc_total;
  std::vector<analysis::PiiFinding> pii;
  analysis::ActivityModel model;
  analysis::IdleDetections idle;
  std::string ingest_key, ingest_digest;
  std::string model_key, model_digest;
};

struct PairSlot {
  const testbed::DeviceSpec* device;
  testbed::NetworkConfig config;
};

/// The (config, device) pairs in Study::run's order.
std::vector<PairSlot> campaign_pairs() {
  std::vector<PairSlot> out;
  for (const testbed::NetworkConfig& config : testbed::all_network_configs()) {
    for (const testbed::DeviceSpec& device : testbed::device_catalog()) {
      const bool present = config.lab == testbed::LabSite::kUs
                               ? device.in_us()
                               : device.in_uk();
      if (present) out.push_back(PairSlot{&device, config});
    }
  }
  return out;
}

std::string pair_key(const PairSlot& p) {
  return p.config.key() + "/" + p.device->id;
}

bool same_destinations(const std::vector<analysis::DestinationRecord>& a,
                       const std::vector<analysis::DestinationRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (!(x.address == y.address) || x.domain != y.domain ||
        x.sld != y.sld || x.organization != y.organization ||
        x.party != y.party || x.country != y.country || x.bytes != y.bytes ||
        x.packets != y.packets) {
      return false;
    }
  }
  return true;
}

bool same_encryption(const analysis::EncryptionBytes& a,
                     const analysis::EncryptionBytes& b) {
  return a.encrypted == b.encrypted && a.unencrypted == b.unencrypted &&
         a.unknown == b.unknown && a.media == b.media;
}

bool same_pii(const std::vector<analysis::PiiFinding>& a,
              const std::vector<analysis::PiiFinding>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].encoding != b[i].encoding ||
        a[i].domain != b[i].domain ||
        !(a[i].destination == b[i].destination)) {
      return false;
    }
  }
  return true;
}

/// Checks that the replay stored, under each stage key, exactly the
/// artifact the Study stored in `ref`; returns an empty string on a match,
/// else what differed.
std::string compare_artifacts(cache::ArtifactStore& ref,
                              const PairOutput& out) {
  const auto stored = ref.load(out.ingest_key);
  if (!stored) return "no ingest artifact in the Study's store";
  if (stored->content_hex != out.ingest_digest) return "ingest artifact";
  const auto model = ref.load(out.model_key);
  if (!model) return "no model artifact in the Study's store";
  if (model->content_hex != out.model_digest) return "model artifact";
  return {};
}

/// Checks one replayed pair against the Study's result for it; returns
/// an empty string on a match, else what differed.
std::string compare_pair(const core::Study& study, const PairSlot& slot,
                         const std::vector<analysis::DestinationRecord>& dest,
                         const analysis::EncryptionBytes& enc,
                         const std::vector<analysis::PiiFinding>& pii,
                         const analysis::ActivityModel& model,
                         const analysis::IdleDetections& idle) {
  const core::DeviceRunResult* ref =
      study.result_for(slot.config.key(), slot.device->id);
  if (ref == nullptr) return "no Study result";
  if (!same_destinations(dest, ref->destinations)) return "destinations";
  if (!same_encryption(enc, ref->enc_total)) return "encryption";
  if (!same_pii(pii, ref->pii_findings)) return "pii findings";
  if (model.device_f1() != ref->model.device_f1()) return "model F1";
  if (idle.instances != ref->idle.instances) return "idle detections";
  return {};
}

/// One pair of the campaign, replayed through public calls in
/// Study::run_device's stage order, each call in its own span.
PairOutput replay_pair(Tracer* tr, std::uint64_t root, const PairSlot& slot,
                       const core::Study& study,
                       const testbed::ExperimentRunner& runner,
                       cache::ArtifactStore& store, ReplayCounts& counts) {
  const testbed::DeviceSpec& device = *slot.device;
  const testbed::NetworkConfig& config = slot.config;
  const core::StudyParams& params = study.params();
  const std::string key = pair_key(slot);
  const Span pair(tr, "pair", root, key);
  const std::uint64_t P = pair.id();

  PairOutput out;
  faults::CaptureHealth health;

  analysis::AttributionContext ctx;
  {
    const Span s(tr, "core.Study::attribution_context", P, key);
    ctx = study.attribution_context(config);
  }
  testbed::PiiTokens tokens;
  {
    const Span s(tr, "testbed.pii_tokens", P, key);
    tokens = testbed::pii_tokens(device, config.lab);
  }
  const analysis::PiiScanner scanner({
      {"mac", tokens.mac},
      {"uuid", tokens.uuid},
      {"device_id", tokens.device_id},
      {"owner_name", tokens.owner_name},
      {"email", tokens.email},
      {"geo_city", tokens.geo_city},
  });
  const net::MacAddress mac =
      testbed::device_mac(device, config.lab == testbed::LabSite::kUs);

  analysis::DestinationAccumulator merged;
  std::set<std::pair<std::string, std::uint32_t>> seen_pii;
  std::set<std::tuple<std::string, std::string, std::uint32_t>> seen_phase_pii;
  std::map<std::string, analysis::PartyCounts> parties_by_group;
  std::map<std::string, analysis::EncryptionBytes> enc_by_group;
  std::map<std::string, analysis::PartyCounts> parties_by_phase;
  std::map<std::string, analysis::EncryptionBytes> enc_by_phase;
  std::map<std::string, std::vector<analysis::PiiFinding>> pii_by_phase;
  std::vector<analysis::LabeledMeta> training;
  std::vector<flow::PacketMeta> idle_meta;
  std::uint64_t experiments = 0, packets = 0, peak_bytes = 0;
  ReplayCounts local;

  std::vector<testbed::ExperimentSpec> specs;
  {
    const Span s(tr, "testbed.ExperimentRunner::schedule", P, key);
    specs = runner.schedule(device, config);
  }
  for (const testbed::ExperimentSpec& spec : specs) {
    testbed::LabeledCapture capture;
    {
      const Span s(tr, "testbed.ExperimentRunner::run", P, key);
      capture = runner.run(spec, device);
    }
    ++experiments;
    flow::DnsCache dns;
    flow::FlowTable table;
    flow::MetaCollector collector(mac);
    flow::IngestPipeline pipeline;
    pipeline.add_sink(dns);
    pipeline.add_sink(table);
    pipeline.add_sink(collector);
    {
      const Span s(tr, "flow.IngestPipeline::ingest_all", P, key);
      pipeline.ingest_all(capture.packets);
      pipeline.finish();
    }
    packets += pipeline.packets_seen();
    peak_bytes = std::max(peak_bytes, pipeline.bytes_seen());
    local.captures += 1;
    local.packets += pipeline.packets_seen();
    local.bytes += pipeline.bytes_seen();
    health.merge(pipeline.health());
    health.merge(dns.health());
    health.merge(table.health());
    health.merge(collector.health());

    std::vector<flow::Flow> flows;
    {
      const Span s(tr, "flow.FlowTable::flows", P, key);
      flows = table.flows();
    }
    local.flows += flows.size();
    std::vector<analysis::DestinationRecord> records;
    {
      const Span s(tr, "analysis.attribute_destinations", P, key);
      records = analysis::attribute_destinations(flows, dns, ctx,
                                                 device.first_party_orgs);
    }
    analysis::EncryptionBytes enc;
    {
      const Span s(tr, "analysis.account_flows", P, key);
      enc = analysis::account_flows(flows);
    }
    {
      // The scanner reads the payload samples of every flow that is not
      // protocol-encrypted; count those bytes for pii_mb_per_s.
      const Span s(tr, "analysis.classify_flow", P, key);
      for (const flow::Flow& f : flows) {
        if (analysis::classify_flow(f).cls !=
            analysis::EncryptionClass::kEncrypted) {
          local.pii_bytes +=
              f.payload_sample_up.size() + f.payload_sample_down.size();
        }
      }
    }
    std::vector<analysis::PiiFinding> found;
    {
      const Span s(tr, "analysis.PiiScanner::scan", P, key);
      found = scanner.scan(flows);
    }

    // Every capture feeds its lifecycle-phase slice; lifecycle captures
    // feed nothing else (Study::ingest_labeled_capture).
    const std::string phase(testbed::lifecycle_phase_name(spec.phase));
    parties_by_phase[phase].merge(analysis::count_non_first_parties(records));
    enc_by_phase[phase] += enc;
    for (const analysis::PiiFinding& f : found) {
      if (seen_phase_pii.emplace(phase, f.kind, f.destination.value())
              .second) {
        pii_by_phase[phase].push_back(f);
      }
    }
    const bool idle = spec.type == testbed::ExperimentType::kIdle;
    if (spec.type != testbed::ExperimentType::kLifecycle) {
      const std::string group = core::experiment_group(spec);
      parties_by_group[group].merge(
          analysis::count_non_first_parties(records));
      if (!idle) {
        parties_by_group["Control"].merge(
            analysis::count_non_first_parties(records));
      }
      merged.add_all(records);
      enc_by_group[group] += enc;
      if (!idle) enc_by_group["Control"] += enc;
      out.enc_total += enc;
      for (analysis::PiiFinding& f : found) {
        if (seen_pii.emplace(f.kind, f.destination.value()).second) {
          out.pii.push_back(std::move(f));
        }
      }
    }
    std::vector<flow::PacketMeta> meta = collector.take();
    if (idle) {
      idle_meta = std::move(meta);
    } else {
      training.push_back(analysis::LabeledMeta{
          capture.spec.activity, std::move(meta),
          std::string(testbed::lifecycle_phase_name(spec.phase))});
    }
  }
  {
    const Span s(tr, "analysis.DestinationAccumulator::merged", P, key);
    out.destinations = merged.merged();
  }
  local.pii_findings += out.pii.size();

  const int n_background = std::max(4, params.plan.automated_reps / 2);
  for (int i = 0; i < n_background; ++i) {
    testbed::ExperimentSpec spec;
    spec.device_id = device.id;
    spec.config = config;
    spec.type = testbed::ExperimentType::kInteraction;
    spec.activity = std::string(analysis::kBackgroundLabel);
    spec.repetition = i;
    spec.start_time = testbed::kSimulationEpoch + 50000.0 + i * 100.0;
    util::Prng prng("bg/" + spec.key());
    std::vector<net::Packet> bg;
    {
      const Span s(tr, "testbed.TrafficSynthesizer::background", P, key);
      bg = runner.synthesizer().background(device, config, spec.start_time,
                                           spec.start_time + 60.0, prng);
    }
    flow::MetaCollector collector(mac);
    flow::IngestPipeline pipeline;
    pipeline.add_sink(collector);
    {
      const Span s(tr, "flow.IngestPipeline::ingest_all", P, key);
      pipeline.ingest_all(bg);
      pipeline.finish();
    }
    packets += pipeline.packets_seen();
    peak_bytes = std::max(peak_bytes, pipeline.bytes_seen());
    local.captures += 1;
    local.packets += pipeline.packets_seen();
    local.bytes += pipeline.bytes_seen();
    training.push_back(analysis::LabeledMeta{spec.activity, collector.take()});
  }

  core::IngestArtifact artifact;
  artifact.health = health;
  artifact.destinations = out.destinations;
  artifact.parties_by_group = std::move(parties_by_group);
  artifact.enc_by_group = std::move(enc_by_group);
  artifact.enc_total = out.enc_total;
  artifact.pii_findings = out.pii;
  artifact.parties_by_phase = std::move(parties_by_phase);
  artifact.enc_by_phase = std::move(enc_by_phase);
  artifact.pii_by_phase = std::move(pii_by_phase);
  artifact.training = std::move(training);
  artifact.idle_meta = std::move(idle_meta);
  artifact.experiments = experiments;
  artifact.packets_ingested = packets;
  artifact.peak_capture_bytes = peak_bytes;
  std::vector<std::uint8_t> payload;
  {
    const Span s(tr, "cache.IngestArtifact::encode", P, key);
    payload = artifact.encode();
  }
  {
    const Span s(tr, "core.ingest_stage_key", P, key);
    out.ingest_key = core::ingest_stage_key(params, device, config);
  }
  {
    const Span s(tr, "cache.ArtifactStore::store", P, key);
    out.ingest_digest = store.store(out.ingest_key, payload);
  }

  {
    const Span s(tr, "ml.train_activity_model", P, key);
    out.model = analysis::train_activity_model(
        device, config, artifact.training, params.inference, nullptr);
  }
  {
    const Span s(tr, "ml.detect_activity", P, key);
    out.idle = analysis::detect_activity(device, artifact.idle_meta,
                                         out.model, params.detector);
  }
  local.train_rows += out.model.dataset.size();
  local.detect_units += out.idle.units_total;
  local.units_classified += out.idle.units_classified;

  core::ModelArtifact model_artifact;
  model_artifact.model = std::move(out.model);
  model_artifact.idle = out.idle;
  {
    const Span s(tr, "cache.ModelArtifact::encode", P, key);
    payload = model_artifact.encode();
  }
  out.model = std::move(model_artifact.model);
  {
    const Span s(tr, "core.model_stage_key", P, key);
    out.model_key =
        core::model_stage_key(params, device, config, out.ingest_digest);
  }
  {
    const Span s(tr, "cache.ArtifactStore::store", P, key);
    out.model_digest = store.store(out.model_key, payload);
  }
  counts.add(local);
  return out;
}

struct UncontrolledOutput {
  analysis::EncryptionBytes enc;
  std::map<std::string, std::vector<analysis::UncontrolledFinding>> findings;
};

/// Study::run_uncontrolled through public calls: simulate the user study,
/// ingest each device's capture once, account encryption, audit against
/// the device's us-config model.
UncontrolledOutput replay_uncontrolled(
    Tracer* tr, std::uint64_t root, const core::StudyParams& params,
    const std::map<std::string, const analysis::ActivityModel*>& us_models,
    ReplayCounts& counts) {
  const Span phase(tr, "uncontrolled", root, "uncontrolled");
  const std::uint64_t P = phase.id();
  UncontrolledOutput out;
  testbed::UserStudyResult study;
  {
    const Span s(tr, "testbed.UserStudySimulator::simulate", P, "uncontrolled");
    study = testbed::UserStudySimulator().simulate(params.user_study);
  }
  for (const auto& [device_id, capture] : study.captures) {
    const testbed::DeviceSpec* device = testbed::find_device(device_id);
    if (device == nullptr) continue;
    flow::FlowTable table;
    flow::MetaCollector collector(testbed::device_mac(*device, true));
    flow::IngestPipeline pipeline;
    pipeline.add_sink(table);
    pipeline.add_sink(collector);
    {
      const Span s(tr, "flow.IngestPipeline::ingest_all", P, device_id);
      pipeline.ingest_all(capture);
      pipeline.finish();
    }
    counts.captures += 1;
    counts.packets += pipeline.packets_seen();
    counts.bytes += pipeline.bytes_seen();
    std::vector<flow::Flow> flows;
    {
      const Span s(tr, "flow.FlowTable::flows", P, device_id);
      flows = table.flows();
    }
    counts.flows += flows.size();
    {
      const Span s(tr, "analysis.account_flows", P, device_id);
      out.enc += analysis::account_flows(flows);
    }
    const auto it = us_models.find(device_id);
    if (it == us_models.end()) continue;
    const Span s(tr, "analysis.audit_uncontrolled", P, device_id);
    out.findings[device_id] = analysis::audit_uncontrolled(
        *device, collector.take(), *it->second, study.events,
        params.detector);
  }
  return out;
}

bool same_findings(
    const std::map<std::string, std::vector<analysis::UncontrolledFinding>>& a,
    const std::map<std::string, std::vector<analysis::UncontrolledFinding>>&
        b) {
  if (a.size() != b.size()) return false;
  for (const auto& [id, list] : a) {
    const auto it = b.find(id);
    if (it == b.end() || it->second.size() != list.size()) return false;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const auto& x = list[i];
      const auto& y = it->second[i];
      if (x.device_id != y.device_id || x.activity != y.activity ||
          x.detections != y.detections ||
          x.confirmed_intended != y.confirmed_intended ||
          x.confirmed_unintended != y.confirmed_unintended ||
          x.unmatched != y.unmatched) {
        return false;
      }
    }
  }
  return true;
}

/// Times write_report_directory of a finished study in a span and checks
/// the written bytes against the recorded digest.
void traced_report(RunResult& r, Tracer* tr, std::uint64_t root,
                   const core::Study& study, const std::string& dir,
                   const std::string& expected) {
  fs::remove_all(dir);
  {
    const Span s(tr, "report.write_report_directory", root, "report");
    if (!report::write_report_directory(study, dir)) {
      r.fail_check("traced report write failed");
    }
  }
  if (directory_digest(dir) != expected) {
    r.fail_check("traced report directory differs from the recorded digest");
  }
  r.set("report.bytes", static_cast<double>(directory_bytes(dir)), "bytes");
}

double span_total(const Attribution& a, const std::string& name) {
  const auto it = a.name_total_s.find(name);
  return it == a.name_total_s.end() ? 0.0 : it->second;
}

/// Per-layer metrics shared by both batch replays.
void set_replay_metrics(RunResult& r, const Attribution& a,
                        const std::vector<SpanRecord>& spans,
                        const ReplayCounts& c, std::uint64_t decodes,
                        const cache::ArtifactStoreStats& cache_stats) {
  std::vector<double> pair_s;
  for (const SpanRecord& s : spans) {
    if (s.name == "pair") {
      pair_s.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
    }
  }
  const Summary pairs = summarize(pair_s);
  r.set("core.pairs", static_cast<double>(pairs.count), "count");
  r.set("core.pair_p50_s", pairs.p50, "s");
  r.set("core.pair_max_s", pairs.max, "s");
  r.set("testbed.synth_s",
        span_total(a, "testbed.ExperimentRunner::run") +
            span_total(a, "testbed.TrafficSynthesizer::background"),
        "s");
  r.set("testbed.captures", static_cast<double>(c.captures), "count");
  r.set("testbed.packets", static_cast<double>(c.packets), "count");
  r.set("testbed.bytes", static_cast<double>(c.bytes), "bytes");
  r.set("testbed.user_study_s",
        span_total(a, "testbed.UserStudySimulator::simulate"), "s");
  r.set("flow.ingest_s", span_total(a, "flow.IngestPipeline::ingest_all"),
        "s");
  r.set("flow.packets", static_cast<double>(c.packets), "count");
  r.set("flow.bytes", static_cast<double>(c.bytes), "bytes");
  r.set("flow.flows", static_cast<double>(c.flows), "count");
  r.set("flow.flows_copy_s", span_total(a, "flow.FlowTable::flows"), "s");
  r.set("net.decodes_per_packet",
        c.packets == 0 ? 0.0
                       : static_cast<double>(decodes) /
                             static_cast<double>(c.packets),
        "ratio");
  r.set("analysis.destinations_s",
        span_total(a, "analysis.attribute_destinations") +
            span_total(a, "analysis.DestinationAccumulator::merged"),
        "s");
  r.set("analysis.encryption_s", span_total(a, "analysis.account_flows"), "s");
  const double pii_s = span_total(a, "analysis.PiiScanner::scan");
  r.set("analysis.pii_s", pii_s, "s");
  r.set("analysis.pii_bytes_scanned", static_cast<double>(c.pii_bytes),
        "bytes");
  r.set("analysis.pii_mb_per_s",
        pii_s > 0.0 ? static_cast<double>(c.pii_bytes) / 1048576.0 / pii_s
                    : 0.0,
        "MiB/s");
  r.set("analysis.pii_findings", static_cast<double>(c.pii_findings),
        "count");
  r.set("analysis.audit_s", span_total(a, "analysis.audit_uncontrolled"), "s");
  r.set("ml.train_s", span_total(a, "ml.train_activity_model"), "s");
  r.set("ml.train_rows", static_cast<double>(c.train_rows), "count");
  r.set("ml.idle_detect_s", span_total(a, "ml.detect_activity"), "s");
  r.set("ml.detect_units", static_cast<double>(c.detect_units), "count");
  r.set("ml.units_classified", static_cast<double>(c.units_classified),
        "count");
  r.set("cache.store_s",
        span_total(a, "cache.ArtifactStore::store") +
            span_total(a, "cache.IngestArtifact::encode") +
            span_total(a, "cache.ModelArtifact::encode"),
        "s");
  r.set("cache.bytes_written", static_cast<double>(cache_stats.bytes_written),
        "bytes");
  r.set("cache.load_s", span_total(a, "cache.ArtifactStore::load"), "s");
  r.set("cache.decode_s",
        span_total(a, "cache.IngestArtifact::decode") +
            span_total(a, "cache.ModelArtifact::decode"),
        "s");
  r.set("cache.bytes_read", static_cast<double>(cache_stats.bytes_read),
        "bytes");
  r.set("cache.hit_ratio", cache_stats.hit_rate(), "ratio");
  r.set("cache.corrupt", static_cast<double>(cache_stats.corrupt), "count");
  r.set("report.write_s", span_total(a, "report.write_report_directory"), "s");
}

RunResult trace_campaign(const Options& o, const std::string& expected) {
  RunResult r;
  const std::string root_dir = o.state_dir + "/campaign-trace";
  fresh_dir(root_dir + "/store");

  // Untraced reference: the Study the replay must equal, and the wall
  // time the tracing overhead is measured against.
  core::Study study(study_params(o, root_dir + "/store"));
  const BatchPass ref = timed_pass(study, root_dir + "/report");
  check_pass(r, ref, expected);
  r.attempted = ref.pairs;
  r.failed = ref.failed;
  const double ref_rss = peak_rss_mb();

  fresh_dir(root_dir + "/replay-store");
  cache::ArtifactStore store(root_dir + "/replay-store");
  const testbed::ExperimentRunner runner(study.params().plan);
  const std::vector<PairSlot> pairs = campaign_pairs();
  std::vector<PairOutput> outputs(pairs.size());
  std::vector<ReplayCounts> counts(pairs.size());
  Tracer tracer;
  const std::uint64_t decode0 = net::decode_packet_calls();
  double traced_wall = 0.0;
  ReplayCounts total;
  UncontrolledOutput uncontrolled;
  {
    const Span root(&tracer, "campaign", 0, "campaign");
    {
      util::TaskPool pool(o.jobs);
      pool.parallel_for_each(pairs.size(), [&](std::size_t i) {
        outputs[i] = replay_pair(&tracer, root.id(), pairs[i], study, runner,
                                 store, counts[i]);
      });
    }
    for (const ReplayCounts& c : counts) total.add(c);
    std::map<std::string, const analysis::ActivityModel*> us_models;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (pairs[i].config.key() == "us") {
        us_models[pairs[i].device->id] = &outputs[i].model;
      }
    }
    uncontrolled = replay_uncontrolled(&tracer, root.id(), study.params(),
                                       us_models, total);
    traced_report(r, &tracer, root.id(), study, root_dir + "/report-traced",
                  expected);
  }
  const std::uint64_t decodes = net::decode_packet_calls() - decode0;

  // The replay must have done the Study's work: the same results, and
  // byte-identical artifacts under the same stage keys, so the cache
  // spans timed what the Study writes.
  cache::ArtifactStore ref_store(root_dir + "/store");
  std::size_t matched = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const PairOutput& out = outputs[i];
    std::string diff =
        compare_pair(study, pairs[i], out.destinations, out.enc_total, out.pii,
                     out.model, out.idle);
    if (diff.empty()) diff = compare_artifacts(ref_store, out);
    if (diff.empty()) {
      ++matched;
    } else {
      r.fail_check("replay of " + pair_key(pairs[i]) +
                   " differs from the Study in " + diff);
    }
  }
  if (!same_encryption(uncontrolled.enc, study.uncontrolled_encryption()) ||
      !same_findings(uncontrolled.findings, study.uncontrolled_findings())) {
    r.fail_check("uncontrolled replay differs from the Study");
  }
  std::printf("campaign trace: replay matches Study::result_for and the "
              "Study's stored artifacts on %zu of %zu pairs\n",
              matched, outputs.size());

  const std::vector<SpanRecord> spans = tracer.spans();
  for (const SpanRecord& s : spans) {
    if (s.name == "campaign") {
      traced_wall = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    }
  }
  const Attribution a = attribute(spans, kLayers);
  add_attribution(r, a, traced_wall, ref.wall_s);
  set_replay_metrics(r, a, spans, total, decodes, store.stats());
  r.set("core.pool_util",
        ref.cpu_s / (ref.wall_s * static_cast<double>(o.jobs)), "ratio");
  r.set("core.peak_rss_mb", ref_rss, "MiB");
  write_trace(o, tracer);
  return r;
}

RunResult trace_rerun(const Options& o, const std::string& expected,
                      const std::string& store_dir) {
  RunResult r;
  const std::string root_dir = o.state_dir + "/rerun-trace";
  fs::create_directories(root_dir);

  // Untraced reference passes over the warm store.
  std::vector<double> walls, cpus;
  std::unique_ptr<core::Study> study;
  for (int i = 0; i < 5; ++i) {
    study = std::make_unique<core::Study>(study_params(o, store_dir));
    const BatchPass pass = timed_pass(*study, root_dir + "/report");
    check_pass(r, pass, expected);
    r.attempted += pass.pairs;
    r.failed += pass.failed;
    walls.push_back(pass.wall_s);
    cpus.push_back(pass.cpu_s);
  }
  const double ref_wall = median(walls);

  cache::ArtifactStore store(store_dir);
  const std::vector<PairSlot> pairs = campaign_pairs();
  const std::uint64_t decode0 = net::decode_packet_calls();
  std::vector<core::ModelArtifact> models(pairs.size());
  std::vector<std::string> diffs(pairs.size());
  const core::StudyParams& params = study->params();
  Tracer tracer;
  double traced_wall = 0.0;
  ReplayCounts total;
  UncontrolledOutput uncontrolled;
  {
    const Span root(&tracer, "rerun", 0, "rerun");
    {
      util::TaskPool pool(o.jobs);
      pool.parallel_for_each(pairs.size(), [&](std::size_t i) {
        const PairSlot& slot = pairs[i];
        const std::string key = pair_key(slot);
        const Span pair(&tracer, "pair", root.id(), key);
        const std::uint64_t P = pair.id();
        std::string ingest_key;
        {
          const Span s(&tracer, "core.ingest_stage_key", P, key);
          ingest_key =
              core::ingest_stage_key(params, *slot.device, slot.config);
        }
        std::optional<cache::ArtifactStore::Loaded> loaded;
        {
          const Span s(&tracer, "cache.ArtifactStore::load", P, key);
          loaded = store.load(ingest_key);
        }
        if (!loaded) {
          diffs[i] = "ingest artifact missing";
          return;
        }
        core::IngestArtifact ingest;
        {
          const Span s(&tracer, "cache.IngestArtifact::decode", P, key);
          ingest = core::IngestArtifact::decode(loaded->payload);
        }
        std::string model_key;
        {
          const Span s(&tracer, "core.model_stage_key", P, key);
          model_key = core::model_stage_key(params, *slot.device, slot.config,
                                            loaded->content_hex);
        }
        {
          const Span s(&tracer, "cache.ArtifactStore::load", P, key);
          loaded = store.load(model_key);
        }
        if (!loaded) {
          diffs[i] = "model artifact missing";
          return;
        }
        {
          const Span s(&tracer, "cache.ModelArtifact::decode", P, key);
          models[i] = core::ModelArtifact::decode(loaded->payload);
        }
        diffs[i] = compare_pair(*study, slot, ingest.destinations,
                                ingest.enc_total, ingest.pii_findings,
                                models[i].model, models[i].idle);
      });
    }
    std::map<std::string, const analysis::ActivityModel*> us_models;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (pairs[i].config.key() == "us") {
        us_models[pairs[i].device->id] = &models[i].model;
      }
    }
    uncontrolled =
        replay_uncontrolled(&tracer, root.id(), params, us_models, total);
    traced_report(r, &tracer, root.id(), *study, root_dir + "/report-traced",
                  expected);
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (!diffs[i].empty()) {
      r.fail_check("rerun replay of " + pair_key(pairs[i]) + ": " + diffs[i]);
    }
  }
  if (!same_encryption(uncontrolled.enc, study->uncontrolled_encryption()) ||
      !same_findings(uncontrolled.findings, study->uncontrolled_findings())) {
    r.fail_check("uncontrolled replay differs from the Study");
  }

  const std::vector<SpanRecord> spans = tracer.spans();
  for (const SpanRecord& s : spans) {
    if (s.name == "rerun") {
      traced_wall = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    }
  }
  const Attribution a = attribute(spans, kLayers);
  add_attribution(r, a, traced_wall, ref_wall);
  set_replay_metrics(r, a, spans, total,
                     net::decode_packet_calls() - decode0, store.stats());
  r.set("core.pool_util",
        median(cpus) / (ref_wall * static_cast<double>(o.jobs)), "ratio");
  r.set("core.peak_rss_mb", peak_rss_mb(), "MiB");
  write_trace(o, tracer);
  return r;
}

}  // namespace

int fill_store(const Options& o) {
  const std::string expected = expected_digest(o);
  const std::string store = o.state_dir + "/warm-store";
  fresh_dir(store);
  core::Study study(study_params(o, store));
  const BatchPass pass = timed_pass(study, o.state_dir + "/fill-report");
  if (pass.digest != expected || pass.pairs != kPairs || pass.failed != 0) {
    std::fprintf(stderr,
                 "fill: cold campaign report %s does not match the recorded "
                 "digest %s\n",
                 pass.digest.c_str(), expected.c_str());
    return 1;
  }
  std::printf("fill: warm store ready (%llu artifacts, %.1f s)\n",
              static_cast<unsigned long long>(pass.cache.stores), pass.wall_s);
  return 0;
}

/// The store a set-up probe opens: for campaign an empty one, which the
/// parent creates before the probes. Creating it is the benchmark's own
/// rm and mkdir, not the program's; timed in the probe, it let the median
/// set-up read 3.1 ms in one set of 10 runs and 2.3 ms in the next.
std::string probe_store(const Options& o, const std::string& workload) {
  return o.state_dir +
         (workload == "campaign" ? "/campaign/probe-store" : "/warm-store");
}

int setup_probe(const Options& o) {
  const core::Study study(study_params(
      o, probe_store(o, o.workload.substr(std::string("probe-").size()))));
  return ::write(STDOUT_FILENO, "1", 1) == 1 ? 0 : 1;
}

namespace {

/// Set-up time as a user meets it: from starting a fresh harness process
/// (`perfbench probe-<workload>`, see setup_probe) to the moment it has
/// built its Study and could call run(). The probe says so by writing
/// one byte to a pipe. Returns each probe's time in seconds.
std::vector<double> setup_probes(RunResult& r, const Options& o,
                                 const std::string& workload, int count) {
  std::vector<double> out;
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) {
    r.fail_check("cannot find the harness executable");
    return out;
  }
  exe[len] = '\0';
  std::vector<std::string> args = {exe,     "probe-" + workload,
                                   "--state", o.state_dir,
                                   "--baseline", o.baseline_path,
                                   "--jobs",  std::to_string(o.jobs)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  for (int i = 0; i < count && r.correct; ++i) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      r.fail_check("pipe2 failed");
      break;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    pid_t pid = -1;
    const auto t = Clock::now();
    const int rc =
        posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    char ready = 0;
    ssize_t n = -1;
    if (rc == 0) {
      do {
        n = ::read(fds[0], &ready, 1);
      } while (n < 0 && errno == EINTR);
    }
    const double elapsed = seconds_since(t);
    ::close(fds[0]);
    int status = 0;
    if (rc != 0 || ::waitpid(pid, &status, 0) != pid || n != 1 ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      r.fail_check("set-up probe for " + workload + " failed");
      break;
    }
    out.push_back(elapsed);
  }
  return out;
}

/// What distinguishes the two batch workloads' timed runs.
struct BatchPlan {
  const char* workload;
  std::string store;
  /// campaign: every Study starts from an empty store. rerun: the store
  /// was filled before the run, and every lookup must hit.
  bool cold;
  /// > 0: exactly this many passes; 0: passes until --seconds is used up.
  long passes;
};

/// The timed run both batch workloads share: kSetups set-ups, then the
/// passes, each checked against the recorded digest.
RunResult timed_batch(const Options& o, const std::string& expected,
                      const BatchPlan& plan) {
  RunResult r;
  const std::string root = o.state_dir + "/" + plan.workload;
  const auto make_study = [&] {
    if (plan.cold) fresh_dir(plan.store);
    return std::make_unique<core::Study>(study_params(o, plan.store));
  };

  if (plan.cold) fresh_dir(probe_store(o, plan.workload));
  const std::vector<double> setups =
      setup_probes(r, o, plan.workload, kSetups);
  if (!r.correct) return r;
  std::unique_ptr<core::Study> study = make_study();

  std::vector<double> walls, cpus;
  RssSampler rss;
  const auto begin = Clock::now();
  const auto another_pass = [&](long done) {
    return plan.passes > 0 ? done < plan.passes
                           : done == 0 || seconds_since(begin) < o.seconds;
  };
  for (long it = 0; another_pass(it); ++it) {
    if (it > 0) {
      study.reset();
      study = make_study();
    }
    const BatchPass pass = timed_pass(*study, root + "/report");
    check_pass(r, pass, expected);
    if (!plan.cold &&
        (pass.cache.hits != 2 * kPairs || pass.cache.misses != 0)) {
      r.fail_check("warm rerun missed the cache: " +
                   std::to_string(pass.cache.hits) + " hits, " +
                   std::to_string(pass.cache.misses) + " misses");
    }
    walls.push_back(pass.wall_s);
    cpus.push_back(pass.cpu_s);
    r.attempted += pass.pairs;
    r.failed += pass.failed;
    if (!r.correct) return r;
  }
  const double rss_p95 = rss.stop();
  check_documents(r, *study, root + "/report");
  const std::vector<double> reports = report_renders(r, *study, kReportRenders);
  print_batch(plan.workload, walls, r.attempted, r.failed);
  std::printf("  rss p95 %.1f MiB, high-water %.1f MiB\n", rss_p95,
              peak_rss_mb());
  set_batch_metrics(r, setups, walls, cpus, reports, rss_p95);
  return r;
}

}  // namespace

RunResult run_campaign(const Options& o) {
  const std::string expected = expected_digest(o);
  if (expected.empty()) {
    RunResult r;
    r.fail_check("no report_digest in " + o.baseline_path);
    return r;
  }
  if (o.trace) return trace_campaign(o, expected);
  // A cold campaign takes 16-20 s on 4 cores: one pass per 20 s of
  // --seconds, at least one, so every run does the same work.
  const long passes = std::max(1L, std::lround(o.seconds / 20));
  return timed_batch(o, expected,
                     BatchPlan{"campaign", o.state_dir + "/campaign/store",
                               true, passes});
}

RunResult run_rerun(const Options& o) {
  const std::string expected = expected_digest(o);
  const std::string store = o.state_dir + "/warm-store";
  RunResult r;
  if (expected.empty()) {
    r.fail_check("no report_digest in " + o.baseline_path);
    return r;
  }
  if (!fs::exists(store)) {
    r.fail_check("no warm store at " + store + " (run.py fills it)");
    return r;
  }
  if (o.trace) return trace_rerun(o, expected, store);
  return timed_batch(o, expected, BatchPlan{"rerun", store, false, 0});
}

}  // namespace perfbench
