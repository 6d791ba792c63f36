// picobench: the end-to-end and per-layer benchmark of the PicoFlow facility.
//
// One command runs a named workload (or all five) and prints every metric by
// name and unit. Each repetition runs in a fresh child process, checks its
// outputs against pinned values, and reports back one JSON line; the parent
// takes medians and quartiles. The benchmark only calls public functions of
// src/ and times them from outside.
//
//   hyper-real        Table-1 hyperspectral campaign on 8 MB real payloads:
//                     byte movement and spectral kernels dominate.
//   spatio-real       Table-1 spatiotemporal campaign on 8 MB real payloads:
//                     fp64->u8 convert and per-frame detection on the pool.
//   flows-100k        10^5 concurrent 3-step flows through one FlowService
//                     with null providers: pure orchestration, no telemetry.
//   federation-chaos  10^5 flows over 3 sites under site kill + brownout +
//                     partition: the same flow layer at 4000 in flight, plus
//                     broker, quotas and failover.
//   beamtime-48h      48 virtual hours of 91 MB virtual files with the full
//                     service stack and health plane: the only workload where
//                     telemetry and the campaign driver dominate wall clock.
//
// Usage: picobench --workload NAME|all [--reps N | --seconds S] [--seed S]
//                  [--traced] [--smoke] [--out FILE] [--spec BENCHMARK.json]
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics, or per-layer metrics with --traced.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/hyperspectral.hpp"
#include "analysis/metadata.hpp"
#include "analysis/plot.hpp"
#include "auth/auth.hpp"
#include "core/campaign.hpp"
#include "core/facility.hpp"
#include "core/report.hpp"
#include "emd/file.hpp"
#include "emd/schema.hpp"
#include "fault/schedule.hpp"
#include "federation/campaign.hpp"
#include "flow/service.hpp"
#include "harness.hpp"
#include "search/index.hpp"
#include "search/schema.hpp"
#include "sim/engine.hpp"
#include "util/bytes.hpp"
#include "util/crc64.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/threadpool.hpp"
#include "video/convert.hpp"
#include "video/mpk.hpp"
#include "vision/detect.hpp"
#include "vision/track.hpp"

using namespace pico;
using picobench::now_s;
using util::Json;

namespace {

const double kMainStart = now_s();

// ------------------------------------------------------------- metrics ----

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

// End-to-end metrics come from untraced repetitions only.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s", "lower"},        {"flows_per_s", "flows/s", "higher"},
    {"setup_s", "s", "lower"},       {"peak_rss_mb", "MB", "lower"},
    {"cpu_s", "s", "lower"},
};

// Per-layer metrics come from the traced repetition. Every workload reports
// every one of them; 0 means the workload does not exercise (or does not
// expose) that layer. Times measured on only some workloads are therefore
// reported as shares of wall time, rates or counts; their raw values are in
// the "raw" block of the report.
constexpr MetricDef kPerLayer[] = {
    {"proc.cpu_user_s", "s", "lower"},
    {"proc.cpu_sys_s", "s", "lower"},
    {"proc.minor_faults_per_flow", "count", "lower"},
    {"sim.events_per_flow", "count", "lower"},
    {"sim.cancelled_per_flow", "count", "lower"},
    {"sim.ns_per_event", "ns", "lower"},
    {"sim.vhour_growth", "ratio", "lower"},
    {"flow.start_share", "ratio", "lower"},
    {"flow.provider_share", "ratio", "lower"},
    {"flow.polls_per_step", "count", "lower"},
    {"flow.poll_hit_frac", "ratio", "higher"},
    {"flow.bytes_per_flow", "bytes", "lower"},
    {"flow.timing_from_spans_share", "ratio", "lower"},
    {"flow.retries", "count", "lower"},
    {"flow.timeouts", "count", "lower"},
    {"flow.breaker_trips", "count", "lower"},
    {"core.resubmits", "count", "lower"},
    {"core.crash_replays", "count", "lower"},
    {"core.lost", "count", "lower"},
    {"core.overhead_median_pct", "%", "lower"},
    {"federation.failovers", "count", "lower"},
    {"federation.resumed", "count", "higher"},
    {"federation.reconciled", "count", "higher"},
    {"federation.shed", "count", "lower"},
    {"federation.rejected_frac", "ratio", "lower"},
    {"federation.recovery_virtual_s", "virtual_s", "lower"},
    {"federation.p99_virtual_s", "virtual_s", "lower"},
    {"federation.jain", "ratio", "higher"},
    {"telemetry.spans_per_flow", "count", "lower"},
    {"telemetry.series", "count", "lower"},
    {"telemetry.snapshot_share", "ratio", "lower"},
    {"health.ticks", "count", "lower"},
    {"health.flight_rings", "count", "lower"},
    {"health.open_flows_share", "ratio", "lower"},
    {"health.tick_share", "ratio", "lower"},
    {"transfer.bytes_per_flow", "bytes", "lower"},
    {"transfer.retries", "count", "lower"},
    {"storage.resident_mb_end", "MB", "lower"},
    {"storage.crc64_gbps", "GB/s", "higher"},
    {"storage.crc64_copy_gbps", "GB/s", "higher"},
    {"emd.parse_gbps", "GB/s", "higher"},
    {"analysis.metadata_gbps", "GB/s", "higher"},
    {"analysis.hyperspectral_gbps", "GB/s", "higher"},
    {"analysis.element_maps_gbps", "GB/s", "higher"},
    {"analysis.artifacts_gbps", "GB/s", "higher"},
    {"video.convert_gbps", "GB/s", "higher"},
    {"vision.detect_gbps", "GB/s", "higher"},
    {"vision.track_gbps", "GB/s", "higher"},
    {"video.annotate_gbps", "GB/s", "higher"},
    {"search.build_record_per_s", "1/s", "higher"},
    {"search.ingest_docs_per_s", "1/s", "higher"},
    {"util.pool_utilization", "ratio", "higher"},
    {"util.pool_caller_frac", "ratio", "lower"},
    {"dataplane.replay_share", "ratio", "higher"},
    {"trace.overhead_frac", "ratio", "lower"},
};

const char* const kWorkloads[] = {"hyper-real", "spatio-real", "flows-100k",
                                  "federation-chaos", "beamtime-48h"};

// ------------------------------------------------------------- options ----

struct Options {
  std::string workload;
  uint64_t seed = 0;  ///< 0 = the pinned default inputs
  bool traced = false;
  bool smoke = false;
  int reps = 0;        ///< exact repetition count (0 = time box or default)
  double seconds = 0;  ///< time box for all repetitions of one workload
  std::string out;
  std::string spec;
  bool child = false;
};

std::string hex(uint64_t v) {
  return util::format("%016llx", static_cast<unsigned long long>(v));
}

/// Seed 0 keeps every base seed; any other seed perturbs them all.
uint64_t perturb(uint64_t base, uint64_t seed) {
  if (seed == 0) return base;
  uint64_t z = seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return base ^ (z ^ (z >> 31));
}

/// Artifact paths are part of the published records, so the directory is a
/// fixed relative path: the index fingerprint does not depend on where the
/// checkout lives.
std::string artifact_dir(const std::string& workload) {
  return "picobench-artifacts/" + workload;
}

// ---------------------------------------------------------- repetition ----

/// One repetition's measurements, filled by the workload in the child.
struct Rep {
  size_t attempted = 0;  ///< logical flows
  size_t settled = 0;
  size_t failed = 0;  ///< failed + unsettled + gave up + lost
  uint64_t events = 0;  ///< engine events, net of the benchmark's probes
  uint64_t fingerprint = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::map<std::string, double> layer;  ///< per-layer metrics (traced)
  std::map<std::string, double> raw;    ///< natural-unit layer values

  void check(const std::string& what, bool ok) {
    checks.emplace_back(what, ok);
  }
};

/// Times a repetition's set-up and measured phase, with usage deltas.
struct Phase {
  double setup_s = 0, wall_s = 0, cpu_user_s = 0, cpu_sys_s = 0;
  double peak_rss_mb = 0, rss_delta_bytes = 0;
  long minor_faults = 0;
  util::PoolStats pool;  ///< shared-pool delta over the measured phase

  /// Set-up runs from main() to here: process start-up, the thread pool,
  /// and building the workload's inputs and services.
  void begin() {
    t0_ = now_s();
    setup_s = t0_ - kMainStart;
    u0_ = picobench::Usage::self();
    rss0_ = picobench::rss_bytes();
    pool0_ = util::shared_pool().stats();
  }
  void end() {
    wall_s = now_s() - t0_;
    const picobench::Usage u1 = picobench::Usage::self();
    const util::PoolStats p1 = util::shared_pool().stats();
    cpu_user_s = u1.user_s - u0_.user_s;
    cpu_sys_s = u1.sys_s - u0_.sys_s;
    minor_faults = u1.minor_faults - u0_.minor_faults;
    peak_rss_mb = u1.peak_rss_mb;
    rss_delta_bytes = picobench::rss_bytes() - rss0_;
    pool.chunks_executed = p1.chunks_executed - pool0_.chunks_executed;
    pool.caller_chunks = p1.caller_chunks - pool0_.caller_chunks;
    pool.chunk_time_ns = p1.chunk_time_ns - pool0_.chunk_time_ns;
  }

 private:
  double t0_ = 0, rss0_ = 0;
  picobench::Usage u0_;
  util::PoolStats pool0_;
};

template <typename Fn>
double median_time(int n, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < n; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return picobench::summarize(t).median;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --------------------------------------------------- facility campaigns ----

core::FacilityConfig table1_facility(bool hyper, uint64_t seed,
                                     const std::string& artifacts) {
  core::FacilityConfig fc;
  fc.artifact_dir = artifacts;
  fc.seed = perturb(hyper ? 20230407 : 20230408, seed);
  fc.cost.provision_delay_s = hyper ? 100.0 : 35.0;
  fc.cost.provision_jitter_s = 10.0;
  return fc;
}

core::CampaignConfig table1_campaign(bool hyper) {
  core::CampaignConfig cfg;
  cfg.use_case = hyper ? core::UseCase::Hyperspectral
                       : core::UseCase::Spatiotemporal;
  cfg.start_period_s = hyper ? 30 : 120;
  cfg.label_prefix = hyper ? "hyper" : "spatio";
  return cfg;
}

/// CRC-64 of the rendered Table 1 for the exact bench_table1 configs: the
/// paper-reproduction contract, checked once per invocation.
uint64_t table1_crc() {
  core::CampaignConfig hyper_cfg = table1_campaign(true);
  hyper_cfg.file_bytes = 91 * 1000 * 1000;
  core::CampaignConfig spatio_cfg = table1_campaign(false);
  spatio_cfg.file_bytes = 1200 * 1000 * 1000;
  core::Facility hyper_facility(
      table1_facility(true, 0, artifact_dir("table1")));
  core::CampaignResult hyper = core::run_campaign(hyper_facility, hyper_cfg);
  core::Facility spatio_facility(
      table1_facility(false, 0, artifact_dir("table1")));
  core::CampaignResult spatio = core::run_campaign(spatio_facility, spatio_cfg);
  return util::crc64(core::render_table1(hyper, spatio));
}

double registry_sum(const std::vector<telemetry::MetricSample>& snapshot,
                    const std::string& family) {
  double total = 0;
  for (const auto& s : snapshot) {
    if (s.name == family) total += s.value;
  }
  return total;
}

/// Every logical flow settles exactly once: labels are unique and each
/// launch ended in either a resubmit or one terminal record.
bool settled_once(const core::CampaignResult& r) {
  std::set<std::string> labels;
  for (const auto* bucket : {&r.in_window, &r.late}) {
    for (const auto& f : *bucket) {
      if (!labels.insert(f.label).second) return false;
    }
  }
  return r.robustness.launches == r.robustness.resubmits + labels.size();
}

void read_campaign(core::Facility& facility, const core::CampaignResult& r,
                   uint64_t probe_events, Rep& rep) {
  rep.settled = r.in_window.size() + r.late.size();
  rep.attempted = rep.settled;
  rep.failed = r.failed;  // every lost flow is also counted here
  rep.events = facility.engine().events_processed() - probe_events;
  rep.fingerprint = facility.index().fingerprint();
  rep.check("every flow settles exactly once", settled_once(r));
  rep.check("no failed or lost flows", r.failed == 0 && r.robustness.lost == 0);
}

/// Per-layer metrics every facility campaign exposes, plus the end-state
/// probes, which run after the outputs were read.
void facility_layers(core::Facility& facility, const core::CampaignResult& r,
                     double wall_s, Rep& rep) {
  const double flows = static_cast<double>(std::max<size_t>(rep.settled, 1));
  double polls = 0, steps = 0;
  std::vector<flow::RunId> ids;
  for (const auto* bucket : {&r.in_window, &r.late}) {
    for (const auto& f : *bucket) {
      for (const auto& s : f.timing.steps) {
        polls += s.polls;
        steps += 1;
      }
      if (!f.id.empty()) ids.push_back(f.id);
    }
  }
  const auto snapshot = facility.telemetry().metrics.snapshot();
  auto& L = rep.layer;
  L["sim.cancelled_per_flow"] =
      static_cast<double>(facility.engine().cancelled_total()) / flows;
  L["flow.polls_per_step"] = ratio(polls, steps);
  L["flow.poll_hit_frac"] = ratio(steps, polls);
  L["flow.retries"] = registry_sum(snapshot, "flow_retries_total");
  L["flow.timeouts"] = static_cast<double>(facility.flows().total_timeouts());
  L["flow.breaker_trips"] = r.robustness.breaker_trips;
  L["core.resubmits"] = static_cast<double>(r.robustness.resubmits);
  L["core.crash_replays"] = static_cast<double>(r.robustness.crash_replays);
  L["core.lost"] = static_cast<double>(r.robustness.lost);
  const util::SampleStats overhead = r.overhead_pct_stats();
  L["core.overhead_median_pct"] = overhead.empty() ? 0 : overhead.median();
  L["telemetry.spans_per_flow"] =
      static_cast<double>(facility.trace().spans().size()) / flows;
  L["telemetry.series"] = static_cast<double>(snapshot.size());
  const double ticks = static_cast<double>(facility.health().ticks());
  L["health.ticks"] = ticks;
  L["health.flight_rings"] =
      static_cast<double>(facility.telemetry().flight.ring_count());
  L["transfer.bytes_per_flow"] =
      registry_sum(snapshot, "transfer_bytes_total") / flows;
  L["transfer.retries"] = registry_sum(snapshot, "transfer_retries_total");
  L["storage.resident_mb_end"] =
      static_cast<double>(facility.user_store().used_bytes() +
                          facility.eagle().used_bytes()) /
      1e6;

  // Re-publish the index's documents into a fresh index.
  const auto docs = facility.index().snapshot();
  search::Index fresh("picobench-reingest");
  const double t0 = now_s();
  for (const search::Document* d : docs) fresh.ingest(*d);
  L["search.ingest_docs_per_s"] =
      ratio(static_cast<double>(docs.size()), now_s() - t0);

  // End-state probes. Each share is the probe's cost on the final state
  // times the number of calls the run made, over wall time: an upper bound,
  // since the structures are at their largest at the end. A health tick
  // scans the flight rings twice.
  std::vector<double> per_call;
  const size_t stride = std::max<size_t>(1, ids.size() / 100);
  for (size_t i = 0; i < ids.size(); i += stride) {
    flow::RunTiming timing;
    const double c0 = now_s();
    flow::timing_from_spans(facility.trace(), ids[i], &timing);
    per_call.push_back(now_s() - c0);
  }
  const double timing_s = picobench::summarize(per_call).median;
  const double snapshot_s =
      median_time(5, [&] { (void)facility.telemetry().metrics.snapshot(); });
  const double open_flows_s =
      median_time(5, [&] { (void)facility.telemetry().flight.open_flows(); });
  const double tick_s = median_time(5, [&] { facility.health().tick(); });
  L["flow.timing_from_spans_share"] =
      ratio(timing_s * static_cast<double>(ids.size()), wall_s);
  L["telemetry.snapshot_share"] = ratio(snapshot_s * ticks, wall_s);
  L["health.open_flows_share"] = ratio(2 * open_flows_s * ticks, wall_s);
  L["health.tick_share"] = ratio(tick_s * ticks, wall_s);
  rep.raw["flow.timing_from_spans_us_end"] = timing_s * 1e6;
  rep.raw["telemetry.snapshot_us_end"] = snapshot_s * 1e6;
  rep.raw["health.open_flows_us_end"] = open_flows_s * 1e6;
  rep.raw["health.tick_us_end"] = tick_s * 1e6;
}

// -------------------------------------------------- data-plane replay ----

using StageTimes = std::map<std::string, double>;

/// The first signal's group, if it holds a "data" dataset.
const emd::Group* signal_group(const emd::File& file) {
  auto signal = emd::first_signal_name(file);
  if (!signal) return nullptr;
  const emd::Group* group = file.root.find_group(
      std::string(emd::Paths::kData) + "/" + signal.value());
  return group && group->datasets.count("data") ? group : nullptr;
}

/// One pass of the facility's hyperspectral analysis chain, stage by stage.
bool replay_hyper(const std::vector<uint8_t>& bytes, const std::string& base,
                  search::Index& index, StageTimes& t) {
  double t0 = now_s();
  auto file = emd::File::from_bytes(bytes);
  if (!file) return false;
  const emd::Group* group = signal_group(file.value());
  if (!group) return false;
  auto cube = group->datasets.at("data").as<double>();
  if (!cube) return false;
  t["emd.parse"] = now_s() - t0;

  t0 = now_s();
  auto metadata = analysis::extract_metadata(file.value());
  if (!metadata) return false;
  t["analysis.metadata"] = now_s() - t0;

  t0 = now_s();
  const double e_min = group->attrs.count("energy_min_kev")
                           ? group->attrs.at("energy_min_kev").as_double(0.0)
                           : 0.0;
  const double e_max = group->attrs.count("energy_max_kev")
                           ? group->attrs.at("energy_max_kev").as_double(20.0)
                           : 20.0;
  const size_t channels = cube.value().dim(2);
  std::vector<double> axis(channels);
  for (size_t k = 0; k < channels; ++k) {
    axis[k] = e_min + (e_max - e_min) * (static_cast<double>(k) + 0.5) /
                          static_cast<double>(channels);
  }
  analysis::HyperspectralAnalysis result = analysis::analyze_hyperspectral(
      cube.value(), axis, {}, &util::shared_pool());
  t["analysis.hyperspectral"] = now_s() - t0;

  t0 = now_s();
  std::vector<std::pair<std::string, tensor::Tensor<double>>> maps;
  for (const auto& el : result.elements) {
    if (el.symbol == "C" || el.symbol == "N" || el.symbol == "O") continue;
    if (el.matched_kev.empty()) continue;
    maps.emplace_back(el.symbol, analysis::element_map(cube.value(), axis,
                                                       el.matched_kev.front()));
  }
  t["analysis.element_maps"] = now_s() - t0;

  t0 = now_s();
  std::vector<std::string> artifacts = {base + "_intensity.pgm"};
  if (!analysis::write_pgm(artifacts.back(), result.intensity)) return false;
  for (const auto& [symbol, map] : maps) {
    artifacts.push_back(base + "_map_" + symbol + ".pgm");
    if (!analysis::write_pgm(artifacts.back(), map)) return false;
  }
  analysis::LinePlotConfig plot;
  plot.title = "Aggregate spectrum";
  for (const auto& el : result.elements) {
    for (double kev : el.matched_kev) {
      plot.annotations.emplace_back(kev, el.symbol);
    }
  }
  std::vector<double> counts(result.spectrum.data().begin(),
                             result.spectrum.data().end());
  artifacts.push_back(base + "_spectrum.svg");
  if (!util::write_file(artifacts.back(),
                        analysis::render_line_svg(axis, counts, plot))) {
    return false;
  }
  t["analysis.artifacts"] = now_s() - t0;

  t0 = now_s();
  search::RecordInputs in;
  in.title = "Hyperspectral acquisition";
  in.creators = {"Dynamic PicoProbe"};
  in.created_iso8601 =
      metadata.value().at("acquired").as_string("2023-04-07T12:00:00Z");
  in.resource_type = "hyperspectral";
  for (const auto& el : result.elements) in.subjects.push_back(el.symbol);
  in.instrument_metadata = metadata.value();
  in.analysis = result.to_json();
  in.artifact_paths = artifacts;
  Json record = search::build_record(in);
  t["search.build_record"] = now_s() - t0;

  t0 = now_s();
  index.ingest(search::Document{base, std::move(record), {}, 0});
  t["search.ingest"] = now_s() - t0;
  return true;
}

/// One pass of the facility's spatiotemporal analysis chain.
bool replay_spatio(const std::vector<uint8_t>& bytes, const std::string& base,
                   search::Index& index, StageTimes& t) {
  double t0 = now_s();
  auto file = emd::File::from_bytes(bytes);
  if (!file) return false;
  const emd::Group* group = signal_group(file.value());
  if (!group) return false;
  auto stack = group->datasets.at("data").as<double>();
  if (!stack) return false;
  t["emd.parse"] = now_s() - t0;

  t0 = now_s();
  auto metadata = analysis::extract_metadata(file.value());
  if (!metadata) return false;
  t["analysis.metadata"] = now_s() - t0;

  t0 = now_s();
  tensor::Tensor<uint8_t> frames_u8 =
      video::convert_parallel(stack.value(), util::shared_pool());
  video::MpkVideo mpk = video::MpkVideo::from_stack(frames_u8);
  t["video.convert"] = now_s() - t0;

  t0 = now_s();
  vision::BlobDetector detector;
  const size_t frame_count = stack.value().dim(0);
  std::vector<std::vector<vision::Detection>> detections(frame_count);
  util::shared_pool().parallel_for(frame_count, [&](size_t i) {
    detections[i] = detector.detect(stack.value().slice0(i));
  });
  t["vision.detect"] = now_s() - t0;

  t0 = now_s();
  vision::GreedyIoUTracker tracker;
  int64_t total = 0;
  for (const auto& dets : detections) {
    tracker.update(dets);
    total += static_cast<int64_t>(dets.size());
  }
  t["vision.track"] = now_s() - t0;

  t0 = now_s();
  video::MpkVideo annotated = video::annotate(mpk, detections);
  const std::string mpk_path = base + "_annotated.mpk";
  if (!annotated.save(mpk_path)) return false;
  std::vector<double> t_axis, per_frame;
  for (size_t i = 0; i < detections.size(); ++i) {
    t_axis.push_back(static_cast<double>(i));
    per_frame.push_back(static_cast<double>(detections[i].size()));
  }
  const std::string svg_path = base + "_counts.svg";
  if (!util::write_file(svg_path,
                        analysis::render_line_svg(t_axis, per_frame, {}))) {
    return false;
  }
  t["video.annotate"] = now_s() - t0;

  t0 = now_s();
  search::RecordInputs in;
  in.title = "Spatiotemporal acquisition";
  in.creators = {"Dynamic PicoProbe"};
  in.created_iso8601 =
      metadata.value().at("acquired").as_string("2023-04-07T12:00:00Z");
  in.resource_type = "spatiotemporal";
  in.subjects = {"gold-nanoparticle", "tracking"};
  in.instrument_metadata = metadata.value();
  in.analysis = Json::object({
      {"frames", static_cast<int64_t>(frame_count)},
      {"total_detections", total},
      {"tracks", static_cast<int64_t>(tracker.total_tracks_created())},
  });
  in.artifact_paths = {mpk_path, svg_path};
  Json record = search::build_record(in);
  t["search.build_record"] = now_s() - t0;

  t0 = now_s();
  index.ingest(search::Document{base, std::move(record), {}, 0});
  t["search.ingest"] = now_s() - t0;
  return true;
}

/// Replay the per-flow data-plane chain (median of 5 passes per stage) on
/// the campaign's own landed payload, and time the landing CRC kernels on it.
void dataplane_layers(core::Facility& facility, bool hyper,
                      const std::string& artifacts, double wall_s, Rep& rep) {
  const std::vector<std::string> landed = facility.eagle().list("eagle/");
  const storage::Object* obj = nullptr;
  for (const auto& path : landed) {
    auto got = facility.eagle().get(path);
    if (got && got.value()->has_content()) {
      obj = got.value();
      break;
    }
  }
  rep.check("a real payload landed on Eagle", obj != nullptr);
  if (!obj) return;
  const std::vector<uint8_t>& bytes = *obj->content;
  const double gb = static_cast<double>(bytes.size()) / 1e9;

  std::map<std::string, std::vector<double>> passes;
  search::Index index("picobench-replay");
  bool ok = true;
  for (int pass = 0; pass < 5; ++pass) {
    StageTimes t;
    const std::string base =
        util::format("%s/replay-%d", artifacts.c_str(), pass);
    ok = ok && (hyper ? replay_hyper(bytes, base, index, t)
                      : replay_spatio(bytes, base, index, t));
    for (const auto& [stage, s] : t) passes[stage].push_back(s);
  }
  rep.check("data-plane replay succeeds", ok);

  double chain_s = 0;
  for (const auto& [stage, samples] : passes) {
    const double s = picobench::summarize(samples).median;
    chain_s += s;
    if (stage.rfind("search.", 0) == 0) {
      rep.raw[stage + "_us"] = s * 1e6;
    } else {
      rep.raw[stage + "_ms"] = s * 1e3;
      rep.layer[stage + "_gbps"] = ratio(gb, s);
    }
  }
  rep.layer["search.build_record_per_s"] =
      ratio(1.0, picobench::summarize(passes["search.build_record"]).median);
  rep.layer["dataplane.replay_share"] =
      ratio(static_cast<double>(rep.settled) * chain_s, wall_s);

  std::vector<uint8_t> dst(bytes.size());
  uint64_t crc_a = 0, crc_b = 0;
  const double crc_s =
      median_time(5, [&] { crc_a = util::crc64(bytes.data(), bytes.size()); });
  const double copy_s = median_time(5, [&] {
    crc_b = util::crc64_copy(dst.data(), bytes.data(), bytes.size());
  });
  rep.check("crc64 and crc64_copy agree with the landed checksum",
            crc_a == obj->crc64 && crc_b == obj->crc64);
  rep.layer["storage.crc64_gbps"] = ratio(gb, crc_s);
  rep.layer["storage.crc64_copy_gbps"] = ratio(gb, copy_s);
}

// ------------------------------------------------------------ workloads ----

struct Pins {
  uint64_t fingerprint = 0;
  uint64_t events = 0;  ///< 0 = not pinned
};

/// Pinned outputs at full size. They hold for every seed: the payloads, the
/// published records and the federation documents are content-pure, so the
/// seed moves timing and jitter but never what gets published.
Pins pins_for(const std::string& workload) {
  if (workload == "hyper-real") return {0xd9f54fe36413f147ull, 0};
  if (workload == "spatio-real") return {0x1fccd5731902d0b1ull, 0};
  if (workload == "flows-100k") return {0, 1528570};
  if (workload == "federation-chaos") return {0x20e79b7623a47335ull, 0};
  if (workload == "beamtime-48h") return {0x11d30247ded1078dull, 0};
  return {};
}

void table1_real(bool hyper, const Options& o, Phase& ph, Rep& rep) {
  const std::string artifacts = artifact_dir(o.workload);
  core::Facility facility(table1_facility(hyper, o.seed, artifacts));
  core::CampaignConfig cfg = table1_campaign(hyper);
  cfg.duration_s = o.smoke ? 900 : 3600;
  cfg.real_payloads = true;
  cfg.file_bytes = 8 * 1000 * 1000;  // the A12 scaled-down-but-real size

  ph.begin();
  core::CampaignResult result = core::run_campaign(facility, cfg);
  ph.end();

  read_campaign(facility, result, 0, rep);
  if (!o.traced) return;
  facility_layers(facility, result, ph.wall_s, rep);
  dataplane_layers(facility, hyper, artifacts, ph.wall_s, rep);
}

/// The examples/chaos_campaign gauntlet, applied once at the start.
const char* kGauntlet = R"({
  "name": "beamtime-gauntlet",
  "events": [
    {"kind": "transfer_outage",   "at_s": 600,  "duration_s": 300},
    {"kind": "node_failure_rate", "at_s": 0,    "duration_s": 1800,
     "severity": 0.10},
    {"kind": "token_expiry",      "at_s": 1200},
    {"kind": "orchestrator_crash","at_s": 1500, "duration_s": 60}
  ]})";

void beamtime(const Options& o, Phase& ph, Rep& rep) {
  core::FacilityConfig fc;
  fc.artifact_dir = artifact_dir(o.workload);
  fc.seed = perturb(20230407, o.seed);
  core::Facility facility(fc);
  core::CampaignConfig cfg;
  cfg.use_case = core::UseCase::Hyperspectral;
  cfg.start_period_s = 30;
  cfg.duration_s = (o.smoke ? 4 : 48) * 3600.0;
  cfg.file_bytes = 91'000'000;
  cfg.label_prefix = "beamtime";
  cfg.chaos = fault::FaultSchedule::from_text(kGauntlet).value();
  cfg.recovery.enabled = true;
  cfg.recovery.resubmit_budget = 4;
  cfg.recovery.resubmit_delay_s = 60;
  cfg.step_timeouts = {{"Transfer", 600}};

  // Hourly probes: each only reads the steady clock. They sit strictly
  // inside the campaign window, so they never extend the virtual run.
  const int hours = static_cast<int>(cfg.duration_s / 3600);
  std::vector<double> marks;
  if (o.traced) {
    marks.reserve(static_cast<size_t>(hours));
    for (int h = 1; h <= hours; ++h) {
      facility.engine().post_at(sim::SimTime::from_seconds(h * 3600.0),
                                [&marks] { marks.push_back(now_s()); });
    }
  }

  ph.begin();
  const double t0 = now_s();
  core::CampaignResult result = core::run_campaign(facility, cfg);
  ph.end();

  read_campaign(facility, result, marks.size(), rep);
  if (!o.traced) return;
  rep.check("every hourly probe fired",
            marks.size() == static_cast<size_t>(hours));
  if (marks.size() >= 2) {
    const double first = marks[0] - t0;
    const double last = marks.back() - marks[marks.size() - 2];
    rep.raw["sim.vhour_wall_ms_first"] = first * 1e3;
    rep.raw["sim.vhour_wall_ms_last"] = last * 1e3;
    rep.layer["sim.vhour_growth"] = ratio(last, first);
  }
  // Wall time to reach hour h of the campaign: how cost grows with length.
  for (size_t h : {8, 24, 48}) {
    if (marks.size() >= h) {
      rep.raw[util::format("sim.wall_s_to_hour_%zu", h)] = marks[h - 1] - t0;
    }
  }
  facility_layers(facility, result, ph.wall_s, rep);
}

// ---- flows-100k: benchmark-owned null providers ----

/// O(1) null provider: every action succeeds after its scripted virtual
/// duration. With `clock` set, the time spent inside its calls accumulates
/// there (the traced repetition).
class NullProvider : public flow::ActionProvider {
 public:
  NullProvider(sim::Engine* engine, std::string name, double* clock)
      : engine_(engine), name_(std::move(name)), clock_(clock) {}

  std::string name() const override { return name_; }

  util::Result<flow::ActionHandle> start(const Json& params,
                                         const auth::Token&) override {
    const double t0 = clock_ ? now_s() : 0;
    Action a;
    a.started = engine_->now();
    a.duration_ns =
        static_cast<int64_t>(params.at("duration_s").as_double(1.0) * 1e9);
    const size_t idx = actions_.size();
    actions_.push_back(a);
    on_start(params);
    auto handle = util::Result<flow::ActionHandle>::ok(std::to_string(idx));
    if (clock_) *clock_ += now_s() - t0;
    return handle;
  }

  flow::ActionPollResult poll(const flow::ActionHandle& handle) override {
    const double t0 = clock_ ? now_s() : 0;
    flow::ActionPollResult out;
    const Action& a = actions_[std::strtoull(handle.c_str(), nullptr, 10)];
    if ((engine_->now() - a.started).ns < a.duration_ns) {
      out.status = flow::ActionStatus::Active;
    } else {
      out.status = flow::ActionStatus::Succeeded;
      out.service_started = a.started;
      out.service_completed = a.started + sim::Duration{a.duration_ns};
      out.output = Json::object({{"ok", true}});
    }
    if (clock_) *clock_ += now_s() - t0;
    return out;
  }

 protected:
  virtual void on_start(const Json&) {}

 private:
  struct Action {
    sim::SimTime started;
    int64_t duration_ns = 0;
  };
  sim::Engine* engine_;
  std::string name_;
  double* clock_;
  std::vector<Action> actions_;
};

/// Null provider that also publishes one record per started action.
class PublishProvider : public NullProvider {
 public:
  PublishProvider(sim::Engine* engine, search::Index* index)
      : NullProvider(engine, "publish", nullptr), index_(index) {}

 protected:
  void on_start(const Json& params) override {
    search::Document doc;
    doc.id = params.at("subject").as_string("doc");
    doc.content = Json::object({
        {"name", doc.id},
        {"resource_type", "bench_flow"},
        {"attempt", params.at("flow_attempt_epoch").as_int(0)},
    });
    index_->ingest(std::move(doc));
  }

 private:
  search::Index* index_;
};

flow::FlowDefinition null_definition(bool publish) {
  flow::FlowDefinition def;
  def.name = "bench-controlplane";
  flow::ActionState transfer;
  transfer.name = "Transfer";
  transfer.provider = "null";
  transfer.params = Json::object({{"duration_s", "$.input.transfer_s"}});
  transfer.timeout_s = 3600;
  flow::ActionState analyze;
  analyze.name = "Analyze";
  analyze.provider = "null";
  analyze.params = Json::object({{"duration_s", "$.input.analyze_s"}});
  analyze.timeout_s = 3600;
  flow::ActionState pub;
  pub.name = "Publish";
  pub.provider = publish ? "publish" : "null";
  pub.params =
      Json::object({{"duration_s", 1.0}, {"subject", "$.input.subject"}});
  def.steps = {transfer, analyze, pub};
  return def;
}

Json null_input(size_t i) {
  return Json::object({
      {"transfer_s", 30.0 + static_cast<double>(i % 7) * 10.0},
      {"analyze_s", 15.0 + static_cast<double>(i % 5) * 5.0},
      {"subject", "flow-" + std::to_string(i)},
  });
}

/// The A13 parity campaign: 2000 flows publishing into an index.
uint64_t publish_campaign_fingerprint() {
  sim::Engine engine;
  auth::AuthService auth;
  flow::FlowService service(&engine, &auth, {}, 0xC0117ull);
  NullProvider null_provider(&engine, "null", nullptr);
  search::Index index("bench-parity");
  PublishProvider publish_provider(&engine, &index);
  service.register_provider(&null_provider);
  service.register_provider(&publish_provider);
  const auth::Token token = auth.issue("bench", {"flows"});
  auto def =
      std::make_shared<const flow::FlowDefinition>(null_definition(true));
  for (size_t i = 0; i < 2000; ++i) {
    if (!service.start(def, null_input(i), token,
                       "bench-" + std::to_string(i))) {
      return 0;
    }
  }
  engine.run();
  return index.fingerprint();
}

void flows_100k(const Options& o, Phase& ph, Rep& rep) {
  const size_t n = o.smoke ? 10000 : 100000;
  sim::Engine engine;
  auth::AuthService auth;
  flow::FlowService service(&engine, &auth, {}, perturb(0xC0117ull, o.seed));
  double provider_s = 0;
  NullProvider provider(&engine, "null", o.traced ? &provider_s : nullptr);
  service.register_provider(&provider);
  const auth::Token token = auth.issue("bench", {"flows"});
  auto def =
      std::make_shared<const flow::FlowDefinition>(null_definition(false));
  std::vector<Json> inputs;
  std::vector<std::string> labels;
  inputs.reserve(n);
  labels.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    inputs.push_back(null_input(i));
    labels.push_back("bench-" + std::to_string(i));
  }
  std::vector<flow::RunId> ids;
  ids.reserve(n);
  std::vector<double> start_s;
  if (o.traced) start_s.reserve(n);
  size_t finished = 0, succeeded = 0;
  auto on_done = [&](const flow::RunId&, const flow::RunInfo& info) {
    ++finished;
    if (info.state == flow::RunState::Succeeded) ++succeeded;
  };

  ph.begin();
  for (size_t i = 0; i < n; ++i) {
    const double c0 = o.traced ? now_s() : 0;
    auto run = service.start(def, std::move(inputs[i]), token, labels[i]);
    if (o.traced) start_s.push_back(now_s() - c0);
    if (!run) continue;
    service.on_finished(run.value(), on_done);
    ids.push_back(run.value());
  }
  const double run0 = now_s();
  engine.run();
  const double run_wall = now_s() - run0;
  ph.end();

  rep.attempted = n;
  rep.settled = finished;
  rep.failed = n - succeeded;
  rep.events = engine.events_processed();
  rep.check("every flow settles exactly once",
            ids.size() == n && finished == n);
  rep.check("every flow succeeds", succeeded == n);
  if (!o.traced) return;

  double polls = 0, steps = 0, retries = 0;
  for (const auto& id : ids) {
    for (const auto& s : service.timing(id).steps) {
      polls += s.polls;
      retries += s.retries;
      steps += 1;
    }
  }
  int trips = 0;
  for (const auto& b : service.breaker_snapshots()) trips += b.trips;
  const picobench::Summary starts = picobench::summarize(start_s);
  double start_total = 0;
  for (double s : start_s) start_total += s;
  auto& L = rep.layer;
  L["sim.cancelled_per_flow"] =
      static_cast<double>(engine.cancelled_total()) / static_cast<double>(n);
  L["sim.ns_per_event"] =
      ratio((run_wall - provider_s) * 1e9, static_cast<double>(rep.events));
  L["flow.start_share"] = ratio(start_total, ph.wall_s);
  L["flow.provider_share"] = ratio(provider_s, ph.wall_s);
  L["flow.polls_per_step"] = ratio(polls, steps);
  L["flow.poll_hit_frac"] = ratio(steps, polls);
  L["flow.retries"] = retries;
  L["flow.timeouts"] = static_cast<double>(service.total_timeouts());
  L["flow.breaker_trips"] = trips;
  std::vector<double> sorted = start_s;
  std::sort(sorted.begin(), sorted.end());
  rep.raw["flow.start_us_p50"] = starts.median * 1e6;
  rep.raw["flow.start_us_p99"] =
      sorted.empty() ? 0 : sorted[sorted.size() * 99 / 100] * 1e6;
  rep.raw["flow.provider_ns"] =
      ratio(provider_s * 1e9, static_cast<double>(rep.events));
}

void federation_chaos(const Options& o, Phase& ph, Rep& rep) {
  // The A14 run: 3 sites, site kill + brownout + partition. Only the chaos
  // run executes; the clean run's fingerprint is pinned.
  federation::FederatedCampaignConfig cfg;
  cfg.flows = o.smoke ? 5000 : 100000;
  cfg.users = o.smoke ? 200 : 2000;
  cfg.arrival_window_s = o.smoke ? 900 : 3600;
  cfg.broker.quota.max_inflight_total = o.smoke ? 400 : 4000;
  cfg.broker.quota.min_user_inflight = 4;
  cfg.seed = perturb(cfg.seed, o.seed);
  const double scale = o.smoke ? 0.25 : 1.0;
  cfg.chaos.name = "a14-site-chaos";
  cfg.chaos.add({fault::FaultKind::SiteOutage, 1200 * scale, 600 * scale,
                 cfg.sites[1].name, 0});
  cfg.chaos.add({fault::FaultKind::SiteBrownout, 2000 * scale, 400 * scale,
                 cfg.sites[2].name, 0.6});
  cfg.chaos.add({fault::FaultKind::SitePartition, 2800 * scale, 120 * scale,
                 cfg.sites[1].name, 0});

  ph.begin();
  federation::FederatedCampaignResult r =
      federation::run_federated_campaign(cfg);
  ph.end();

  rep.attempted = r.flows;
  rep.settled = r.completed + r.failed;
  rep.failed = r.failed + r.unsettled + r.gave_up;
  rep.events = r.engine_events;
  rep.fingerprint = r.fingerprint;
  rep.check("every flow settles exactly once",
            r.completed + r.failed + r.unsettled + r.gave_up == r.flows &&
                r.unsettled == 0 && r.gave_up == 0);
  rep.check("100% completion", r.completed == r.flows);
  if (!o.traced) return;
  auto& L = rep.layer;
  L["federation.failovers"] = static_cast<double>(r.broker.failovers);
  L["federation.resumed"] = static_cast<double>(r.broker.resumed);
  L["federation.reconciled"] = static_cast<double>(r.broker.reconciled);
  L["federation.shed"] = static_cast<double>(r.broker.optional_dropped);
  L["federation.rejected_frac"] =
      ratio(static_cast<double>(r.rejected_submissions),
            static_cast<double>(r.flows + r.resubmissions));
  L["federation.recovery_virtual_s"] = r.broker.recovery_s;
  L["federation.p99_virtual_s"] = r.p99_s;
  L["federation.jain"] = r.jain_fairness;
}

// ---------------------------------------------------------------- child ----

/// One fresh-process repetition: set up, measure, check, report one line.
int run_child(const Options& o) {
  util::shared_pool();  // start the pool's threads before timing anything
  Phase ph;
  Rep rep;
  if (o.workload == "hyper-real") {
    table1_real(true, o, ph, rep);
  } else if (o.workload == "spatio-real") {
    table1_real(false, o, ph, rep);
  } else if (o.workload == "flows-100k") {
    flows_100k(o, ph, rep);
  } else if (o.workload == "federation-chaos") {
    federation_chaos(o, ph, rep);
  } else if (o.workload == "beamtime-48h") {
    beamtime(o, ph, rep);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }

  const Pins pins = pins_for(o.workload);
  if (!o.smoke && pins.fingerprint != 0) {
    rep.check("fingerprint " + hex(pins.fingerprint),
              rep.fingerprint == pins.fingerprint);
  }
  if (!o.smoke && pins.events != 0) {
    rep.check(util::format("%llu engine events",
                           static_cast<unsigned long long>(pins.events)),
              rep.events == pins.events);
  }

  // Per-layer metrics every workload measures the same way.
  const double flows = static_cast<double>(std::max<size_t>(rep.attempted, 1));
  auto& L = rep.layer;
  L["proc.cpu_user_s"] = ph.cpu_user_s;
  L["proc.cpu_sys_s"] = ph.cpu_sys_s;
  L["proc.minor_faults_per_flow"] =
      static_cast<double>(ph.minor_faults) / flows;
  L["sim.events_per_flow"] = static_cast<double>(rep.events) / flows;
  if (!L.count("sim.ns_per_event")) {
    L["sim.ns_per_event"] =
        ratio(ph.wall_s * 1e9, static_cast<double>(rep.events));
  }
  L["flow.bytes_per_flow"] = ph.rss_delta_bytes / flows;
  L["util.pool_utilization"] =
      ph.pool.utilization(ph.wall_s, util::shared_pool().thread_count());
  L["util.pool_caller_frac"] =
      ratio(static_cast<double>(ph.pool.caller_chunks),
            static_cast<double>(ph.pool.chunks_executed));
  rep.raw["util.pool_busy_s"] =
      static_cast<double>(ph.pool.chunk_time_ns) / 1e9;

  bool ok = true;
  Json checks = Json::array();
  for (const auto& [what, pass] : rep.checks) {
    ok = ok && pass;
    checks.push_back(Json::object({{"check", what}, {"ok", pass}}));
  }
  Json layer = Json::object();
  for (const auto& def : kPerLayer) {
    auto it = rep.layer.find(def.name);
    layer[def.name] = it == rep.layer.end() ? 0.0 : it->second;
  }
  Json raw = Json::object();
  for (const auto& [k, v] : rep.raw) raw[k] = v;
  Json doc = Json::object({
      {"ok", ok},
      {"checks", checks},
      {"setup_s", ph.setup_s},
      {"wall_s", ph.wall_s},
      {"cpu_s", ph.cpu_user_s + ph.cpu_sys_s},
      {"peak_rss_mb", ph.peak_rss_mb},
      {"attempted", static_cast<int64_t>(rep.attempted)},
      {"settled", static_cast<int64_t>(rep.settled)},
      {"failed", static_cast<int64_t>(rep.failed)},
      {"events", static_cast<int64_t>(rep.events)},
      {"fingerprint", hex(rep.fingerprint)},
      {"layer", layer},
      {"raw", raw},
  });
  std::printf("%s\n", doc.dump().c_str());
  return ok ? 0 : 1;
}

// --------------------------------------------------------------- parent ----

/// All repetitions of one workload, as the parent collected them.
struct Invocation {
  std::string workload;
  std::vector<Json> untraced, traced;
  std::vector<std::string> failures;
  size_t attempted = 0, failed = 0;

  bool correct() const { return failures.empty(); }
};

void spawn(const Options& o, bool traced, Invocation& inv) {
  std::vector<std::string> args = {"--child", "--workload", inv.workload,
                                   "--seed", std::to_string(o.seed)};
  if (traced) args.push_back("--traced");
  if (o.smoke) args.push_back("--smoke");
  const picobench::ChildResult child = picobench::run_self(args);
  auto parsed = Json::parse(child.line);
  if (!parsed || !parsed.value().is_object()) {
    inv.failures.push_back(
        util::format("a repetition crashed (exit %d)", child.exit_code));
    inv.attempted += 1;
    inv.failed += 1;
    return;
  }
  const Json& d = parsed.value();
  const size_t attempted = static_cast<size_t>(d.at("attempted").as_int());
  inv.attempted += attempted;
  if (d.at("ok").as_bool()) {
    inv.failed += static_cast<size_t>(d.at("failed").as_int());
  } else {
    inv.failed += attempted;
    for (const auto& c : d.at("checks").as_array()) {
      if (!c.at("ok").as_bool()) {
        inv.failures.push_back("check failed: " + c.at("check").as_string());
      }
    }
  }
  (traced ? inv.traced : inv.untraced).push_back(d);
}

/// Run `count` repetitions, or (count 0) as many as are expected to fit in
/// `budget_s`, but at least `min_reps`. One at a time, never concurrently.
void repeat(const Options& o, bool traced, int count, int min_reps,
            double budget_s, Invocation& inv) {
  const double start = now_s();
  std::vector<double> took;
  for (int i = 0;; ++i) {
    if (count > 0 ? i >= count
                  : i >= min_reps &&
                        now_s() - start + picobench::summarize(took).median >
                            budget_s) {
      break;
    }
    const double t0 = now_s();
    spawn(o, traced, inv);
    took.push_back(now_s() - t0);
  }
}

/// Pinned checks that run once per invocation, in the parent, untimed.
void invocation_checks(const Options& o, Invocation& inv) {
  if (o.smoke) return;
  if (inv.workload == "hyper-real" || inv.workload == "spatio-real") {
    const uint64_t crc = table1_crc();
    if (crc != 0xc5a68719c0851beaull) {
      inv.failures.push_back("Table 1 CRC-64 " + hex(crc) +
                             " != c5a68719c0851bea");
    }
  } else if (inv.workload == "flows-100k") {
    const uint64_t fp = publish_campaign_fingerprint();
    if (fp != 0xe38ad6f2cf22fe5bull) {
      inv.failures.push_back("publish campaign fingerprint " + hex(fp) +
                             " != e38ad6f2cf22fe5b");
    }
  }
}

Invocation invoke(const Options& o, const std::string& workload) {
  Invocation inv;
  inv.workload = workload;
  const double start = now_s();
  invocation_checks(o, inv);
  if (o.reps > 0 || o.seconds <= 0) {
    repeat(o, false, o.reps > 0 ? o.reps : 7, 0, 0, inv);
    if (o.traced) repeat(o, true, 1, 0, 0, inv);
  } else if (o.traced) {
    repeat(o, false, 0, 3, o.seconds / 2, inv);
    repeat(o, true, 0, 1, o.seconds - (now_s() - start), inv);
  } else {
    repeat(o, false, 0, 3, o.seconds, inv);
  }

  // Same seed, same outputs: every repetition, traced or not, must agree.
  std::set<std::string> fingerprints, events;
  for (const auto* reps : {&inv.untraced, &inv.traced}) {
    for (const Json& d : *reps) {
      fingerprints.insert(d.at("fingerprint").as_string());
      events.insert(std::to_string(d.at("events").as_int()));
    }
  }
  if (fingerprints.size() > 1 || events.size() > 1) {
    inv.failures.push_back(
        "repetitions disagree on fingerprint or engine events (traced "
        "probes must not perturb the run)");
  }
  return inv;
}

picobench::Summary summarize_field(
    const std::vector<Json>& reps,
    const std::function<double(const Json&)>& f) {
  std::vector<double> v;
  for (const Json& d : reps) v.push_back(f(d));
  return picobench::summarize(v);
}

std::map<std::string, picobench::Summary> end_to_end(const Invocation& inv) {
  std::map<std::string, picobench::Summary> m;
  for (const char* field : {"wall_s", "setup_s", "peak_rss_mb", "cpu_s"}) {
    m[field] = summarize_field(
        inv.untraced, [&](const Json& d) { return d.at(field).as_double(); });
  }
  m["flows_per_s"] = summarize_field(inv.untraced, [](const Json& d) {
    return ratio(d.at("settled").as_double(), d.at("wall_s").as_double());
  });
  return m;
}

std::map<std::string, double> per_layer(const Invocation& inv,
                                        const char* block) {
  std::map<std::string, std::vector<double>> values;
  for (const Json& d : inv.traced) {
    for (const auto& [k, v] : d.at(block).as_object()) {
      values[k].push_back(v.as_double());
    }
  }
  std::map<std::string, double> m;
  for (const auto& [k, v] : values) m[k] = picobench::summarize(v).median;
  if (std::string(block) == "layer" && !inv.traced.empty()) {
    auto wall = [](const Json& d) { return d.at("wall_s").as_double(); };
    m["trace.overhead_frac"] =
        ratio(summarize_field(inv.traced, wall).median,
              summarize_field(inv.untraced, wall).median) -
        1.0;
  }
  return m;
}

const char* unit_of(const std::string& name) {
  for (const auto& d : kEndToEnd) {
    if (name == d.name) return d.unit;
  }
  for (const auto& d : kPerLayer) {
    if (name == d.name) return d.unit;
  }
  return "";
}

void print_report(const Options& o, const Invocation& inv) {
  std::printf("== %s  seed %llu  %zu untraced + %zu traced repetitions%s ==\n",
              inv.workload.c_str(), static_cast<unsigned long long>(o.seed),
              inv.untraced.size(), inv.traced.size(),
              o.smoke ? "  (smoke size)" : "");
  for (const auto& [name, s] : end_to_end(inv)) {
    std::printf(
        "  %-16s %14.6f %-8s q1 %.6f  q3 %.6f  iqr/median %.3f  n %zu\n",
        name.c_str(), s.median, unit_of(name), s.q1, s.q3, s.iqr_frac(),
        s.n);
  }
  if (!inv.traced.empty()) {
    std::printf("  per layer (traced repetition):\n");
    for (const auto& [name, v] : per_layer(inv, "layer")) {
      std::printf("    %-32s %16.6f %s\n", name.c_str(), v, unit_of(name));
    }
    std::printf("  raw layer values (where the workload runs the layer):\n");
    for (const auto& [name, v] : per_layer(inv, "raw")) {
      std::printf("    %-32s %16.6f\n", name.c_str(), v);
    }
  }
  if (!inv.untraced.empty()) {
    const Json& first = inv.untraced.front();
    std::printf("  fingerprint %s  engine events %lld  flows %lld\n",
                first.at("fingerprint").as_string().c_str(),
                static_cast<long long>(first.at("events").as_int()),
                static_cast<long long>(first.at("attempted").as_int()));
  }
  for (const auto& f : inv.failures) std::printf("  FAIL: %s\n", f.c_str());
  if (inv.correct()) std::printf("  all checks pass\n");
  std::fflush(stdout);
}

/// The report written by --out: every repetition's raw numbers, so a
/// baseline can be rebuilt and its spreads recomputed.
Json report_json(const Options& o, const std::vector<Invocation>& invs) {
  Json workloads = Json::object();
  for (const Invocation& inv : invs) {
    Json e2e = Json::object();
    for (const auto& [name, s] : end_to_end(inv)) {
      e2e[name] = Json::object({{"median", s.median},
                                {"q1", s.q1},
                                {"q3", s.q3},
                                {"n", static_cast<int64_t>(s.n)},
                                {"unit", unit_of(name)}});
    }
    Json layer = Json::object();
    for (const auto& [name, v] : per_layer(inv, "layer")) layer[name] = v;
    Json raw = Json::object();
    for (const auto& [name, v] : per_layer(inv, "raw")) raw[name] = v;
    Json reps = Json::array();
    for (const Json& d : inv.untraced) reps.push_back(d);
    Json failures = Json::array();
    for (const auto& f : inv.failures) failures.push_back(f);
    workloads[inv.workload] = Json::object({
        {"end_to_end", e2e},
        {"per_layer", layer},
        {"raw", raw},
        {"repetitions", reps},
        {"failures", failures},
    });
  }
  return Json::object({
      {"host", picobench::host_json()},
      {"seed", static_cast<int64_t>(o.seed)},
      {"smoke", o.smoke},
      {"workloads", workloads},
  });
}

/// BENCHMARK.json must name exactly the metrics this binary emits.
std::vector<std::string> check_spec(const std::string& path) {
  std::vector<std::string> problems;
  std::string text;
  if (auto bytes = util::read_file(path); bytes) {
    text.assign(bytes.value().begin(), bytes.value().end());
  }
  auto doc = Json::parse(text);
  if (!doc || !doc.value().is_object()) return {"cannot read " + path};
  auto compare = [&](const char* key, const auto& table) {
    std::map<std::string, std::string> want, got;
    for (const auto& d : table) {
      want[d.name] = std::string(d.unit) + " " + d.better;
    }
    for (const auto& m : doc.value().at(key).as_array()) {
      got[m.at("name").as_string()] =
          m.at("unit").as_string() + " " + m.at("better").as_string();
    }
    if (want != got) {
      problems.push_back(std::string(key) + " in " + path +
                         " differs from the metrics picobench emits");
    }
  };
  compare("end_to_end", kEndToEnd);
  compare("per_layer", kPerLayer);
  std::set<std::string> names;
  for (const auto& w : doc.value().at("workloads").as_array()) {
    names.insert(w.at("name").as_string());
  }
  if (names != std::set<std::string>(std::begin(kWorkloads),
                                     std::end(kWorkloads))) {
    problems.push_back("workloads in " + path + " differ from picobench's");
  }
  return problems;
}

/// The last stdout line: {correct, attempted, failed, metrics}. Metric keys
/// are prefixed with the workload when more than one ran.
void print_result(const Options& o, const std::vector<Invocation>& invs,
                  const std::vector<std::string>& spec_problems) {
  bool correct = spec_problems.empty();
  int64_t attempted = 0, failed = 0;
  Json metrics = Json::object();
  for (const Invocation& inv : invs) {
    correct = correct && inv.correct();
    attempted += static_cast<int64_t>(inv.attempted);
    failed += static_cast<int64_t>(inv.failed);
    const std::string prefix = invs.size() > 1 ? inv.workload + "/" : "";
    if (o.traced) {
      const auto layer = per_layer(inv, "layer");
      for (const auto& d : kPerLayer) {
        auto it = layer.find(d.name);
        metrics[prefix + d.name] =
            Json::object({{"value", it == layer.end() ? 0.0 : it->second},
                          {"unit", d.unit}});
      }
    } else {
      const auto e2e = end_to_end(inv);
      for (const auto& d : kEndToEnd) {
        metrics[prefix + d.name] = Json::object(
            {{"value", e2e.at(d.name).median}, {"unit", d.unit}});
      }
    }
  }
  std::printf("%s\n", Json::object({{"correct", correct},
                                    {"attempted", attempted},
                                    {"failed", failed},
                                    {"metrics", metrics}})
                          .dump()
                          .c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: picobench --workload NAME|all [--reps N | --seconds S] "
               "[--seed S] [--traced] [--smoke] [--out FILE] [--spec FILE]\n"
               "workloads:");
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--reps" && has_value) {
      o.reps = std::atoi(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (arg == "--out" && has_value) {
      o.out = argv[++i];
    } else if (arg == "--spec" && has_value) {
      o.spec = argv[++i];
    } else if (arg == "--traced") {
      o.traced = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--child") {
      o.child = true;
    } else {
      return usage();
    }
  }
  // Chaos workloads warn per cancelled run and per watchdog flag; logging
  // them would be measured as part of the run.
  util::LogConfig::set_level(util::LogLevel::Error);
  if (o.child) return run_child(o);

  std::vector<std::string> workloads;
  for (const char* w : kWorkloads) {
    if (o.workload == "all" || o.workload == w) workloads.push_back(w);
  }
  if (workloads.empty()) return usage();

  std::vector<std::string> spec_problems;
  if (!o.spec.empty()) spec_problems = check_spec(o.spec);
  for (const auto& p : spec_problems) std::printf("FAIL: %s\n", p.c_str());

  std::vector<Invocation> invs;
  for (const auto& w : workloads) {
    invs.push_back(invoke(o, w));
    print_report(o, invs.back());
  }
  if (!o.out.empty()) {
    util::write_file(o.out, report_json(o, invs).dump(2) + "\n");
  }
  print_result(o, invs, spec_problems);
  bool correct = spec_problems.empty();
  for (const auto& inv : invs) correct = correct && inv.correct();
  return correct ? 0 : 1;
}
