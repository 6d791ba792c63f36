// Health-plane overhead and efficacy bench (A12).
//
// Two gated claims:
//
//  overhead - the always-on flight recorder + periodic health snapshot loop
//             costs < 2% wall clock on both Table-1 campaigns, measured by
//             running each campaign with the health plane on and off in
//             back-to-back pairs and taking the median per-pair delta. The
//             campaigns run with real_payloads so every flow does the real
//             data-plane work (EMD parse, reductions, peak find / tracking,
//             artifact rendering): the ratio is measured against a facility
//             doing science, not against skeleton event shuffling. Payloads
//             are scaled to 8 MB (vs the paper's 91 / 1200 MB) to keep CI
//             runtime bounded; the health plane's absolute cost per simulated
//             hour is what it is regardless of payload, so shrinking the
//             payload only makes the 2% bar harder, never easier
//  efficacy - under the PR6 frame-chaos campaign (standing drop/reorder/
//             duplicate probabilities plus three consumer stalls) the health
//             plane raises >= 1 SLO burn alert, flags >= 1 flow via the
//             watchdogs, and produces a non-empty flight-recorder dump for
//             every degraded (fallen-back) flow -- while the identical
//             fault-free campaign stays completely silent: no alerts, no
//             watchdog flags, no dump-worthy rings
//
// Emits a pico.bench.v2 document (default BENCH_observability.json).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "harness.hpp"
#include "telemetry/health/monitor.hpp"
#include "util/json.hpp"

using namespace pico;

namespace {

// ----------------------------------------------------------- overhead ----

struct OverheadRun {
  std::string name;
  double off_s = 0;
  double on_s = 0;
  double overhead_pct = 0;
  size_t failed_flows = 0;  ///< summed over every timed campaign
};

/// Wall-clock seconds for one full Table-1 campaign on a fresh facility.
double time_campaign(bool hyper, bool health_on, double duration_s,
                     OverheadRun* run) {
  auto [fc, cfg] = core::paper_experiment(
      hyper ? core::UseCase::Hyperspectral : core::UseCase::Spatiotemporal);
  // The overhead arms stage ~1 GB of payload per campaign; keep that on
  // tmpfs so ext4 writeback jitter doesn't drown the sub-1% signal being
  // measured. Falls back to the usual artifact tree where /dev/shm is absent.
  fc.artifact_dir = std::filesystem::is_directory("/dev/shm")
                        ? "/dev/shm/pico-bench-observability"
                        : "bench-artifacts/observability";
  fc.health.enabled = health_on;
  fc.health.flight.enabled = health_on;
  cfg.duration_s = duration_s;
  cfg.real_payloads = true;
  cfg.file_bytes = 8 * 1000 * 1000;  // scaled-down-but-real acquisitions
  core::Facility facility(fc);
  const double t0 = bench::now_s();
  core::CampaignResult result = core::run_campaign(facility, cfg);
  const double t1 = bench::now_s();
  run->failed_flows += result.failed;
  return t1 - t0;
}

OverheadRun measure_overhead(bool hyper, double duration_s, int reps) {
  OverheadRun run;
  run.name = hyper ? "hyperspectral" : "spatiotemporal";
  std::vector<double> off, on, delta;
  // One untimed warmup per arm, then paired reps: each rep runs both arms
  // back to back (alternating which goes first, to cancel any warm-cache
  // bias) and contributes one relative delta. Pairing cancels the slow
  // machine-load drift that dwarfs the true cost when the arms are pooled
  // separately; the median delta shrugs off spike outliers.
  time_campaign(hyper, false, duration_s, &run);
  time_campaign(hyper, true, duration_s, &run);
  for (int i = 0; i < reps; ++i) {
    double off_i, on_i;
    if (i % 2 == 0) {
      off_i = time_campaign(hyper, false, duration_s, &run);
      on_i = time_campaign(hyper, true, duration_s, &run);
    } else {
      on_i = time_campaign(hyper, true, duration_s, &run);
      off_i = time_campaign(hyper, false, duration_s, &run);
    }
    off.push_back(off_i);
    on.push_back(on_i);
    delta.push_back((on_i - off_i) / off_i * 100.0);
    std::printf("    %-7s pair %d (%s first): off %7.1f ms  on %7.1f ms  "
                "delta %+5.2f%%\n",
                run.name.c_str(), i, i % 2 == 0 ? "off" : "on", off_i * 1e3,
                on_i * 1e3, delta.back());
    std::fflush(stdout);
  }
  run.off_s = picobench::summarize(off).median;
  run.on_s = picobench::summarize(on).median;
  run.overhead_pct = picobench::summarize(delta).median;
  return run;
}

// ------------------------------------------------------------ efficacy ----

/// The PR6 streaming facility with the health plane calibrated for the
/// frame-chaos campaign: fault-free direct flows settle in ~14-32 s, while a
/// stall-caught flow rides the degradation ladder (25 s stall budget, spill,
/// whole-flow fallback through the store) and lands past 50 s — cleanly on
/// the far side of the 40 s latency objective and 45 s deadline.
core::FacilityConfig chaos_facility_config() {
  core::FacilityConfig fc;
  fc.artifact_dir = "bench-artifacts/observability";
  fc.seed = 20230915;
  // Steady-state streaming: a short queue wait keeps the deadline watchdog
  // calibrated to flow runtime (fault-free < 45 s) rather than the one-off
  // first-allocation wait.
  fc.cost.provision_delay_s = 5.0;
  fc.cost.provision_jitter_s = 0.0;
  fc.flow.completion_mode = flow::CompletionMode::Events;
  fc.stream.detector_rate_bps = 400e6;
  fc.stream.channel.ring_capacity = 4;
  fc.stream.stall_fallback_s = 25.0;

  fc.health.snapshot_interval_s = 15.0;
  fc.health.stall_after_s = 60.0;
  fc.health.flow_deadline_s = 45.0;
  fc.health.slo.spec.completion_latency_s = 40.0;
  fc.health.slo.spec.error_budget = 0.05;
  // A stall window degrades ~1-2 of the ~20 flows completing per slow
  // window; 5% budget puts that episode at slow-burn ~1 and fast-burn ~5.
  fc.health.slo.spec.latency_budget = 0.05;
  fc.health.slo.spec.time_to_first_result_s = 300.0;
  fc.health.slo.fast = {120.0, 2.0};
  fc.health.slo.slow = {600.0, 0.9};
  return fc;
}

core::CampaignConfig chaos_campaign_config(double duration_s, bool chaos) {
  core::CampaignConfig cfg;
  cfg.use_case = core::UseCase::Hyperspectral;
  cfg.duration_s = duration_s;
  cfg.label_prefix = "stream";
  cfg.streaming_direct = true;
  cfg.slow_run_threshold_s = 40.0;  // must match the SLO latency objective
  if (chaos) {
    using fault::FaultEvent;
    using fault::FaultKind;
    cfg.chaos.name = "frame-chaos";
    cfg.chaos.add(
        FaultEvent{FaultKind::FrameDrop, 0, 2 * duration_s, "", 0.05});
    cfg.chaos.add(
        FaultEvent{FaultKind::FrameReorder, 0, 2 * duration_s, "", 0.05});
    cfg.chaos.add(
        FaultEvent{FaultKind::FrameDuplicate, 0, 2 * duration_s, "", 0.05});
    cfg.chaos.add(
        FaultEvent{FaultKind::ConsumerStall, 0.25 * duration_s, 60, "", 0});
    cfg.chaos.add(
        FaultEvent{FaultKind::ConsumerStall, 0.50 * duration_s, 60, "", 0});
    cfg.chaos.add(
        FaultEvent{FaultKind::ConsumerStall, 0.75 * duration_s, 60, "", 0});
    cfg.recovery.enabled = true;
    cfg.recovery.resubmit_budget = 3;
  }
  return cfg;
}

struct HealthRun {
  std::string name;
  size_t settled = 0;
  size_t failed = 0;
  double fallbacks = 0;
  uint64_t slo_alerts = 0;
  uint64_t watchdog_flags = 0;
  uint64_t anomaly_alerts = 0;
  uint64_t health_ticks = 0;
  size_t dumps = 0;
  size_t degraded_dumps = 0;  ///< dumps whose ring saw a stream-fallback
  size_t empty_dumps = 0;
  util::Json alerts = util::Json::array();
};

HealthRun run_health_mode(const std::string& name, double duration_s,
                          bool chaos) {
  core::Facility facility(chaos_facility_config());
  core::CampaignConfig cfg = chaos_campaign_config(duration_s, chaos);
  core::CampaignResult result = core::run_campaign(facility, cfg);

  HealthRun run;
  run.name = name;
  run.settled = result.in_window.size() + result.late.size();
  run.failed = result.failed;
  run.fallbacks = facility.telemetry()
                      .metrics
                      .counter("stream_fallbacks_total",
                               "Sessions re-routed whole-flow to the store "
                               "path")
                      .value();
  auto& health = facility.health();
  run.slo_alerts = health.slo_alerts();
  run.watchdog_flags = health.watchdog_flags();
  run.anomaly_alerts = health.anomaly_alerts();
  run.health_ticks = health.ticks();
  for (const auto& a : health.alerts()) {
    if (run.alerts.as_array().size() >= 24) break;  // keep the JSON readable
    run.alerts.push_back(util::Json::object({
        {"at_s", a.at.seconds()},
        {"kind", a.kind},
        {"severity", a.severity},
        {"subject", a.subject},
    }));
  }
  for (auto& [subject, dump] : facility.telemetry().flight.flush_dumps()) {
    ++run.dumps;
    if (dump.at("events_total").as_int() == 0) ++run.empty_dumps;
    for (const auto& e : dump.at("events").as_array()) {
      if (e.at("name").as_string() == "stream-fallback") {
        ++run.degraded_dumps;
        break;
      }
    }
  }
  return run;
}

util::Json health_json(const HealthRun& r) {
  return util::Json::object({
      {"settled", static_cast<int64_t>(r.settled)},
      {"failed", static_cast<int64_t>(r.failed)},
      {"fallbacks", r.fallbacks},
      {"slo_alerts", static_cast<int64_t>(r.slo_alerts)},
      {"watchdog_flags", static_cast<int64_t>(r.watchdog_flags)},
      {"anomaly_alerts", static_cast<int64_t>(r.anomaly_alerts)},
      {"health_ticks", static_cast<int64_t>(r.health_ticks)},
      {"flight_dumps", static_cast<int64_t>(r.dumps)},
      {"degraded_flow_dumps", static_cast<int64_t>(r.degraded_dumps)},
      {"empty_dumps", static_cast<int64_t>(r.empty_dumps)},
      {"undumped_fallbacks",
       std::max(0.0, r.fallbacks - static_cast<double>(r.degraded_dumps))},
      {"alerts_recorded", static_cast<int64_t>(r.alerts.as_array().size())},
      {"alerts", r.alerts},
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("observability", argc, argv);
  const double duration_s = h.smoke() ? 900 : 3600;
  // Smoke campaigns last about a second, so one pair's delta swings by
  // several percent with host load; it takes the median of 21 pairs to
  // read the < 2 % gate reliably.
  const int reps = h.smoke() ? 21 : 7;

  // ---- overhead: health plane on vs off on both Table-1 campaigns ----
  OverheadRun hyper = measure_overhead(/*hyper=*/true, duration_s, reps);
  OverheadRun spatio = measure_overhead(/*hyper=*/false, duration_s, reps);
  std::printf(
      "health-plane overhead (%.0f s campaigns, median of %d paired deltas):\n",
      duration_s, reps);
  for (const OverheadRun* r : {&hyper, &spatio}) {
    std::printf("  %-15s off %7.1f ms  on %7.1f ms  overhead %+5.2f%%\n",
                r->name.c_str(), r->off_s * 1e3, r->on_s * 1e3,
                r->overhead_pct);
  }

  // ---- efficacy: chaos lights the plane up, fault-free stays dark ----
  HealthRun chaos = run_health_mode("chaos", duration_s, /*chaos=*/true);
  HealthRun quiet = run_health_mode("fault_free", duration_s, /*chaos=*/false);
  std::printf(
      "\n%-10s settled %3zu failed %zu fallbacks %3.0f | slo %llu watchdog "
      "%llu anomaly %llu | dumps %zu (degraded %zu, empty %zu)\n",
      chaos.name.c_str(), chaos.settled, chaos.failed, chaos.fallbacks,
      static_cast<unsigned long long>(chaos.slo_alerts),
      static_cast<unsigned long long>(chaos.watchdog_flags),
      static_cast<unsigned long long>(chaos.anomaly_alerts), chaos.dumps,
      chaos.degraded_dumps, chaos.empty_dumps);
  std::printf(
      "%-10s settled %3zu failed %zu fallbacks %3.0f | slo %llu watchdog "
      "%llu anomaly %llu | dumps %zu\n",
      quiet.name.c_str(), quiet.settled, quiet.failed, quiet.fallbacks,
      static_cast<unsigned long long>(quiet.slo_alerts),
      static_cast<unsigned long long>(quiet.watchdog_flags),
      static_cast<unsigned long long>(quiet.anomaly_alerts), quiet.dumps);

  util::Json overhead = util::Json::object();
  for (const OverheadRun* r : {&hyper, &spatio}) {
    overhead[r->name] = util::Json::object({
        {"off_wall_s", r->off_s},
        {"on_wall_s", r->on_s},
        {"overhead_pct", r->overhead_pct},
        {"failed_flows", static_cast<int64_t>(r->failed_flows)},
    });
    // The health plane costs < 2% wall clock, and never a flow.
    h.gate("overhead." + r->name + ".off_wall",
           "overhead." + r->name + ".off_wall_s", ">", 0);
    h.gate("overhead." + r->name + ".on_wall",
           "overhead." + r->name + ".on_wall_s", ">", 0);
    h.gate("overhead." + r->name, "overhead." + r->name + ".overhead_pct", "<",
           2.0);
    h.gate("overhead." + r->name + ".failed",
           "overhead." + r->name + ".failed_flows", "==", 0);
  }
  h.results = util::Json::object({
      {"duration_s", duration_s},
      {"reps", static_cast<int64_t>(reps)},
      {"overhead", std::move(overhead)},
      {"runs", util::Json::object({{"chaos", health_json(chaos)},
                                   {"fault_free", health_json(quiet)}})},
  });
  for (const char* run : {"chaos", "fault_free"}) {
    const std::string at = std::string("runs.") + run + ".";
    h.gate(at + "settled", at + "settled", ">", 0);
    h.gate(at + "failed", at + "failed", "==", 0);
    h.gate(at + "health_ticks", at + "health_ticks", ">", 0);
  }
  // Chaos lights the plane up: the ladder fires, every alert kind is raised,
  // and every degraded flow leaves a non-empty flight dump...
  for (const char* key :
       {"fallbacks", "slo_alerts", "watchdog_flags", "anomaly_alerts"}) {
    h.gate(std::string("chaos.") + key, std::string("runs.chaos.") + key,
           ">=", 1);
  }
  h.gate("chaos.degraded_flows_dumped", "runs.chaos.undumped_fallbacks", "==",
         0);
  h.gate("chaos.empty_dumps", "runs.chaos.empty_dumps", "==", 0);
  h.gate("chaos.alerts_recorded", "runs.chaos.alerts_recorded", ">=", 1);
  // ...while the identical fault-free campaign stays completely silent.
  for (const char* key :
       {"slo_alerts", "watchdog_flags", "anomaly_alerts", "flight_dumps"}) {
    h.gate(std::string("fault_free.") + key,
           std::string("runs.fault_free.") + key, "==", 0);
  }
  return h.finish();
}
