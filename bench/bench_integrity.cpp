// End-to-end integrity shootout (A9): what verified resumable transfers buy
// under mid-transfer faults, and proof that silent corruption cannot reach
// the published search index.
//
// Part 1 — resume acceptance. One 200 MB streaming transfer is cut by a link
// partition at exactly 50% progress and retried mid-outage:
//
//   verified resume   - the retry attaches the chunk manifest and moves only
//                       the unverified suffix (< 60% of file bytes)
//   whole-file restart- the pre-PR baseline; the abandoned attempt and its
//                       replacement each move the full file (>= 150% total)
//
// Part 2 — the Table-1 spatiotemporal campaign (1200 MB / 120 s) three ways:
// fault-free baseline, then an integrity-chaos schedule (link partitions at
// 30%/60% of the window, wire bit-flips, truncated landings, at-rest bit rot
// with a periodic scrubber, and a Publish timeout that forces duplicate
// publish attempts) with resume on, and the same chaos with resume off. The
// chaos runs must end with zero lost flows, a search index byte-identical to
// the baseline's, and zero duplicate publications; the gap between the two
// chaos runs' wire totals is the retry bytes saved.
//
// Emits a pico.bench.v2 document (default BENCH_integrity.json).
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "auth/auth.hpp"
#include "core/campaign.hpp"
#include "harness.hpp"
#include "net/network.hpp"
#include "storage/store.hpp"
#include "transfer/service.hpp"
#include "util/json.hpp"

using namespace pico;

namespace {

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double counter_value(core::Facility& facility, const std::string& name,
                     const std::string& help,
                     const telemetry::Labels& labels = {}) {
  return facility.telemetry().metrics.counter(name, help, labels).value();
}

constexpr const char* kWireBytesHelp =
    "Bytes that crossed the network (after compression)";
constexpr const char* kResumeHelp =
    "Chunks skipped on retry because the manifest already verified them";
constexpr const char* kCorruptionHelp =
    "Integrity violations detected, by location";
constexpr const char* kSuppressedHelp =
    "Search publishes suppressed by idempotency keys";
constexpr const char* kRepairsHelp =
    "Re-transfers submitted to repair quarantined objects";
constexpr const char* kRetriesHelp =
    "File re-transfers after a mid-flight fault or integrity failure";

// ------------------------------------------------ part 1: resume acceptance

constexpr int64_t kResumeFileBytes = 200'000'000;
constexpr int64_t kResumeChunkBytes = 10'000'000;  // 20 chunks, 1 s of wire each

struct ResumeOutcome {
  int64_t retry_wire_bytes = 0;   ///< bytes moved by the retried task alone
  int64_t total_wire_bytes = 0;   ///< both attempts together
  int64_t chunks_resumed = 0;
  int64_t attempts_succeeded = 0;  ///< of the two submitted attempts
  int64_t delivered_intact = 0;    ///< 1 when the delivered object verifies
};

// One streaming transfer over a dedicated 10 MB/s link, partitioned after the
// tenth chunk lands (50% verified, chunk 11 stalled in flight). The
// orchestrator-equivalent retry is submitted mid-outage; its sends fail fast
// (no route) and back off until the heal.
ResumeOutcome run_resume_scenario(bool verified_resume) {
  sim::Engine engine;
  net::Topology topo;
  net::NodeId a = topo.add_node("src");
  net::NodeId b = topo.add_node("dst");
  net::LinkId link = topo.add_link(a, b, 80e6);  // 10 MB/s
  net::Network network(&engine, &topo);

  auth::AuthService auth;
  storage::Store src_store("src", static_cast<int64_t>(1e12));
  storage::Store dst_store("dst", static_cast<int64_t>(1e12));

  transfer::TransferConfig cfg;
  cfg.setup_mean_s = 1.0;
  cfg.setup_jitter_s = 0.0;
  cfg.per_file_overhead_s = 0.1;
  cfg.settle_base_s = 0.2;
  cfg.settle_per_gb_s = 0.0;
  cfg.cap_jitter_frac = 0.0;
  cfg.max_retries = 10;
  cfg.retry_backoff_s = 0.5;
  cfg.verified_resume = verified_resume;
  transfer::TransferService service(&engine, &network, &auth, cfg, 42);
  service.register_endpoint("ep-src", a, &src_store);
  service.register_endpoint("ep-dst", b, &dst_store);
  auth::Token token = auth.issue("user@anl.gov", {"transfer"});

  if (!src_store.put_virtual("raw/acq.emd", kResumeFileBytes, 7, engine.now())) {
    return {};  // staging failed: no attempt succeeds, the gates say so
  }
  transfer::TransferRequest req;
  req.src_endpoint = "ep-src";
  req.dst_endpoint = "ep-dst";
  req.files = {{"raw/acq.emd", "exp/acq.emd"}};
  req.streaming_chunk_bytes = kResumeChunkBytes;

  auto first = service.submit(req, token);
  // Chunk landings: 2.1, 3.1, ..., 11.1 (setup 1.0 + per-file 0.1 + 1 s of
  // wire per 10 MB chunk). Partition right after the tenth landing.
  engine.schedule_at(sim::SimTime::from_seconds(11.55), [&] {
    topo.set_link_up(link, false);
    network.rates_changed();
  });
  util::Result<transfer::TaskId> second =
      util::Result<transfer::TaskId>::err("not submitted");
  engine.schedule_at(sim::SimTime::from_seconds(15.0),
                     [&] { second = service.submit(req, token); });
  engine.schedule_at(sim::SimTime::from_seconds(40.0), [&] {
    topo.set_link_up(link, true);
    network.rates_changed();
  });
  engine.run();

  if (!first || !second) return {};
  transfer::TaskInfo one = service.status(first.value());
  transfer::TaskInfo two = service.status(second.value());

  ResumeOutcome out;
  out.retry_wire_bytes = two.wire_bytes;
  out.total_wire_bytes = one.wire_bytes + two.wire_bytes;
  out.chunks_resumed = two.chunks_resumed;
  out.attempts_succeeded = (one.state == transfer::TaskState::Succeeded) +
                           (two.state == transfer::TaskState::Succeeded);
  out.delivered_intact = dst_store.exists("exp/acq.emd") &&
                         dst_store.verify("exp/acq.emd").value_or(false);
  return out;
}

// -------------------------------------------- part 2: campaign under chaos

struct CampaignRun {
  std::string name;
  size_t settled = 0;
  size_t successes = 0;
  size_t failed = 0;
  size_t lost = 0;
  size_t recovered = 0;
  size_t resubmits = 0;
  uint64_t step_timeouts = 0;
  double wire_bytes = 0;
  double chunks_resumed = 0;
  double file_retries = 0;
  double corruption_wire = 0;
  double corruption_landing = 0;
  double corruption_at_rest = 0;
  double repairs = 0;
  double duplicates_suppressed = 0;
  uint64_t scrub_scans = 0;
  uint64_t scrub_corrupt_found = 0;
  size_t quarantined = 0;
  size_t index_size = 0;
  int64_t duplicate_publishes = 0;  ///< records beyond one per successful flow
  uint64_t index_fingerprint = 0;
  size_t duplicate_settlements = 0;  ///< logical flows that settled twice
  size_t corrupt_objects = 0;        ///< surviving Eagle objects that fail CRC
};

core::FacilityConfig campaign_facility_config() {
  // The paper's spatiotemporal calibration (Sec. 3.3 queue conditions).
  core::FacilityConfig fc =
      core::paper_experiment(core::UseCase::Spatiotemporal).facility;
  fc.artifact_dir = "bench-artifacts/integrity";
  fc.transfer_max_retries = 8;
  // Events mode so Transfer steps stream chunked (the resumable wire format).
  fc.flow.completion_mode = flow::CompletionMode::Events;
  return fc;
}

core::CampaignConfig campaign_config(double duration_s) {
  core::CampaignConfig cfg =
      core::paper_experiment(core::UseCase::Spatiotemporal).campaign;
  cfg.duration_s = duration_s;
  cfg.label_prefix = "integ";  // the recorded index fingerprints name it
  cfg.streaming_steps = {"Analyze"};  // chunked transfers + cut-through
  return cfg;
}

// The integrity-chaos schedule, scaled to the campaign window: two 90 s link
// partitions that each catch a 1200 MB transfer mid-flight, a standing wire
// bit-flip probability, occasional truncated landings, and two at-rest bit-rot
// strikes for the scrubber to find.
void add_chaos(core::CampaignConfig& cfg, double duration_s) {
  using fault::FaultEvent;
  using fault::FaultKind;
  cfg.chaos.name = "integrity-chaos";
  cfg.chaos.add(FaultEvent{FaultKind::LinkPartition, 0.30 * duration_s, 90,
                           "user-switch", 0});
  cfg.chaos.add(FaultEvent{FaultKind::LinkPartition, 0.60 * duration_s, 90,
                           "user-switch", 0});
  cfg.chaos.add(FaultEvent{FaultKind::WireBitFlip, 0, 2 * duration_s, "", 0.02});
  cfg.chaos.add(
      FaultEvent{FaultKind::TruncatedLanding, 0, 2 * duration_s, "", 0.05});
  cfg.chaos.add(
      FaultEvent{FaultKind::StorageCorrupt, 0.45 * duration_s, 0, "", 0.3});
  cfg.chaos.add(
      FaultEvent{FaultKind::StorageCorrupt, 0.80 * duration_s, 0, "", 0.3});
  cfg.scrub_interval_s = 300;
  cfg.recovery.enabled = true;
  cfg.recovery.resubmit_budget = 3;
  // A 1200 MB transfer needs ~118 s clean; one straddling a 90 s partition
  // blows through 180 s, gets abandoned, and must resume from the manifest.
  cfg.step_timeouts["Transfer"] = 180;
  // Publish takes 1.2 +/- 0.3 s; a 1.0 s timeout abandons most first attempts
  // after their ingest has irrevocably started, forcing the re-dispatched
  // Publish through the idempotency key.
  cfg.step_timeouts["Publish"] = 1.0;
}

CampaignRun run_campaign_mode(const std::string& name, double duration_s,
                              bool chaos, bool verified_resume) {
  core::Facility facility(campaign_facility_config());
  if (!verified_resume) facility.transfer().set_verified_resume(false);
  core::CampaignConfig cfg = campaign_config(duration_s);
  if (chaos) add_chaos(cfg, duration_s);
  core::CampaignResult result = core::run_campaign(facility, cfg);

  CampaignRun run;
  run.name = name;
  run.failed = result.failed;
  run.lost = result.robustness.lost;
  run.recovered = result.robustness.recovered;
  run.resubmits = result.robustness.resubmits;
  run.step_timeouts = result.robustness.step_timeouts;
  std::set<std::string> labels;
  for (const auto* bucket : {&result.in_window, &result.late}) {
    for (const core::CompletedFlow& f : *bucket) {
      ++run.settled;
      if (f.success) ++run.successes;
      if (!labels.insert(f.label).second) ++run.duplicate_settlements;
    }
  }

  run.wire_bytes =
      counter_value(facility, "transfer_wire_bytes_total", kWireBytesHelp);
  run.chunks_resumed =
      counter_value(facility, "transfer_chunks_resumed_total", kResumeHelp);
  run.file_retries =
      counter_value(facility, "transfer_retries_total", kRetriesHelp);
  run.corruption_wire = counter_value(facility, "corruption_detected_total",
                                      kCorruptionHelp, {{"where", "wire"}});
  run.corruption_landing =
      counter_value(facility, "corruption_detected_total", kCorruptionHelp,
                    {{"where", "landing"}});
  run.corruption_at_rest =
      counter_value(facility, "corruption_detected_total", kCorruptionHelp,
                    {{"where", "at_rest"}});
  run.repairs = counter_value(facility, "transfer_repairs_total", kRepairsHelp);
  run.duplicates_suppressed = counter_value(
      facility, "publish_duplicates_suppressed_total", kSuppressedHelp);
  if (facility.scrubber() != nullptr) {
    run.scrub_scans = facility.scrubber()->stats().scans;
    run.scrub_corrupt_found = facility.scrubber()->stats().corrupt_found;
  }
  run.quarantined = facility.eagle().quarantine_count();
  run.index_size = facility.index().size();
  run.duplicate_publishes = static_cast<int64_t>(run.index_size) -
                            static_cast<int64_t>(run.successes);
  run.index_fingerprint = facility.index().fingerprint();
  for (const std::string& path : facility.eagle().list()) {
    if (!facility.eagle().verify(path).value_or(false)) ++run.corrupt_objects;
  }
  return run;
}

util::Json run_json(const CampaignRun& r) {
  return util::Json::object({
      {"settled", static_cast<int64_t>(r.settled)},
      {"successes", static_cast<int64_t>(r.successes)},
      {"failed", static_cast<int64_t>(r.failed)},
      {"lost", static_cast<int64_t>(r.lost)},
      {"recovered", static_cast<int64_t>(r.recovered)},
      {"resubmits", static_cast<int64_t>(r.resubmits)},
      {"step_timeouts", static_cast<int64_t>(r.step_timeouts)},
      {"wire_bytes", r.wire_bytes},
      {"chunks_resumed", r.chunks_resumed},
      {"file_retries", r.file_retries},
      {"corruption_detected_wire", r.corruption_wire},
      {"corruption_detected_landing", r.corruption_landing},
      {"corruption_detected_at_rest", r.corruption_at_rest},
      {"repairs", r.repairs},
      {"publish_duplicates_suppressed", r.duplicates_suppressed},
      {"scrub_scans", static_cast<int64_t>(r.scrub_scans)},
      {"scrub_corrupt_found", static_cast<int64_t>(r.scrub_corrupt_found)},
      {"quarantined", static_cast<int64_t>(r.quarantined)},
      {"index_size", static_cast<int64_t>(r.index_size)},
      {"duplicate_publishes", r.duplicate_publishes},
      {"index_fingerprint", hex64(r.index_fingerprint)},
      {"duplicate_settlements", static_cast<int64_t>(r.duplicate_settlements)},
      {"corrupt_objects", static_cast<int64_t>(r.corrupt_objects)},
  });
}

void print_run(const CampaignRun& r) {
  std::printf(
      "%-14s settled %3zu ok %3zu lost %zu | wire %8.1f MB resumed %5.0f | "
      "corrupt w/l/r %.0f/%.0f/%.0f repairs %.0f | dup supp %.0f extra %lld | "
      "index %zu %s\n",
      r.name.c_str(), r.settled, r.successes, r.lost, r.wire_bytes / 1e6,
      r.chunks_resumed, r.corruption_wire, r.corruption_landing,
      r.corruption_at_rest, r.repairs, r.duplicates_suppressed,
      static_cast<long long>(r.duplicate_publishes), r.index_size,
      r.corrupt_objects == 0 ? "clean" : "CORRUPT");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("integrity", argc, argv);
  const double duration_s = h.smoke() ? 900 : 3600;  // quarter-hour smoke

  // ---- part 1: the 50%-progress resume acceptance pair ----
  ResumeOutcome resume = run_resume_scenario(/*verified_resume=*/true);
  ResumeOutcome restart = run_resume_scenario(/*verified_resume=*/false);
  double resume_retry_frac = static_cast<double>(resume.retry_wire_bytes) /
                             static_cast<double>(kResumeFileBytes);
  double resume_total_frac = static_cast<double>(resume.total_wire_bytes) /
                             static_cast<double>(kResumeFileBytes);
  double restart_total_frac = static_cast<double>(restart.total_wire_bytes) /
                              static_cast<double>(kResumeFileBytes);
  std::printf(
      "resume acceptance (%d MB cut at 50%%): retry moved %.1f%% of the file "
      "(%lld chunks resumed; both attempts together %.1f%%); restart mode "
      "moved %.1f%% in total\n",
      static_cast<int>(kResumeFileBytes / 1'000'000), 100 * resume_retry_frac,
      static_cast<long long>(resume.chunks_resumed), 100 * resume_total_frac,
      100 * restart_total_frac);

  // ---- part 2: the spatiotemporal campaign, three ways ----
  CampaignRun baseline =
      run_campaign_mode("baseline", duration_s, /*chaos=*/false,
                        /*verified_resume=*/true);
  CampaignRun chaos_resume =
      run_campaign_mode("chaos_resume", duration_s, /*chaos=*/true,
                        /*verified_resume=*/true);
  CampaignRun chaos_restart =
      run_campaign_mode("chaos_restart", duration_s, /*chaos=*/true,
                        /*verified_resume=*/false);
  std::printf("\nspatiotemporal campaign (1200 MB / 120 s, %.0f s window):\n",
              duration_s);
  print_run(baseline);
  print_run(chaos_resume);
  print_run(chaos_restart);

  double retry_bytes_saved = chaos_restart.wire_bytes - chaos_resume.wire_bytes;
  bool index_match =
      chaos_resume.index_size == baseline.index_size &&
      chaos_resume.index_fingerprint == baseline.index_fingerprint;
  std::printf(
      "\nretry bytes saved by verified resume: %.1f MB (%.1fx the baseline "
      "wire)\nindex vs fault-free baseline: %s\n",
      retry_bytes_saved / 1e6,
      baseline.wire_bytes > 0 ? retry_bytes_saved / baseline.wire_bytes : 0.0,
      index_match ? "byte-identical" : "DIVERGED");

  const core::CampaignConfig campaign = campaign_config(duration_s);
  h.results = util::Json::object({
      {"duration_s", duration_s},
      {"resume_acceptance",
       util::Json::object({
           {"file_bytes", kResumeFileBytes},
           {"chunk_bytes", kResumeChunkBytes},
           {"resume_retry_wire_bytes", resume.retry_wire_bytes},
           {"resume_retry_wire_frac", resume_retry_frac},
           {"resume_total_wire_frac", resume_total_frac},
           {"resume_chunks_resumed", resume.chunks_resumed},
           {"resume_attempts_succeeded", resume.attempts_succeeded},
           {"resume_delivered_intact", resume.delivered_intact},
           {"restart_total_wire_bytes", restart.total_wire_bytes},
           {"restart_total_wire_frac", restart_total_frac},
           {"restart_attempts_succeeded", restart.attempts_succeeded},
           {"restart_delivered_intact", restart.delivered_intact},
       })},
      {"campaign",
       util::Json::object({
           {"use_case", "spatiotemporal"},
           {"file_bytes", campaign.file_bytes},
           {"start_period_s", campaign.start_period_s},
           {"runs", util::Json::object({{"baseline", run_json(baseline)},
                                        {"chaos_resume", run_json(chaos_resume)},
                                        {"chaos_restart",
                                         run_json(chaos_restart)}})},
           {"retry_bytes_saved", retry_bytes_saved},
           {"index_match_resume_vs_baseline", index_match ? 1 : 0},
       })},
  });

  // Part 1: both attempts of each scenario settle and deliver an intact
  // object; the resumed retry moves < 60% of the file, a restart >= 150%.
  for (const char* mode : {"resume", "restart"}) {
    const std::string at = std::string("resume_acceptance.") + mode;
    h.gate(std::string("acceptance.") + mode + "_attempts",
           at + "_attempts_succeeded", "==", 2);
    h.gate(std::string("acceptance.") + mode + "_delivered",
           at + "_delivered_intact", "==", 1);
  }
  h.gate("acceptance.chunks_resumed", "resume_acceptance.resume_chunks_resumed",
         ">=", 5);
  h.gate("acceptance.resume_retry_frac",
         "resume_acceptance.resume_retry_wire_frac", "<", 0.6);
  h.gate("acceptance.restart_total_frac",
         "resume_acceptance.restart_total_wire_frac", ">=", 1.5);

  // Part 2: every run settles each logical flow exactly once and ends with
  // every delivered object intact.
  for (const char* run : {"baseline", "chaos_resume", "chaos_restart"}) {
    const std::string at = std::string("campaign.runs.") + run + ".";
    h.gate(std::string(run) + ".settled", at + "settled", ">", 0);
    h.gate(std::string(run) + ".settled_once", at + "duplicate_settlements",
           "==", 0);
    h.gate(std::string(run) + ".objects_intact", at + "corrupt_objects", "==",
           0);
  }
  h.gate("baseline.failed", "campaign.runs.baseline.failed", "==", 0);
  // Under chaos with resume: nothing lost, every fault class detected and
  // healed, exactly one record per successful flow, identical science.
  const std::string cr = "campaign.runs.chaos_resume.";
  h.gate("chaos_resume.failed", cr + "failed", "==", 0);
  h.gate("chaos_resume.lost", cr + "lost", "==", 0);
  h.gate("chaos_resume.chunks_resumed", cr + "chunks_resumed", ">", 0);
  h.gate("chaos_resume.wire_corruption", cr + "corruption_detected_wire", ">",
         0);
  h.gate("chaos_resume.at_rest_corruption", cr + "corruption_detected_at_rest",
         ">", 0);
  h.gate("chaos_resume.repairs", cr + "repairs", ">", 0);
  h.gate("chaos_resume.duplicates_suppressed",
         cr + "publish_duplicates_suppressed", ">", 0);
  h.gate("chaos_resume.one_record_per_flow", cr + "duplicate_publishes", "==",
         0);
  h.gate("index_match", "campaign.index_match_resume_vs_baseline", "==", 1);
  h.gate("retry_bytes_saved", "campaign.retry_bytes_saved", ">", 0);
  return h.finish();
}
