// Direct detector→compute streaming shootout (A10): what bypassing the
// landing store buys, and proof that frame chaos degrades gracefully instead
// of corrupting science.
//
// Three hyperspectral campaigns (91 MB / 30 s, Table-1 shape):
//
//   cutthrough   - the PR4 pipeline: chunked store-mediated Transfer with the
//                  Analyze step starting cut-through on the first landed chunk
//   direct       - streaming_direct: the Transfer step is replaced by a Stream
//                  step pushing live detector frames (400 Mb/s cadence,
//                  4-frame ring) straight into Polaris node memory
//   direct_chaos - the same direct campaign under frame chaos: standing
//                  drop/reorder/duplicate probabilities plus two consumer
//                  stalls long enough to blow the stall budget, exercising
//                  every rung of the degradation ladder (retransmit,
//                  spill-to-store, whole-flow fallback)
//
// Gated claims: direct beats cut-through to the first settled result; the
// chaos campaign finishes every flow with a search index byte-identical to
// the fault-free direct run; and the ladder's middle rungs actually fired
// (>= 1 spill, >= 1 fallback in telemetry).
//
// Emits a pico.bench.v2 document (default BENCH_streaming.json).
#include <cstdio>
#include <string>

#include "core/campaign.hpp"
#include "harness.hpp"
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
                     const std::string& help) {
  return facility.telemetry().metrics.counter(name, help).value();
}

struct StreamRun {
  std::string name;
  size_t settled = 0;
  size_t successes = 0;
  size_t failed = 0;
  size_t lost = 0;
  size_t recovered = 0;
  double ttfr_s = 0;          ///< first settled result, seconds of virtual time
  double runtime_mean_s = 0;  ///< mean in-window flow runtime
  double wire_bytes = 0;
  double frames_sent = 0;
  double frames_dropped = 0;
  double retransmits = 0;
  double spills = 0;
  double spilled_bytes = 0;
  double fallbacks = 0;
  size_t index_size = 0;
  uint64_t index_fingerprint = 0;
};

core::FacilityConfig facility_config() {
  core::FacilityConfig fc;
  fc.artifact_dir = "bench-artifacts/streaming";
  fc.seed = 20230915;
  // Events mode: chunked transfers stream cut-through, and the Stream
  // provider settles on completion callbacks.
  fc.flow.completion_mode = flow::CompletionMode::Events;
  // Live detector cadence: 400 Mb/s of 8 MB frames against the 1 Gb/s user
  // switch, with a ring of 4 frames (32 MB vs the 91 MB acquisition). A
  // healthy consumer keeps up without evictions; a stalled one overflows the
  // ring within four frames and forces the spill path.
  fc.stream.detector_rate_bps = 400e6;
  fc.stream.channel.ring_capacity = 4;
  fc.stream.stall_fallback_s = 15.0;
  return fc;
}

core::CampaignConfig campaign_config(double duration_s, bool direct) {
  core::CampaignConfig cfg;
  cfg.use_case = core::UseCase::Hyperspectral;  // 91 MB every 30 s
  cfg.duration_s = duration_s;
  cfg.label_prefix = "stream";
  if (direct) {
    cfg.streaming_direct = true;
  } else {
    cfg.streaming_steps = {"Analyze"};  // PR4 cut-through comparator
  }
  return cfg;
}

// Frame chaos scaled to the window: standing drop/reorder/duplicate
// probabilities all campaign long, plus two 45 s consumer stalls. With the
// stall budget at 15 s, a session caught by a stall first spills its
// ring-evicted frames to the store, then abandons the channel entirely.
void add_chaos(core::CampaignConfig& cfg, double duration_s) {
  using fault::FaultEvent;
  using fault::FaultKind;
  cfg.chaos.name = "frame-chaos";
  cfg.chaos.add(FaultEvent{FaultKind::FrameDrop, 0, 2 * duration_s, "", 0.05});
  cfg.chaos.add(
      FaultEvent{FaultKind::FrameReorder, 0, 2 * duration_s, "", 0.05});
  cfg.chaos.add(
      FaultEvent{FaultKind::FrameDuplicate, 0, 2 * duration_s, "", 0.05});
  cfg.chaos.add(
      FaultEvent{FaultKind::ConsumerStall, 0.30 * duration_s, 45, "", 0});
  cfg.chaos.add(
      FaultEvent{FaultKind::ConsumerStall, 0.70 * duration_s, 45, "", 0});
  cfg.recovery.enabled = true;
  cfg.recovery.resubmit_budget = 3;
}

StreamRun run_mode(const std::string& name, double duration_s, bool direct,
                   bool chaos) {
  core::Facility facility(facility_config());
  core::CampaignConfig cfg = campaign_config(duration_s, direct);
  if (chaos) add_chaos(cfg, duration_s);
  core::CampaignResult result = core::run_campaign(facility, cfg);

  StreamRun run;
  run.name = name;
  run.failed = result.failed;
  run.lost = result.robustness.lost;
  run.recovered = result.robustness.recovered;
  double first = 0;
  bool any = false;
  for (const auto* bucket : {&result.in_window, &result.late}) {
    for (const core::CompletedFlow& f : *bucket) {
      ++run.settled;
      if (f.success) ++run.successes;
      double done = f.timing.finished.seconds();
      if (!any || done < first) first = done;
      any = true;
    }
  }
  run.ttfr_s = first;
  run.runtime_mean_s = result.runtime_stats().mean();

  run.wire_bytes = counter_value(
      facility, "transfer_wire_bytes_total",
      "Bytes that crossed the network (after compression)");
  run.frames_sent =
      counter_value(facility, "stream_frames_sent_total",
                    "Original detector frames placed on the wire");
  run.frames_dropped =
      counter_value(facility, "frames_dropped_total",
                    "Frames lost on the direct streaming path");
  run.retransmits =
      counter_value(facility, "frames_retransmitted_total",
                    "Frames resent from the producer ring after a NACK");
  run.spills =
      counter_value(facility, "stream_spills_total",
                    "Frame ranges diverted to the store landing path");
  run.spilled_bytes =
      counter_value(facility, "stream_spilled_bytes_total",
                    "Bytes that reached the consumer via spill-to-store");
  run.fallbacks =
      counter_value(facility, "stream_fallbacks_total",
                    "Sessions re-routed whole-flow to the store path");
  run.index_size = facility.index().size();
  run.index_fingerprint = facility.index().fingerprint();
  return run;
}

util::Json run_json(const StreamRun& r) {
  return util::Json::object({
      {"settled", static_cast<int64_t>(r.settled)},
      {"successes", static_cast<int64_t>(r.successes)},
      {"failed", static_cast<int64_t>(r.failed)},
      {"lost", static_cast<int64_t>(r.lost)},
      {"recovered", static_cast<int64_t>(r.recovered)},
      {"time_to_first_result_s", r.ttfr_s},
      {"runtime_mean_s", r.runtime_mean_s},
      {"wire_bytes", r.wire_bytes},
      {"frames_sent", r.frames_sent},
      {"frames_dropped", r.frames_dropped},
      {"retransmits", r.retransmits},
      {"spills", r.spills},
      {"spilled_bytes", r.spilled_bytes},
      {"fallbacks", r.fallbacks},
      {"index_size", static_cast<int64_t>(r.index_size)},
      {"index_fingerprint", hex64(r.index_fingerprint)},
  });
}

void print_run(const StreamRun& r) {
  std::printf(
      "%-13s settled %3zu ok %3zu lost %zu | first result %6.1f s mean "
      "%6.1f s | frames %4.0f drop %3.0f rtx %3.0f | spills %2.0f "
      "(%5.1f MB) fallbacks %2.0f | index %zu\n",
      r.name.c_str(), r.settled, r.successes, r.lost, r.ttfr_s,
      r.runtime_mean_s, r.frames_sent, r.frames_dropped, r.retransmits,
      r.spills, r.spilled_bytes / 1e6, r.fallbacks, r.index_size);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("streaming", argc, argv);
  const double duration_s = h.smoke() ? 900 : 3600;  // quarter-hour smoke

  StreamRun cutthrough = run_mode("cutthrough", duration_s, /*direct=*/false,
                                  /*chaos=*/false);
  StreamRun direct = run_mode("direct", duration_s, /*direct=*/true,
                              /*chaos=*/false);
  StreamRun direct_chaos = run_mode("direct_chaos", duration_s,
                                    /*direct=*/true, /*chaos=*/true);

  std::printf("hyperspectral campaign (91 MB / 30 s, %.0f s window):\n",
              duration_s);
  print_run(cutthrough);
  print_run(direct);
  print_run(direct_chaos);

  bool index_match = direct_chaos.index_size == direct.index_size &&
                     direct_chaos.index_fingerprint == direct.index_fingerprint;
  std::printf(
      "\nfirst result: direct %.1f s vs cut-through %.1f s (%.1f s sooner)\n"
      "chaos index vs fault-free direct: %s\n",
      direct.ttfr_s, cutthrough.ttfr_s, cutthrough.ttfr_s - direct.ttfr_s,
      index_match ? "byte-identical" : "DIVERGED");

  h.results = util::Json::object({
      {"duration_s", duration_s},
      {"use_case", "hyperspectral"},
      {"file_bytes", static_cast<int64_t>(91) * 1000 * 1000},
      {"start_period_s", 30.0},
      {"detector_rate_bps", 400e6},
      {"ring_capacity", 4},
      {"runs", util::Json::object({{"cutthrough", run_json(cutthrough)},
                                   {"direct", run_json(direct)},
                                   {"direct_chaos", run_json(direct_chaos)}})},
      {"first_result_saved_s", cutthrough.ttfr_s - direct.ttfr_s},
      {"index_match_chaos_vs_direct", index_match ? 1 : 0},
  });
  // Every campaign settles flows and finishes all of them, chaos included.
  for (const char* run : {"cutthrough", "direct", "direct_chaos"}) {
    const std::string at = std::string("runs.") + run + ".";
    h.gate(at + "settled", at + "settled", ">", 0);
    h.gate(at + "failed", at + "failed", "==", 0);
    h.gate(at + "lost", at + "lost", "==", 0);
    h.gate(at + "first_result", at + "time_to_first_result_s", ">", 0);
  }
  // Headline: bypassing the landing store reaches the first result sooner.
  h.gate("direct_beats_cutthrough", "first_result_saved_s", ">", 0);
  // The fault-free direct run stays on the direct rung...
  for (const char* key : {"retransmits", "spills", "fallbacks"}) {
    h.gate(std::string("direct_clean.") + key,
           std::string("runs.direct.") + key, "==", 0);
  }
  // ...while the chaos run climbs the whole degradation ladder and still
  // converges on identical science.
  h.gate("chaos.frames_dropped", "runs.direct_chaos.frames_dropped", ">", 0);
  h.gate("chaos.retransmits", "runs.direct_chaos.retransmits", ">", 0);
  h.gate("chaos.spills", "runs.direct_chaos.spills", ">=", 1);
  h.gate("chaos.fallbacks", "runs.direct_chaos.fallbacks", ">=", 1);
  h.gate("chaos.index_match", "index_match_chaos_vs_direct", "==", 1);
  return h.finish();
}
