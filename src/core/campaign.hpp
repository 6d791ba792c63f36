#pragma once
// The paper's controlled 1-hour evaluation (Sec. 3.3): an application
// periodically copies a file into the transfer directory of the PicoProbe
// user computer to simulate data generation; each new file triggers a flow;
// flows execute concurrently. The driver reproduces that loop in virtual
// time: local staging copy -> watcher stability debounce -> flow launch ->
// sleep(start period) -> next copy.
#include <map>
#include <string>
#include <vector>

#include "core/facility.hpp"
#include "core/flows.hpp"
#include "fault/schedule.hpp"
#include "flow/service.hpp"
#include "util/stats.hpp"

namespace pico::core {

enum class UseCase { Hyperspectral, Spatiotemporal };

std::string use_case_name(UseCase u);

/// Campaign-level recovery: what the driver does when a flow run settles as
/// Failed. Disabled by default — the classic campaigns count every run
/// failure; chaos campaigns opt in to resubmission.
struct RecoveryConfig {
  bool enabled = false;
  /// Re-launches allowed per logical flow (beyond the first attempt).
  int resubmit_budget = 2;
  /// Base delay before a resubmit; attempt k waits base * 2^(k-1), and never
  /// less than the flow service's open-breaker hint for the failed provider.
  double resubmit_delay_s = 60;
  /// Downtime after an orchestrator_crash chaos event before the driver
  /// restarts and replays its journal.
  double crash_restart_delay_s = 5;
};

struct CampaignConfig {
  UseCase use_case = UseCase::Hyperspectral;
  double start_period_s = 30;     ///< paper: 30 (hyper) / 120 (spatio)
  double duration_s = 3600;       ///< 1-hour experiment
  int64_t file_bytes = 91 * 1000 * 1000;  ///< paper: 91 MB / 1200 MB
  int64_t frames = 600;           ///< spatiotemporal frame count hint
  bool naive_convert = false;
  /// Model the whole-node parallel conversion in the flow's compute cost
  /// (the A4 "compute function uses the whole node" what-if).
  bool parallel_convert = false;
  std::string codec;              ///< optional transfer compression (A3)
  std::string label_prefix = "campaign";
  /// Chaos schedule installed on the facility before the run (empty = none).
  fault::FaultSchedule chaos;
  RecoveryConfig recovery;
  /// Per-step timeout overrides applied to the flow definition by step name
  /// (e.g. {"Transfer", 900}). Absent steps keep timeout 0 (none).
  std::map<std::string, double> step_timeouts;
  /// Steps (by name) marked `streaming` on the definition: each begins
  /// cut-through once the preceding step's first chunk lands. Requires the
  /// flow service to run in Events completion mode to have any effect.
  std::vector<std::string> streaming_steps;
  /// Chunk size injected into a Transfer step's params when the step after it
  /// streams (progress granularity of the cut-through pipeline).
  int64_t streaming_chunk_bytes = 8 * 1000 * 1000;
  /// Use the streaming_direct flow variants: the Transfer step is replaced by
  /// a Stream step that pushes detector frames straight into Polaris node
  /// memory, degrading to spill/fallback under frame chaos (DESIGN.md §13).
  bool streaming_direct = false;
  /// Periodic at-rest integrity scrub of Eagle during the campaign: every
  /// interval the scrubber walks delivered objects, quarantines corrupt
  /// copies, and requests provenance-driven repair re-transfers. 0 = no
  /// scrubbing. Passes stop at duration_s so the event queue drains.
  double scrub_interval_s = 0;
  /// SLO latency objective applied to every flow run: runs slower than this
  /// increment flow_runs_slow_total (the health plane's latency burn signal)
  /// and stamp an "slo-slow" flight event. 0 = no objective.
  double slow_run_threshold_s = 0;
  /// Stage real synthesized EMD payloads (instrument generators) instead of
  /// size-only virtual files, so every flow exercises the actual data-plane
  /// kernels: EMD parse, axis reductions, peak finding / particle tracking,
  /// artifact rendering. One payload sized to ~file_bytes is synthesized per
  /// campaign and re-staged each cycle; file_bytes is then snapped to the
  /// payload's true size so staging/transfer costs stay consistent.
  /// Wall-clock benches use this so overhead ratios are measured against
  /// campaigns doing real work, not skeleton event shuffling.
  bool real_payloads = false;
};

/// The paper's controlled 1-hour experiment for one use case (Sec. 3.3,
/// Table 1 / Fig. 4): the facility and campaign calibration every Table-1
/// reproduction and ablation starts from. Each experiment ran on a fresh
/// facility against its own Polaris queue conditions: the hyperspectral
/// maximum of 181 s implies a long first-allocation wait, the
/// spatiotemporal maximum of 274 s a short one. The caller sets
/// `facility.artifact_dir` and overrides only what it varies.
struct PaperExperiment {
  FacilityConfig facility;
  CampaignConfig campaign;
};
PaperExperiment paper_experiment(UseCase use_case);

struct CompletedFlow {
  flow::RunId id;
  std::string label;
  bool success = false;
  flow::RunTiming timing;
};

/// Fault-and-recovery accounting for one campaign (the robustness report).
struct RobustnessStats {
  size_t launches = 0;      ///< flow starts, including resubmits
  size_t run_failures = 0;  ///< individual run failures observed
  size_t resubmits = 0;     ///< failed runs re-launched with a fresh token
  size_t recovered = 0;     ///< logical flows that failed, then succeeded
  size_t lost = 0;          ///< logical flows dead-lettered (budget exhausted)
  size_t crash_replays = 0; ///< runs reconciled from the journal post-crash
  int breaker_trips = 0;
  uint64_t step_timeouts = 0;
  /// Mean-time-to-recovery: first failure -> eventual success, per recovered
  /// flow.
  util::SampleStats mttr_s;
  /// Fault-attributed overhead: (settled - first launch) minus the successful
  /// attempt's own runtime, per recovered flow. The wasted wall-clock.
  util::SampleStats fault_overhead_s;
  std::vector<flow::BreakerSnapshot> breakers;
  /// Injected downtime per fault kind within the campaign window (merged).
  std::map<std::string, double> downtime_s;

  /// Fraction of logical flows that eventually succeeded.
  double eventual_success_pct(size_t launched_logical) const {
    if (launched_logical == 0) return 100.0;
    return 100.0 * static_cast<double>(launched_logical - lost) /
           static_cast<double>(launched_logical);
  }
};

struct CampaignResult {
  CampaignConfig config;
  /// Flows that completed within the experiment window (the paper's "total
  /// flow runs").
  std::vector<CompletedFlow> in_window;
  /// Flows that started in the window but finished after it.
  std::vector<CompletedFlow> late;
  size_t failed = 0;
  RobustnessStats robustness;

  double total_data_gb() const {
    return static_cast<double>(config.file_bytes) *
           static_cast<double>(in_window.size()) / 1e9;
  }
  util::SampleStats runtime_stats() const;
  /// Union-based overhead (total minus the wall-clock union of active
  /// intervals) — equals total - active for serialized flows, and stays
  /// non-negative when streaming overlaps steps.
  util::SampleStats overhead_stats() const;
  util::SampleStats overhead_pct_stats() const;
  /// Wall time saved by cut-through overlap per flow (0 when serialized).
  util::SampleStats overlap_stats() const;
  /// Active seconds of the named step across in-window flows.
  util::SampleStats step_active_stats(const std::string& step_name) const;
  /// Poll-discovery lag of the named step (diagnostics).
  util::SampleStats step_lag_stats(const std::string& step_name) const;
};

/// Run one campaign on a facility. Runs the engine to completion.
CampaignResult run_campaign(Facility& facility, const CampaignConfig& config);

}  // namespace pico::core
