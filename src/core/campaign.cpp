#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "instrument/hyperspectral_gen.hpp"
#include "instrument/spatiotemporal_gen.hpp"
#include "util/crc64.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/timefmt.hpp"

namespace pico::core {
namespace {
util::Logger& logger() {
  static util::Logger kLogger("campaign");
  return kLogger;
}
}  // namespace

std::string use_case_name(UseCase u) {
  switch (u) {
    case UseCase::Hyperspectral: return "hyperspectral";
    case UseCase::Spatiotemporal: return "spatiotemporal";
  }
  return "?";
}

PaperExperiment paper_experiment(UseCase use_case) {
  const bool hyper = use_case == UseCase::Hyperspectral;
  PaperExperiment e;
  e.facility.seed = hyper ? 20230407 : 20230408;
  e.facility.cost.provision_delay_s = hyper ? 100.0 : 35.0;
  e.facility.cost.provision_jitter_s = 10.0;
  e.campaign.use_case = use_case;
  e.campaign.start_period_s = hyper ? 30 : 120;
  e.campaign.file_bytes = (hyper ? 91 : 1200) * int64_t{1000 * 1000};
  e.campaign.label_prefix = hyper ? "hyper" : "spatio";
  return e;
}

util::SampleStats CampaignResult::runtime_stats() const {
  util::SampleStats s;
  for (const auto& f : in_window) s.add(f.timing.total_s());
  return s;
}

util::SampleStats CampaignResult::overhead_stats() const {
  // Union-based: total minus the wall-clock union of the active intervals.
  // Identical to total - active for serialized flows; stays meaningful (and
  // non-negative) when cut-through streaming overlaps steps.
  util::SampleStats s;
  for (const auto& f : in_window) {
    s.add(f.timing.total_s() - f.timing.active_union_s());
  }
  return s;
}

util::SampleStats CampaignResult::overhead_pct_stats() const {
  util::SampleStats s;
  for (const auto& f : in_window) {
    double total = f.timing.total_s();
    if (total > 0) {
      s.add(100.0 * (total - f.timing.active_union_s()) / total);
    }
  }
  return s;
}

util::SampleStats CampaignResult::overlap_stats() const {
  util::SampleStats s;
  for (const auto& f : in_window) s.add(f.timing.overlap_s());
  return s;
}

util::SampleStats CampaignResult::step_active_stats(
    const std::string& step_name) const {
  util::SampleStats s;
  for (const auto& f : in_window) {
    for (const auto& step : f.timing.steps) {
      if (step.name == step_name) s.add(step.active_s());
    }
  }
  return s;
}

util::SampleStats CampaignResult::step_lag_stats(
    const std::string& step_name) const {
  util::SampleStats s;
  for (const auto& f : in_window) {
    for (const auto& step : f.timing.steps) {
      if (step.name == step_name) s.add(step.discovery_lag_s());
    }
  }
  return s;
}

namespace {

/// Drives the drop -> watch -> launch -> sleep loop in virtual time, and —
/// when recovery is enabled — the journal/dead-letter machinery that
/// resubmits failed flows and replays state after an orchestrator crash.
struct Driver : std::enable_shared_from_this<Driver> {
  Facility* facility;
  CampaignConfig config;
  /// One immutable definition for every launch: runs share it and the flow
  /// service's dispatch plan compiled from it.
  std::shared_ptr<const flow::FlowDefinition> definition;
  CampaignResult* result;
  /// Real EMD bytes staged each cycle when config.real_payloads is set.
  /// Every staged object shares them; fault injection damages a private
  /// copy, so the driver's bytes stay pristine.
  storage::SharedBytes payload;
  /// crc64(*payload), computed once where the payload is synthesized: every
  /// cycle stages the same bytes under it instead of rescanning them.
  uint64_t payload_crc = 0;
  int sequence = 0;
  /// Orchestrator blackout: completion notifications are lost while true;
  /// the journal replay at restart reconciles what was missed.
  bool crashed = false;

  /// Run journal: one entry per logical flow, persisted across resubmits and
  /// crashes. `settled` guards against double-recording when a replayed run
  /// is later reported again.
  struct JournalEntry {
    std::string label;
    util::Json input;
    flow::RunId current_run;
    int attempts = 0;           ///< launches so far (1 = first attempt)
    double first_launch_s = 0;
    double first_failure_s = -1;
    bool settled = false;
  };
  std::map<std::string, JournalEntry> journal;
  /// Resubmits whose delay timer fired mid-blackout; launched at restart.
  std::vector<std::string> pending_relaunch;

  void start_cycle() {
    sim::SimTime now = facility->engine().now();
    if (now.seconds() >= config.duration_s) return;  // experiment window over

    int index = sequence++;
    std::string filename = util::format(
        "%s/%s-%04d.emd", "staging", config.label_prefix.c_str(), index);

    // 1. Local staging copy (file materialization at staging_rate).
    double staging_s = static_cast<double>(config.file_bytes) /
                       facility->cost().staging_rate_Bps;
    auto self = shared_from_this();
    facility->engine().schedule_after(
        sim::Duration::from_seconds(staging_s), [self, filename, index] {
          auto st = self->payload
                        ? self->facility->stage_real_file(
                              filename, self->payload, self->payload_crc)
                        : self->facility->stage_virtual_file(
                              filename, self->config.file_bytes);
          if (!st) {
            logger().error("stage failed: %s", st.error().message.c_str());
            return;
          }
          // 2. Watcher stability debounce before the flow triggers.
          self->facility->engine().schedule_after(
              sim::Duration::from_seconds(
                  self->facility->cost().watcher_debounce_s),
              [self, filename, index] { self->trigger_flow(filename, index); });
        });
  }

  void trigger_flow(const std::string& filename, int index) {
    FlowInput input;
    input.file = filename;
    input.dest = util::format("eagle/%s/%04d.emd",
                              config.label_prefix.c_str(), index);
    input.artifact_prefix = util::format("%s-%04d", config.label_prefix.c_str(), index);
    input.title = util::format("%s acquisition #%d",
                               use_case_name(config.use_case).c_str(), index);
    input.subject = util::format("%s-%04d", config.label_prefix.c_str(), index);
    input.owner = facility->user_identity();
    // Stamp acquisition time from virtual clock anchored at the campaign
    // epoch (2023-04-07T09:00Z) so portal date facets work.
    int64_t epoch = 0;
    util::parse_iso8601("2023-04-07T09:00:00Z", &epoch);
    input.acquired = util::format_iso8601(
        epoch + static_cast<int64_t>(facility->engine().now().seconds()));
    input.codec = config.codec;
    input.frames = config.frames;
    input.naive_convert = config.naive_convert;
    input.parallel_convert = config.parallel_convert;

    auto self = shared_from_this();
    JournalEntry entry;
    entry.label = input.subject;
    entry.input = input.to_json();
    entry.first_launch_s = facility->engine().now().seconds();
    journal[input.subject] = std::move(entry);
    launch(input.subject);

    // 3. Sleep the configured start period, then begin the next cycle.
    facility->engine().schedule_after(
        sim::Duration::from_seconds(config.start_period_s),
        [self] { self->start_cycle(); });
  }

  void launch(const std::string& label) {
    JournalEntry& entry = journal[label];
    ++entry.attempts;
    ++result->robustness.launches;
    auto run = facility->flows().start(definition, entry.input,
                                       facility->user_token(), label);
    if (!run) {
      logger().error("flow start failed: %s", run.error().message.c_str());
      if (!config.recovery.enabled) return;  // classic campaigns: drop it
      ++result->robustness.run_failures;
      if (entry.attempts <= config.recovery.resubmit_budget) {
        resubmit(label);
      } else {
        record_terminal(label, "", false);
      }
      return;
    }
    entry.current_run = run.value();
    attach(label, entry.current_run);
  }

  void attach(const std::string& label, const flow::RunId& id) {
    auto self = shared_from_this();
    facility->flows().on_finished(
        id, [self, label, id](const flow::RunId&, const flow::RunInfo& info) {
          // A crashed orchestrator misses the notification; the journal
          // replay at restart reconciles the run instead.
          if (self->crashed) return;
          self->settle(label, id, info.state == flow::RunState::Succeeded);
        });
  }

  void settle(const std::string& label, const flow::RunId& id, bool success) {
    JournalEntry& entry = journal[label];
    if (entry.settled) return;  // already reconciled via crash replay
    if (success) {
      record_terminal(label, id, true);
      return;
    }
    ++result->robustness.run_failures;
    if (config.recovery.enabled &&
        entry.attempts <= config.recovery.resubmit_budget) {
      resubmit(label);
    } else {
      record_terminal(label, id, false);
    }
  }

  /// Dead-letter handling: re-launch with a fresh token after an escalating
  /// delay, never sooner than the flow service's open-breaker hint.
  void resubmit(const std::string& label) {
    JournalEntry& entry = journal[label];
    if (entry.first_failure_s < 0) {
      entry.first_failure_s = facility->engine().now().seconds();
    }
    ++result->robustness.resubmits;
    // Fresh token: covers token_expiry chaos and long outages outliving the
    // original credential.
    facility->refresh_user_token();
    double delay = config.recovery.resubmit_delay_s *
                   std::pow(2.0, static_cast<double>(entry.attempts - 1));
    for (const auto& step : definition->steps) {
      delay = std::max(delay,
                       facility->flows().breaker_retry_after_s(step.provider));
    }
    logger().info("resubmitting %s (attempt %d) in %.1fs", label.c_str(),
                  entry.attempts + 1, delay);
    // The campaign ring (watchdog-exempt) keeps the dead-letter timeline a
    // postmortem correlates failed-run dumps against.
    facility->telemetry().flight.record(
        "campaign", util::LogLevel::Warn, "campaign", "resubmit",
        facility->engine().now(),
        util::Json::object({{"label", label},
                            {"attempt", entry.attempts + 1},
                            {"delay_s", delay}}));
    auto self = shared_from_this();
    facility->engine().schedule_after(
        sim::Duration::from_seconds(delay), [self, label] {
          if (self->crashed) {
            self->pending_relaunch.push_back(label);
            return;
          }
          self->launch(label);
        });
  }

  void record_terminal(const std::string& label, const flow::RunId& id,
                       bool success) {
    JournalEntry& entry = journal[label];
    entry.settled = true;
    CompletedFlow done;
    done.id = id;
    done.label = label;
    done.success = success;
    if (!id.empty()) {
      // The span tree is the source of truth: the flow service closes the
      // run/step spans (integer-ns attributes) before firing the finished
      // callback, so the timing rebuilt here is bit-identical to its own
      // bookkeeping. Facilities without telemetry fall back to the service.
      if (!flow::timing_from_spans(facility->trace(), id, &done.timing)) {
        done.timing = facility->flows().timing(id);
      }
    }
    double settled_at = id.empty() ? facility->engine().now().seconds()
                                   : done.timing.finished.seconds();
    if (!success) {
      result->failed += 1;
      ++result->robustness.lost;
    } else if (entry.first_failure_s >= 0) {
      ++result->robustness.recovered;
      result->robustness.mttr_s.add(settled_at - entry.first_failure_s);
      result->robustness.fault_overhead_s.add(
          std::max(0.0, (settled_at - entry.first_launch_s) -
                            done.timing.total_s()));
    }
    if (settled_at <= config.duration_s) {
      result->in_window.push_back(std::move(done));
    } else {
      result->late.push_back(std::move(done));
    }
  }

  // ---- orchestrator crash / journal replay ---------------------------------

  void install_crash_events() {
    auto self = shared_from_this();
    for (const auto& event : config.chaos.events) {
      if (event.kind != fault::FaultKind::OrchestratorCrash) continue;
      double down_s =
          std::max(event.duration_s, config.recovery.crash_restart_delay_s);
      facility->engine().schedule_after(
          sim::Duration::from_seconds(event.at_s), [self] {
            logger().warn("orchestrator crash: notifications blacked out");
            self->crashed = true;
            self->facility->telemetry().flight.record(
                "campaign", util::LogLevel::Warn, "campaign",
                "orchestrator-crash", self->facility->engine().now());
          });
      facility->engine().schedule_after(
          sim::Duration::from_seconds(event.at_s + down_s),
          [self] { self->restart(); });
    }
  }

  /// Restart after a crash: walk the journal and reconcile every unsettled
  /// flow against the flow service's authoritative state. Runs that finished
  /// during the blackout are recorded exactly once (success) or pushed back
  /// through the dead-letter path (failure); still-active runs keep their
  /// original callback, which works again now that `crashed` is false.
  void restart() {
    crashed = false;
    logger().warn("orchestrator restarted: replaying journal (%zu entries)",
                  journal.size());
    std::vector<std::string> to_settle_ok, to_settle_fail;
    for (auto& [label, entry] : journal) {
      if (entry.settled || entry.current_run.empty()) continue;
      const flow::RunInfo& info = facility->flows().info(entry.current_run);
      if (info.state == flow::RunState::Succeeded) {
        to_settle_ok.push_back(label);
      } else if (info.state == flow::RunState::Failed) {
        to_settle_fail.push_back(label);
      }
    }
    for (const auto& label : to_settle_ok) {
      ++result->robustness.crash_replays;
      settle(label, journal[label].current_run, true);
    }
    for (const auto& label : to_settle_fail) {
      ++result->robustness.crash_replays;
      settle(label, journal[label].current_run, false);
    }
    std::vector<std::string> relaunch;
    relaunch.swap(pending_relaunch);
    facility->telemetry().flight.record(
        "campaign", util::LogLevel::Info, "campaign", "orchestrator-restart",
        facility->engine().now(),
        util::Json::object(
            {{"replayed", static_cast<int64_t>(to_settle_ok.size() +
                                               to_settle_fail.size())},
             {"relaunched", static_cast<int64_t>(relaunch.size())}}));
    for (const auto& label : relaunch) launch(label);
  }
};

}  // namespace

std::vector<uint8_t> synthesize_payload(const CampaignConfig& config) {
  emd::MicroscopeSettings scope;
  const double target = static_cast<double>(std::max<int64_t>(
      config.file_bytes, 64 * 1024));
  if (config.use_case == UseCase::Hyperspectral) {
    instrument::HyperspectralConfig gen;
    gen.channels = 256;
    const double side =
        std::sqrt(target / (8.0 * static_cast<double>(gen.channels)));
    gen.height = gen.width = static_cast<size_t>(std::max(16.0, side));
    gen.dose = 120;
    gen.background = {{"C", 0.8}, {"O", 0.2}};
    const double c = static_cast<double>(gen.height) / 2.0;
    gen.particles = {{c, c, std::max(3.0, c / 4.0), {{"Au", 0.9}, {"C", 0.1}}}};
    gen.seed = 20230407;
    auto sample = instrument::generate_hyperspectral(gen);
    return instrument::to_emd(sample, gen, scope, "2023-04-07T09:00:00Z",
                              "gold on carbon film", "operator@anl.gov")
        .to_bytes();
  }
  instrument::SpatiotemporalConfig gen;
  gen.height = gen.width = 128;
  const double frames = target / (8.0 * 128.0 * 128.0);
  gen.frames = static_cast<size_t>(std::clamp(frames, 8.0, 4096.0));
  gen.particle_count = 6;
  gen.seed = 20230408;
  auto sample = instrument::generate_spatiotemporal(gen);
  return instrument::to_emd(sample, gen, scope, "2023-04-08T09:00:00Z",
                            "gold nanoparticles", "operator@anl.gov")
      .to_bytes();
}

CampaignResult run_campaign(Facility& facility, const CampaignConfig& config) {
  CampaignResult result;
  result.config = config;

  auto driver = std::make_shared<Driver>();
  driver->facility = &facility;
  driver->config = config;
  if (config.real_payloads) {
    auto bytes = synthesize_payload(config);
    driver->config.file_bytes = static_cast<int64_t>(bytes.size());
    result.config.file_bytes = driver->config.file_bytes;
    driver->payload_crc = util::crc64(bytes);
    driver->payload =
        std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  }
  flow::FlowDefinition definition =
      config.use_case == UseCase::Hyperspectral
          ? (config.streaming_direct ? hyperspectral_stream_flow(facility)
                                     : hyperspectral_flow(facility))
          : (config.streaming_direct ? spatiotemporal_stream_flow(facility)
                                     : spatiotemporal_flow(facility));
  driver->result = &result;

  // Per-step timeout overrides (chaos campaigns abandon stuck actions).
  for (auto& step : definition.steps) {
    auto it = config.step_timeouts.find(step.name);
    if (it != config.step_timeouts.end()) step.timeout_s = it->second;
  }

  // Cut-through streaming: flag the requested steps, and give the Transfer
  // step ahead of each streaming step a chunk size so it exposes progress.
  auto& steps = definition.steps;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (std::find(config.streaming_steps.begin(), config.streaming_steps.end(),
                  steps[i].name) == config.streaming_steps.end()) {
      continue;
    }
    steps[i].streaming = true;
    if (i > 0 && steps[i - 1].provider == "transfer" &&
        config.streaming_chunk_bytes > 0) {
      steps[i - 1].params["streaming_chunk_bytes"] =
          config.streaming_chunk_bytes;
    }
  }
  driver->definition =
      std::make_shared<const flow::FlowDefinition>(std::move(definition));

  if (!config.chaos.empty()) {
    auto injector = facility.install_faults(config.chaos);
    if (!injector) {
      logger().error("chaos install failed: %s",
                     injector.error().message.c_str());
    }
    driver->install_crash_events();
  }

  if (config.scrub_interval_s > 0) {
    storage::ScrubberConfig scrub;
    scrub.interval_s = config.scrub_interval_s;
    scrub.horizon_s = config.duration_s;
    facility.start_scrubber(scrub);
  }

  // Health plane: latency objective feeds flow_runs_slow_total (the SLO
  // engine's exact burn signal) and the periodic monitor snapshots the
  // registry until the experiment window closes.
  if (config.slow_run_threshold_s > 0) {
    facility.flows().set_slow_run_threshold(config.slow_run_threshold_s);
  }
  if (facility.health().config().enabled) {
    facility.health().start(config.duration_s);
  }

  // Campaign root span: every flow run started while the scope is active
  // (including fault-injector events, which attach to the current context)
  // parents to it, so the exported trace nests campaign -> run -> step ->
  // provider attempt.
  telemetry::Tracer& tracer = facility.telemetry().tracer;
  sim::SimTime campaign_start = facility.engine().now();
  uint64_t cancelled_at_start = facility.engine().cancelled_total();
  uint64_t campaign_span =
      tracer.open("campaign", config.label_prefix, /*parent=*/0);
  {
    telemetry::Tracer::Scope scope(tracer, campaign_span);
    facility.engine().schedule_at(sim::SimTime::zero(),
                                  [driver] { driver->start_cycle(); });
    facility.engine().run();
  }

  // Robustness accounting sourced from the services after the run.
  RobustnessStats& rb = result.robustness;
  rb.breakers = facility.flows().breaker_snapshots();
  for (const auto& snap : rb.breakers) rb.breaker_trips += snap.trips;
  rb.step_timeouts = facility.flows().total_timeouts();
  for (const auto& event : config.chaos.events) {
    std::string kind = fault::fault_kind_name(event.kind);
    if (!rb.downtime_s.count(kind)) {
      rb.downtime_s[kind] =
          config.chaos.downtime_s(event.kind, config.duration_s);
    }
  }

  tracer.close(campaign_span, "campaign", campaign_start,
               facility.engine().now(),
               util::Json::object({
                   {"use_case", use_case_name(config.use_case)},
                   {"label_prefix", config.label_prefix},
                   {"in_window", static_cast<int64_t>(result.in_window.size())},
                   {"late", static_cast<int64_t>(result.late.size())},
                   {"failed", static_cast<int64_t>(result.failed)},
                   {"launches", static_cast<int64_t>(rb.launches)},
                   {"resubmits", static_cast<int64_t>(rb.resubmits)},
                   {"chaos", config.chaos.name},
               }));
  telemetry::MetricsRegistry& metrics = facility.telemetry().metrics;
  metrics
      .counter("campaign_flows_total", "Flows settled per campaign, by bucket",
               {{"bucket", "in_window"}})
      .inc(static_cast<double>(result.in_window.size()));
  metrics
      .counter("campaign_flows_total", "Flows settled per campaign, by bucket",
               {{"bucket", "late"}})
      .inc(static_cast<double>(result.late.size()));
  metrics
      .counter("campaign_flows_total", "Flows settled per campaign, by bucket",
               {{"bucket", "failed"}})
      .inc(static_cast<double>(result.failed));
  metrics
      .gauge("campaign_duration_seconds",
             "Virtual length of the most recent campaign window")
      .set(config.duration_s);
  // Scheduler health: timeout timers that settled before firing feed the
  // wheel's lazy-compaction pressure; a nonzero residual depth after run()
  // drained would mean leaked (never-fired, never-cancelled) events.
  metrics
      .counter("sim_events_cancelled_total",
               "Scheduler events cancelled before firing during the campaign")
      .inc(static_cast<double>(facility.engine().cancelled_total() -
                               cancelled_at_start));
  metrics
      .gauge("sim_queue_depth",
             "Events still queued at campaign end (cancelled included)")
      .set(static_cast<double>(facility.engine().queue_depth()));

  // One closing health pass over the drained queue: the final snapshot sees
  // every terminal counter, so end-of-window SLO burn and scores are exact.
  if (facility.health().config().enabled) {
    facility.health().tick();
  }

  logger().info("%s campaign: %zu in-window flows, %zu late, %zu failed",
                use_case_name(config.use_case).c_str(),
                result.in_window.size(), result.late.size(), result.failed);
  return result;
}

}  // namespace pico::core
