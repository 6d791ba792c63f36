#pragma once
// Gladier/Globus-Flows-like orchestration. A flow is a serial list of action
// states executed across heterogeneous services (Transfer -> Compute ->
// Search ingest). The orchestrator starts each action through its provider,
// then *polls* for completion with a backoff policy — the cloud service
// cannot push events — and records per-step timing so the campaign reporter
// can decompose runtimes into "active" vs "overhead" exactly as the paper's
// Fig. 4 does.
//
// Parameter templating mirrors Globus Flows' state references: string values
// of the form "$.input.<path>" and "$.steps.<StepName>.<path>" are resolved
// against the flow input and prior step outputs at dispatch time.
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "auth/auth.hpp"
#include "flow/backoff.hpp"
#include "flow/breaker.hpp"
#include "flow/run_store.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace pico::flow {

using RunId = std::string;
using ActionHandle = std::string;

enum class ActionStatus { Active, Succeeded, Failed };

struct ActionPollResult {
  ActionStatus status = ActionStatus::Active;
  std::string error;
  util::Json output;                 ///< available once Succeeded
  /// Service-reported activity interval, for active-time accounting.
  sim::SimTime service_started;
  sim::SimTime service_completed;
  /// Coarse service sub-state ("PENDING", "ACTIVE", "RUNNING", ...). The
  /// orchestrator resets its polling backoff when this changes between
  /// polls, mirroring Globus Flows' behaviour of restarting the backoff on
  /// observed action status transitions — without this, a single long step
  /// would suffer unbounded discovery lag.
  std::string progress_token;
};

/// Adapter between the flow engine and a backing service (transfer, compute,
/// search ingest). Implementations live next to the services they wrap.
class ActionProvider {
 public:
  virtual ~ActionProvider() = default;
  virtual std::string name() const = 0;
  /// Begin the action; returns an opaque handle for polling.
  virtual util::Result<ActionHandle> start(const util::Json& params,
                                           const auth::Token& token) = 0;
  virtual ActionPollResult poll(const ActionHandle& handle) = 0;

  /// Push-based completion (Globus webhooks / AMQP event fan-out). Providers
  /// that can signal settlement call `callback` once, in virtual time, when
  /// the action reaches a terminal state (success OR failure — the callback
  /// carries no verdict; the orchestrator polls once to learn the outcome).
  /// Returns false when the provider has no event channel, in which case the
  /// orchestrator stays on its polling loop. Default: no event channel.
  virtual bool subscribe(const ActionHandle& handle,
                         std::function<void()> callback) {
    (void)handle;
    (void)callback;
    return false;
  }

  /// Byte-level progress events for cut-through streaming (callback receives
  /// cumulative logical bytes landed). Returns false when the provider cannot
  /// stream progress. Default: no progress channel.
  virtual bool subscribe_progress(const ActionHandle& handle,
                                  std::function<void(int64_t)> callback) {
    (void)handle;
    (void)callback;
    return false;
  }

  /// Cut-through support: a provider that can *hold* a started action (claim
  /// resources, warm the environment, then wait for release before charging
  /// the main cost) lets the orchestrator pre-dispatch the next step while
  /// the current one is still landing bytes.
  virtual bool supports_held_start() const { return false; }
  virtual util::Result<ActionHandle> start_held(const util::Json& params,
                                                const auth::Token& token) {
    (void)params;
    (void)token;
    return util::Result<ActionHandle>::err("held start not supported",
                                           "unsupported");
  }
  /// Release a held action: begin (or finish) charging its cost, crediting
  /// the overlap already elapsed while held.
  virtual void release(const ActionHandle& handle) { (void)handle; }
};

struct ActionState {
  std::string name;        ///< e.g. "Transfer", "Analyze", "Publish"
  std::string provider;    ///< registered provider name
  util::Json params;       ///< may contain "$." references
  int max_retries = 0;     ///< re-dispatch attempts after action failure
  /// Abandon the action if it has not completed this long after dispatch
  /// (0 = no timeout). A timeout consumes one retry; the in-flight service
  /// work is not recalled — as with cancel(), it completes unobserved.
  double timeout_s = 0;
  /// Cut-through streaming: pre-dispatch this step (held) as soon as the
  /// *previous* step reports byte progress, so e.g. the fp64->uint8
  /// conversion starts while the transfer is still landing chunks. Requires
  /// the previous step's provider to stream progress and this step's
  /// provider to support held starts; silently falls back to serialized
  /// dispatch otherwise. Meaningless on the first step.
  bool streaming = false;
  /// Best-effort step: the federation broker strips optional steps from a
  /// definition under brownout (load-shedding ladder rung 1) before it starts
  /// rejecting admissions. The orchestrator itself never skips them.
  bool optional = false;

  bool operator==(const ActionState&) const = default;
};

struct FlowDefinition {
  std::string name;
  std::vector<ActionState> steps;

  bool operator==(const FlowDefinition&) const = default;
};

class DispatchPlan;

enum class RunState { Pending, Active, Succeeded, Failed };

std::string run_state_name(RunState s);

struct StepTiming {
  std::string name;
  sim::SimTime dispatched;       ///< orchestrator sent the start request
  sim::SimTime service_started;  ///< service began processing
  sim::SimTime service_completed;///< service finished (actual, virtual time)
  sim::SimTime discovered;       ///< orchestrator's poll observed completion
  int polls = 0;
  int retries = 0;
  int timeouts = 0;              ///< attempts abandoned via ActionState::timeout_s
  int notifications = 0;         ///< completion callbacks consumed
  bool streamed = false;         ///< step was pre-dispatched via cut-through

  double active_s() const {
    return (service_completed - service_started).seconds();
  }
  /// Poll-discovery lag: the paper's dominant overhead component.
  double discovery_lag_s() const {
    return (discovered - service_completed).seconds();
  }
};

struct RunTiming {
  sim::SimTime submitted;
  sim::SimTime finished;
  std::vector<StepTiming> steps;

  double total_s() const { return (finished - submitted).seconds(); }
  double active_s() const {
    double a = 0;
    for (const auto& s : steps) a += s.active_s();
    return a;
  }
  /// total - active: the paper's definition of flow orchestration overhead.
  double overhead_s() const { return total_s() - active_s(); }
  /// Union of the per-step active intervals on the wall clock. For serialized
  /// runs this equals active_s(); when steps overlap (cut-through streaming)
  /// the union is smaller, and total - union is the honest overhead.
  double active_union_s() const;
  /// Wall time saved by overlapping steps: active_s() - active_union_s().
  double overlap_s() const { return active_s() - active_union_s(); }
};

struct RunInfo {
  // `state` and `current_step` lead deliberately: every scheduled poll event
  // checks them, and the orchestrator embeds RunInfo right after the run
  // record's hot block so both land in its first cache lines. The strings
  // and JSON below are only touched on dispatch/settle.
  RunState state = RunState::Pending;
  size_t current_step = 0;
  std::string label;       ///< caller-supplied tag (e.g. source file)
  std::string error;
  util::Json input;
  /// Completed-step outputs by step index: [i] is step i's output for
  /// i < current_step (null for a step that has not completed). Empty until
  /// the first step completes or a checkpoint seeds it.
  std::vector<util::Json> step_outputs;
};

/// How the orchestrator learns that a dispatched action settled.
enum class CompletionMode {
  /// The paper's production behaviour: poll every provider to completion
  /// with `backoff` (1 s start, doubling, 10 min cap by default).
  Polling,
  /// Subscribe to provider completion events; polling degrades to a sparse
  /// safety net (`reconcile_backoff`) that catches lost notifications and
  /// providers with no event channel.
  Events,
};

std::string completion_mode_name(CompletionMode m);

struct FlowServiceConfig {
  /// Cloud processing before the first step dispatches.
  double start_latency_s = 1.5;
  /// Orchestration hop between a discovered completion and the next dispatch:
  /// the Flows engine evaluates the state machine, persists the transition,
  /// and round-trips the next action provider — a few seconds per transition
  /// in the hosted service, and a polling-loop cost the event path replaces
  /// with `event_inter_step_latency_s`.
  double inter_step_latency_s = 2.4;
  double latency_jitter_frac = 0.3;
  BackoffPolicy backoff = BackoffPolicy::paper_default();
  /// Completion signaling. Polling (default) reproduces the paper; Events
  /// switches to push-based notifications with a polling safety net.
  CompletionMode completion_mode = CompletionMode::Polling;
  /// Webhook/AMQP delivery latency for a completion notification (jittered).
  double notification_latency_s = 0.1;
  /// Inter-step hop in Events mode: the engine advances inside the event
  /// callback instead of waiting for the next scheduler tick.
  double event_inter_step_latency_s = 0.1;
  /// Safety-net poller used in Events mode (and the "adaptive polling"
  /// mode when events are off but this policy is installed as `backoff`).
  BackoffPolicy reconcile_backoff = BackoffPolicy::adaptive();
  /// Per-provider circuit breaker (shared across all runs). While open,
  /// dispatches fail fast — each wait consumes one step retry — and the
  /// re-dispatch is deferred until the breaker half-opens, so a down service
  /// is probed instead of hammered.
  BreakerConfig breaker;
};

/// Lock-free status view of one run (see FlowService::status). `known` is
/// false for ids the service has never seen; the other fields are then
/// default. `finished` is zero until the run settles.
struct RunStatus {
  bool known = false;
  RunState state = RunState::Pending;
  uint32_t current_step = 0;
  sim::SimTime submitted;
  sim::SimTime finished;
};

/// Diagnostic view of one provider's circuit breaker. Breakers live per
/// FlowService, so `site` qualifies the key: "eagle/transfer" and
/// "peer/transfer" are independent breakers even though the provider name is
/// the same — one facility's open breaker never suppresses a healthy peer's.
struct BreakerSnapshot {
  std::string site;  ///< owning FlowService's site name ("" = unfederated)
  std::string provider;
  int trips = 0;
  int consecutive_failures = 0;
  std::string state;  ///< "closed" / "open" / "half-open"
};

/// Portable inter-step state of a run: everything a peer facility needs to
/// continue the flow from where it stopped. Completed steps are carried as
/// their outputs keyed by step name (the orchestrator's only inter-step
/// state — "$.steps.X.*" references resolve against them; outputs named for
/// steps at or after `start_step` are ignored), so the resumed run starts at
/// `start_step` without re-running anything before it. Deliberately excludes
/// attempt epochs, backoff salts, retry counters, and breaker state: a
/// failover must NOT inherit the failed site's backoff/breaker history.
struct RunCheckpoint {
  std::string flow;  ///< definition name, for sanity-checking at the peer
  size_t start_step = 0;
  util::Json input;
  std::map<std::string, util::Json> step_outputs;
};

class FlowService {
 public:
  FlowService(sim::Engine* engine, auth::AuthService* auth,
              FlowServiceConfig config, uint64_t seed = 0xF10Dull);

  /// Register an action provider under its name().
  void register_provider(ActionProvider* provider);

  /// Attach facility telemetry. With it set, every run/step/provider attempt
  /// becomes a node in the causal span tree (campaign -> run -> step ->
  /// attempt), breaker transitions and retry decisions land as span events,
  /// and the flow_* metric families are maintained. Null (the default)
  /// records no spans or metrics, so standalone use needs no setup.
  void set_telemetry(telemetry::Telemetry* telemetry);

  /// Launch a flow run. Requires scope "flows". Runs execute concurrently —
  /// the paper starts new flows while previous ones are still running.
  util::Result<RunId> start(const FlowDefinition& definition, util::Json input,
                            const auth::Token& token,
                            const std::string& label = "");

  /// Shared-definition overload: campaign drivers launching many runs of the
  /// same flow pass one immutable definition and every run shares it (and
  /// its dispatch plan) instead of copying ~1.5 KB of step metadata per run.
  /// The const& overload above delegates here, reusing its previous copy
  /// while the caller's definition compares equal to it.
  util::Result<RunId> start(std::shared_ptr<const FlowDefinition> definition,
                            util::Json input, const auth::Token& token,
                            const std::string& label = "");

  /// Cross-facility failover entry point: launch a run that continues from a
  /// peer's RunCheckpoint instead of from step 0. Completed steps are seeded
  /// into step_outputs (so "$.steps.X.*" references resolve) and dispatch
  /// begins at checkpoint.start_step. The new run gets a fresh id, epoch,
  /// backoff salt, and this service's own breakers — none of the failed
  /// site's retry/backoff state crosses the boundary.
  util::Result<RunId> resume(std::shared_ptr<const FlowDefinition> definition,
                             RunCheckpoint checkpoint,
                             const auth::Token& token,
                             const std::string& label = "");

  /// Export the portable inter-step state of a run (any state — an active
  /// run checkpoints at its current step, a failed one at the step that
  /// failed). The checkpoint is safe to replay at a peer FlowService.
  util::Result<RunCheckpoint> checkpoint(const RunId& id) const;

  /// Federation identity of this orchestrator; stamps breaker snapshots and
  /// telemetry label sets so per-site series stay distinct. Empty (default)
  /// keeps the unfederated single-facility behaviour and label sets.
  void set_site(std::string site) { site_ = std::move(site); }
  const std::string& site() const { return site_; }

  const RunInfo& info(const RunId& id) const;
  const RunTiming& timing(const RunId& id) const;

  /// Point-in-time run status, readable from any thread without blocking the
  /// engine: one shard-striped lookup plus a seqlock snapshot of the run's
  /// status cell. This is the portal-polling fast path — info()/timing()
  /// return references only the engine thread may safely dereference.
  RunStatus status(const RunId& id) const;
  /// The run's status cell itself (stable for the service's lifetime), so a
  /// poller can resolve the id once and then read with no locks at all.
  /// Null for unknown ids.
  const RunStatusCell* status_cell(const RunId& id) const;

  /// Cancel an active run: no further steps dispatch, pending polls are
  /// abandoned, and the run settles as Failed with a "cancelled" error.
  /// In-flight service work (a running transfer/compute task) is not
  /// recalled — as with the real cloud services, the action simply completes
  /// unobserved. No-op for already-settled runs.
  util::Status cancel(const RunId& id);

  /// Fired (in virtual time) when the run settles. For campaign drivers.
  void on_finished(const RunId& id,
                   std::function<void(const RunId&, const RunInfo&)> cb);

  size_t active_runs() const;
  std::vector<RunId> all_runs() const;

  /// Circuit-breaker state for every provider that has dispatched at least
  /// once (robustness reporting).
  std::vector<BreakerSnapshot> breaker_snapshots() const;
  /// Seconds until the named provider's breaker would admit a dispatch
  /// (0 = closed/absent). Campaign resubmission uses this as a hint to avoid
  /// re-launching straight into an open breaker.
  double breaker_retry_after_s(const std::string& provider) const;
  /// Total step attempts abandoned via timeout, across all runs.
  uint64_t total_timeouts() const { return total_timeouts_; }

  /// Probability that a provider completion notification is dropped before
  /// delivery (fault::FaultKind::NotificationLoss sets this during chaos
  /// windows). Lost notifications are discovered by the reconcile poller.
  void set_notification_loss_prob(double prob);
  double notification_loss_prob() const { return notification_loss_prob_; }

  /// SLO hook: succeeded runs slower than this count into
  /// flow_runs_slow_total, the numerator the health plane's latency
  /// burn-rate evaluation reads from snapshots. 0 (default) disables.
  void set_slow_run_threshold(double seconds) {
    slow_run_threshold_s_ = seconds;
  }

  /// Resolve "$." references in params against input + step outputs, by
  /// the same compiled template dispatch uses (exposed for tests).
  static util::Json resolve_params(const util::Json& params,
                                   const util::Json& input,
                                   const std::map<std::string, util::Json>& steps);

 private:
  struct Run {
    // ---- Hot block -----------------------------------------------------
    // At 10^5+ concurrent flows every run record is a DRAM miss when its
    // event fires, so the fields a completion poll touches — the dominant
    // event class, ~12 of a typical flow's ~17 events — are packed into the
    // record's first two cache lines, together with `info.state` and
    // `info.current_step` (which RunInfo deliberately leads with). Strings,
    // JSON, timing, and spans follow: they are only touched on
    // dispatch/settle, 3x per flow instead of per poll.
    /// Backpointer for scheduled events: hot-path lambdas capture just
    /// {Run*, epoch} (16 bytes — inside libstdc++'s std::function small-buffer
    /// optimization, so polls/retries/timeouts allocate nothing).
    FlowService* svc = nullptr;
    /// Attempt generation: bumped whenever the current attempt is superseded
    /// (new dispatch, completion, timeout, failure). Scheduled poll/timeout
    /// events capture the epoch and no-op if it moved on.
    uint64_t epoch = 0;
    /// Deterministic per-run jitter seed: poll backoff is derived from
    /// (salt ^ epoch, attempt), so a run's poll schedule is a pure function
    /// of its identity and attempt history — concurrent flows never perturb
    /// each other's jitter.
    uint64_t backoff_salt = 0;
    int poll_attempt = 0;
    /// Interned provider id of the dispatched step (mirror of the plan's
    /// id for current_step, kept hot so polls skip the plan).
    uint16_t cur_pid = 0;
    /// Current attempt has a live completion subscription: polling is only
    /// the sparse reconcile safety net, never reset on token change.
    bool subscribed = false;
    /// Polls issued for the in-flight step, folded into
    /// timing.steps[current_step].polls when the attempt settles (or lazily
    /// by timing()); keeps the poll path off the StepTiming heap array.
    uint32_t cur_polls = 0;
    void flush_polls() {
      if (cur_polls == 0) return;
      if (info.current_step < timing.steps.size())
        timing.steps[info.current_step].polls += static_cast<int>(cur_polls);
      cur_polls = 0;
    }
    RunInfo info;
    ActionHandle current_handle;
    std::string last_progress_token;
    // ---- Dispatch/settle-path state (cold relative to polls) -----------
    RunId id;
    /// Seqlock-published status for lock-free portal polling.
    RunStatusCell cell;
    /// Compiled once per shared definition and shared with every run started
    /// from it: interned provider ids (so dispatch/poll never do a string
    /// map lookup) and params templates, plus the immutable definition
    /// itself — one copy keeps step metadata hot at 10^5-10^6 runs.
    std::shared_ptr<DispatchPlan> plan;
    const FlowDefinition& definition() const;
    /// Pending step-timeout event; cancelled when the attempt settles so dead
    /// timers are reclaimed by compaction instead of firing as no-ops hours
    /// of virtual time after the run finished.
    sim::EventHandle timeout_handle;
    RunTiming timing;
    uint32_t token = 0;  ///< index into FlowService::tokens_
    int retries_this_step = 0;
    /// Cut-through pre-dispatch of the *next* step (held at its provider
    /// until the current step settles). Empty handle = none outstanding.
    ActionHandle pre_handle;
    size_t pre_step = 0;
    sim::SimTime pre_dispatched;
    uint64_t pre_step_span = 0;
    uint64_t pre_attempt_span = 0;
    std::function<void(const RunId&, const RunInfo&)> finished_cb;
    /// Telemetry span ids (0 = none open). The run span parents step spans;
    /// each step span parents its provider-attempt spans.
    uint64_t run_span = 0;
    uint64_t step_span = 0;
    uint64_t attempt_span = 0;
    sim::SimTime attempt_started;
  };

  void dispatch_step(Run& run);
  void poll_step(Run& run, uint64_t epoch);
  void timeout_step(Run& run, uint64_t epoch);
  /// A provider completion notification fired for the current attempt.
  /// Applies notification-loss chaos, then (after jittered
  /// notification_latency_s) folds into poll_step.
  void on_notification(Run& run, uint64_t epoch);
  /// First byte-progress event from a streaming-capable step: pre-dispatch
  /// the next step held, if it opted into `streaming`.
  void on_stream_progress(Run& run, uint64_t epoch);
  /// The current step completed with a held pre-dispatch waiting: adopt the
  /// pre-started action as the new current attempt and release it.
  void activate_prestarted(Run& run);
  /// Drop an outstanding pre-dispatch (run failed/cancelled before the
  /// streamed step could activate). The held service work completes
  /// unobserved, like any abandoned action.
  void abandon_prestart(Run& run);
  void step_attempt_failed(Run& run, const std::string& error,
                           double retry_delay_s);
  void complete_step(Run& run, ActionPollResult poll);
  void fail_run(Run& run, const std::string& error);
  void finish_run(Run& run);
  /// Re-publish the run's seqlock status cell from its authoritative state.
  void publish_status(Run& run);
  double jittered(double base);
  /// Poll policy in force: the sparse reconcile net in Events mode, the
  /// configured backoff otherwise.
  const BackoffPolicy& active_poll_policy() const;
  /// Breaker for an interned provider id, created lazily on first dispatch
  /// (snapshots only cover providers that have dispatched).
  CircuitBreaker& breaker_for(uint16_t pid);
  /// Close the step span (if open) carrying the full StepTiming as integer-ns
  /// attributes, so reports can be rebuilt from the span tree alone.
  void close_step_span(Run& run, const std::string& category);
  void close_run_span(Run& run, const std::string& category);
  void on_breaker_transition(const std::string& provider,
                             CircuitBreaker::State from,
                             CircuitBreaker::State to, sim::SimTime at);

  /// The plan of a shared definition, compiled on first use. Fails (and
  /// caches nothing) when a step names an unregistered provider.
  util::Result<std::shared_ptr<DispatchPlan>> plan_for(
      const std::shared_ptr<const FlowDefinition>& definition);

  /// Shared start/resume body: `resume_from` (when non-null) pre-seeds the
  /// completed steps and start offset before the first dispatch schedules.
  util::Result<RunId> start_internal(
      std::shared_ptr<const FlowDefinition> definition_ptr, util::Json input,
      const auth::Token& token, const std::string& label,
      const RunCheckpoint* resume_from);
  /// {{"provider", p}} plus {"site", site_} when federated — breaker metric
  /// series from co-scheduled facilities must not collapse into one key.
  telemetry::Labels provider_labels(const std::string& provider) const;

  sim::Engine* engine_;
  auth::AuthService* auth_;
  FlowServiceConfig config_;
  std::string site_;
  util::Rng rng_;
  uint64_t seed_;  ///< mixed into each run's deterministic backoff salt
  telemetry::Telemetry* telemetry_ = nullptr;
  /// Step span of the run currently being advanced on this stack; breaker
  /// transition observers attach their events here (and, through its
  /// subject, to the run's flight ring). Valid because the sim engine is
  /// single-threaded.
  uint64_t active_step_span_ = 0;
  double slow_run_threshold_s_ = 0;
  /// Providers interned to dense u16 ids: `providers_[pid]` is the adapter,
  /// `provider_names_[pid]` its name, `breakers_[pid]` its lazily-created
  /// circuit breaker (null until first dispatch). Re-registering a name
  /// swaps the adapter but keeps the id (and breaker history), matching the
  /// previous map-assign semantics.
  std::vector<ActionProvider*> providers_;
  std::vector<std::string> provider_names_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  std::unordered_map<std::string, uint16_t> provider_ids_;
  /// Plans by definition address. Weak: runs own their plan (and through
  /// it the definition), so the cache never pins one; an entry whose plan
  /// died is recompiled if its address is reused.
  std::unordered_map<const FlowDefinition*, std::weak_ptr<DispatchPlan>>
      plans_;
  /// Tokens runs were started with, interned: runs keep an index instead of
  /// a copy. A deque, so a reference handed to a provider call stays valid
  /// if that call starts another run.
  std::deque<auth::Token> tokens_;
  std::unordered_map<auth::Token, uint32_t> token_ids_;
  /// The const& start overload's latest copy, reused while equal.
  std::shared_ptr<const FlowDefinition> copied_definition_;
  /// Run records, sharded by id hash; records are heap-pinned so scheduled
  /// events hold raw Run* (see Run::svc).
  ShardedRunStore<Run> runs_;
  /// Runs submitted but not yet settled, maintained incrementally so
  /// active_runs() is O(1) instead of a full-store scan.
  std::atomic<size_t> active_count_{0};
  uint64_t next_run_ = 1;
  uint64_t total_timeouts_ = 0;
  double notification_loss_prob_ = 0;
};

/// Rebuild a settled run's RunTiming purely from its closed span tree: the
/// ("flow", "run"/"run-failed") span labelled `id` plus its
/// ("flow", "step"/"step-failed") children, using the integer-ns attributes
/// the service stamps at close time. The result is bit-identical to
/// FlowService::timing() — campaign reports regenerated this way match the
/// service-side bookkeeping byte for byte. Returns false (leaving *out
/// untouched) when the run span is absent, i.e. telemetry was not attached.
/// Caller must satisfy the Trace quiescence contract (post-run reporting or
/// engine-thread callbacks with no concurrent pool writers).
bool timing_from_spans(const sim::Trace& trace, const RunId& id,
                       RunTiming* out);

}  // namespace pico::flow
