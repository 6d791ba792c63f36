#include "flow/service.hpp"

#include <algorithm>
#include <cassert>

#include "flow/plan.hpp"
#include "util/crc64.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pico::flow {
namespace {
util::Logger& logger() {
  static util::Logger kLogger("flow");
  return kLogger;
}
}  // namespace

std::string run_state_name(RunState s) {
  switch (s) {
    case RunState::Pending: return "PENDING";
    case RunState::Active: return "ACTIVE";
    case RunState::Succeeded: return "SUCCEEDED";
    case RunState::Failed: return "FAILED";
  }
  return "?";
}

std::string completion_mode_name(CompletionMode m) {
  switch (m) {
    case CompletionMode::Polling: return "polling";
    case CompletionMode::Events: return "events";
  }
  return "?";
}

double RunTiming::active_union_s() const {
  // Merge the per-step service intervals on the wall clock. Serialized runs
  // reduce to the same per-step durations summed in the same order as
  // active_s(), so the two agree bit for bit when nothing overlaps.
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const auto& s : steps) {
    if (s.service_completed.ns > s.service_started.ns) {
      iv.emplace_back(s.service_started.ns, s.service_completed.ns);
    }
  }
  std::sort(iv.begin(), iv.end());
  double total = 0;
  int64_t lo = 0, hi = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (open && a <= hi) {
      hi = std::max(hi, b);
      continue;
    }
    if (open) total += (sim::SimTime{hi} - sim::SimTime{lo}).seconds();
    lo = a;
    hi = b;
    open = true;
  }
  if (open) total += (sim::SimTime{hi} - sim::SimTime{lo}).seconds();
  return total;
}

FlowService::FlowService(sim::Engine* engine, auth::AuthService* auth,
                         FlowServiceConfig config, uint64_t seed)
    : engine_(engine),
      auth_(auth),
      config_(config),
      rng_(seed),
      seed_(seed) {}

void FlowService::register_provider(ActionProvider* provider) {
  std::string name = provider->name();
  auto it = provider_ids_.find(name);
  if (it != provider_ids_.end()) {
    providers_[it->second] = provider;
    return;
  }
  uint16_t pid = static_cast<uint16_t>(providers_.size());
  provider_ids_.emplace(std::move(name), pid);
  providers_.push_back(provider);
  provider_names_.push_back(provider->name());
  breakers_.push_back(nullptr);
}

void FlowService::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
}

void FlowService::set_notification_loss_prob(double prob) {
  notification_loss_prob_ = std::max(0.0, std::min(1.0, prob));
}

const BackoffPolicy& FlowService::active_poll_policy() const {
  return config_.completion_mode == CompletionMode::Events
             ? config_.reconcile_backoff
             : config_.backoff;
}

telemetry::Labels FlowService::provider_labels(
    const std::string& provider) const {
  telemetry::Labels labels{{"provider", provider}};
  if (!site_.empty()) labels["site"] = site_;
  return labels;
}

void FlowService::on_breaker_transition(const std::string& provider,
                                        CircuitBreaker::State from,
                                        CircuitBreaker::State to,
                                        sim::SimTime at) {
  if (!telemetry_) return;
  std::string to_name = to == CircuitBreaker::State::Open        ? "open"
                        : to == CircuitBreaker::State::HalfOpen ? "half_open"
                                                                : "closed";
  telemetry::Labels to_labels = provider_labels(provider);
  to_labels["to"] = to_name;
  telemetry_->metrics
      .counter("flow_breaker_transitions_total",
               "Circuit breaker state transitions by provider and new state",
               to_labels)
      .inc();
  // Live breaker position for the health plane's provider score. Site-
  // qualified when federated so one facility's open breaker never shadows a
  // healthy peer's provider of the same name.
  telemetry_->metrics
      .gauge("flow_breaker_open",
             "Breaker position by provider: 0 closed, 0.5 half-open, 1 open",
             provider_labels(provider))
      .set(to == CircuitBreaker::State::Open       ? 1.0
           : to == CircuitBreaker::State::HalfOpen ? 0.5
                                                   : 0.0);
  telemetry_->tracer.event(active_step_span_, "breaker-" + to_name, at,
                           util::Json::object({
                               {"provider", provider},
                               {"from", CircuitBreaker::state_name(from)},
                               {"to", CircuitBreaker::state_name(to)},
                           }),
                           util::LogLevel::Warn);
}

double FlowService::jittered(double base) {
  double f = config_.latency_jitter_frac;
  return std::max(0.05, base * rng_.uniform(1.0 - f, 1.0 + f));
}

void FlowService::publish_status(Run& run) {
  run.cell.publish(static_cast<uint8_t>(run.info.state),
                   static_cast<uint32_t>(run.info.current_step),
                   run.timing.submitted.ns, run.timing.finished.ns);
}

const FlowDefinition& FlowService::Run::definition() const {
  return plan->definition();
}

util::Result<RunId> FlowService::start(const FlowDefinition& definition,
                                       util::Json input,
                                       const auth::Token& token,
                                       const std::string& label) {
  // A caller relaunching the same definition by value shares one copy (and
  // so one plan) instead of pinning a copy per run.
  if (!copied_definition_ || !(*copied_definition_ == definition)) {
    copied_definition_ = std::make_shared<const FlowDefinition>(definition);
  }
  return start(copied_definition_, std::move(input), token, label);
}

util::Result<RunId> FlowService::start(
    std::shared_ptr<const FlowDefinition> definition_ptr, util::Json input,
    const auth::Token& token, const std::string& label) {
  return start_internal(std::move(definition_ptr), std::move(input), token,
                        label, nullptr);
}

util::Result<RunId> FlowService::resume(
    std::shared_ptr<const FlowDefinition> definition_ptr,
    RunCheckpoint checkpoint, const auth::Token& token,
    const std::string& label) {
  using R = util::Result<RunId>;
  if (!definition_ptr) return R::err("resume needs a definition", "invalid");
  if (!checkpoint.flow.empty() && checkpoint.flow != definition_ptr->name) {
    return R::err("checkpoint is for flow '" + checkpoint.flow +
                      "', not '" + definition_ptr->name + "'",
                  "invalid");
  }
  if (checkpoint.start_step > definition_ptr->steps.size()) {
    return R::err("checkpoint start_step beyond definition", "invalid");
  }
  util::Json input = std::move(checkpoint.input);
  return start_internal(std::move(definition_ptr), std::move(input), token,
                        label, &checkpoint);
}

util::Result<RunCheckpoint> FlowService::checkpoint(const RunId& id) const {
  using R = util::Result<RunCheckpoint>;
  const Run* run = runs_.find(id);
  if (!run) return R::err("unknown run " + id, "not_found");
  RunCheckpoint cp;
  const FlowDefinition& def = run->definition();
  cp.flow = def.name;
  cp.start_step = run->info.current_step;
  cp.input = run->info.input;
  const std::vector<util::Json>& outputs = run->info.step_outputs;
  for (size_t i = 0; i < cp.start_step && i < outputs.size(); ++i) {
    cp.step_outputs[def.steps[i].name] = outputs[i];
  }
  return R::ok(std::move(cp));
}

util::Result<std::shared_ptr<DispatchPlan>> FlowService::plan_for(
    const std::shared_ptr<const FlowDefinition>& definition) {
  using R = util::Result<std::shared_ptr<DispatchPlan>>;
  auto it = plans_.find(definition.get());
  if (it != plans_.end()) {
    if (std::shared_ptr<DispatchPlan> plan = it->second.lock()) {
      return R::ok(std::move(plan));
    }
  }
  std::vector<uint16_t> pids;
  pids.reserve(definition->steps.size());
  for (const auto& step : definition->steps) {
    auto pid = provider_ids_.find(step.provider);
    if (pid == provider_ids_.end()) {
      return R::err("unknown provider: " + step.provider, "not_found");
    }
    pids.push_back(pid->second);
  }
  auto plan = std::make_shared<DispatchPlan>(definition, std::move(pids));
  plans_[definition.get()] = plan;
  return R::ok(std::move(plan));
}

util::Result<RunId> FlowService::start_internal(
    std::shared_ptr<const FlowDefinition> definition_ptr, util::Json input,
    const auth::Token& token, const std::string& label,
    const RunCheckpoint* resume_from) {
  using R = util::Result<RunId>;
  const FlowDefinition& definition = *definition_ptr;
  if (auto allowed = auth_->authorize(token, "flows"); !allowed) {
    return R::err(allowed.error());
  }
  if (definition.steps.empty()) return R::err("flow has no steps", "invalid");
  auto plan = plan_for(definition_ptr);
  if (!plan) return R::err(plan.error());

  // Equivalent to util::format("run-%06llu", n) without the varargs
  // vsnprintf round trip; ids mint once per start on the campaign hot path.
  uint64_t seq = next_run_++;
  char idbuf[28] = "run-";
  size_t idlen = 4;
  {
    char digits[20];
    size_t nd = 0;
    uint64_t v = seq;
    do {
      digits[nd++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v);
    for (size_t pad = nd; pad < 6; ++pad) idbuf[idlen++] = '0';
    while (nd) idbuf[idlen++] = digits[--nd];
  }
  RunId id(idbuf, idlen);
  Run* run = runs_.emplace(id);
  run->id = id;
  run->svc = this;
  run->plan = std::move(plan).value();
  run->info.label = label.empty() ? id : label;
  run->info.input = std::move(input);
  run->timing.steps.reserve(definition.steps.size());
  run->timing.submitted = engine_->now();
  auto [known, fresh] = token_ids_.try_emplace(
      token, static_cast<uint32_t>(tokens_.size()));
  if (fresh) tokens_.push_back(token);
  run->token = known->second;
  run->backoff_salt = util::crc64(id) ^ seed_;
  if (resume_from) {
    // Continue a peer's checkpoint: completed steps become resolved outputs
    // and zero-duration timing placeholders (dispatch indexes timing.steps by
    // current_step), dispatch starts at start_step. Epoch, salt, retry
    // counters, and breakers above are already this site's fresh state.
    run->info.current_step = resume_from->start_step;
    if (!resume_from->step_outputs.empty()) {
      run->info.step_outputs.resize(definition.steps.size());
    }
    for (size_t i = 0; i < resume_from->start_step; ++i) {
      auto out = resume_from->step_outputs.find(definition.steps[i].name);
      if (out != resume_from->step_outputs.end()) {
        run->info.step_outputs[i] = out->second;
      }
      StepTiming skipped;
      skipped.name = definition.steps[i].name;
      run->timing.steps.push_back(std::move(skipped));
    }
  }
  if (telemetry_) {
    // Parent comes from the tracer context: the campaign scope when driven by
    // a campaign, else root. The run id is the flight subject every span
    // and service task opened beneath inherits.
    run->run_span =
        telemetry_->tracer.open("flow", id, telemetry::Tracer::kUseContext, id);
  }
  publish_status(*run);
  active_count_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry_) {
    telemetry_->flight.open(id, engine_->now());
    telemetry_->tracer.note(run->run_span, util::LogLevel::Info, "submitted",
                            engine_->now(),
                            util::Json::object({
                                {"flow", definition.name},
                                {"label", run->info.label},
                                {"steps", definition.steps.size()},
                            }));
    telemetry_->metrics
        .gauge("flow_active_runs", "Flow runs submitted but not yet settled")
        .add(1.0);
    if (resume_from) {
      telemetry_->tracer.note(run->run_span, util::LogLevel::Info,
                              "resumed-from-checkpoint", engine_->now(),
                              util::Json::object({
                                  {"start_step", resume_from->start_step},
                                  {"steps_skipped", resume_from->start_step},
                              }));
      telemetry_->metrics
          .counter("flow_runs_resumed_total",
                   "Runs launched from a peer facility's checkpoint")
          .inc();
    }
  }

  Run* r = run;
  engine_->post_after(
      sim::Duration::from_seconds(jittered(config_.start_latency_s)), [r] {
        if (r->info.state != RunState::Pending) {
          return;  // cancelled before the service picked it up
        }
        r->info.state = RunState::Active;
        r->svc->publish_status(*r);
        r->svc->dispatch_step(*r);
      });
  logger().debug("%s started (%s, %zu steps)", id.c_str(),
                 definition.name.c_str(), definition.steps.size());
  return R::ok(id);
}

util::Json FlowService::resolve_params(
    const util::Json& params, const util::Json& input,
    const std::map<std::string, util::Json>& steps) {
  std::vector<std::string> names;
  std::vector<util::Json> outputs;
  for (const auto& [name, output] : steps) {
    names.push_back(name);
    outputs.push_back(output);
  }
  ParamsTemplate compiled(params, names, /*stamp_epoch=*/false);
  return compiled.fill(input, outputs, outputs.size(), 0);
}

void FlowService::dispatch_step(Run& run) {
  if (run.info.state != RunState::Active) return;  // cancelled/settled
  if (run.info.current_step >= run.definition().steps.size()) {
    finish_run(run);
    return;
  }
  const ActionState& step = run.definition().steps[run.info.current_step];
  uint16_t pid = run.plan->provider_id(run.info.current_step);
  run.cur_pid = pid;  // hot mirror: polls skip the plan
  ActionProvider* provider = providers_[pid];

  StepTiming timing;
  timing.name = step.name;
  timing.dispatched = engine_->now();
  timing.retries = run.retries_this_step;
  if (run.timing.steps.size() <= run.info.current_step) {
    run.timing.steps.push_back(timing);
  } else {
    // Retry: keep the original dispatch time, bump the retry counter.
    run.timing.steps[run.info.current_step].retries = run.retries_this_step;
  }
  if (telemetry_ && run.step_span == 0) {
    run.step_span =
        telemetry_->tracer.open("flow", run.id + "/" + step.name, run.run_span);
  }
  if (telemetry_) {
    active_step_span_ = run.step_span;  // breaker-transition context
    telemetry_->tracer.note(run.run_span, util::LogLevel::Info, "dispatch",
                            engine_->now(),
                            util::Json::object({
                                {"step", step.name},
                                {"provider", step.provider},
                                {"retry", run.retries_this_step},
                            }));
  }

  // Circuit-breaker gate: while the provider's breaker is open, fail fast —
  // the wait consumes one retry and the re-dispatch lands when the breaker
  // half-opens, so a down service sees probes instead of a retry storm.
  CircuitBreaker& breaker = breaker_for(pid);
  double open_wait = breaker.retry_after_s(engine_->now());
  if (open_wait > 0) {
    uint64_t epoch = ++run.epoch;
    if (run.retries_this_step < step.max_retries) {
      ++run.retries_this_step;
      run.timing.steps[run.info.current_step].retries = run.retries_this_step;
      if (telemetry_) {
        telemetry_->metrics
            .counter("flow_breaker_deferrals_total",
                     "Step dispatches deferred because the provider breaker "
                     "was open",
                     provider_labels(step.provider))
            .inc();
        telemetry_->tracer.event(run.step_span, "breaker-deferred",
                                 engine_->now(),
                                 util::Json::object({
                                     {"provider", step.provider},
                                     {"wait_s", open_wait},
                                     {"retry", run.retries_this_step},
                                 }),
                                 util::LogLevel::Warn);
      }
      logger().debug("%s: breaker open for %s, retry %d deferred %.1fs",
                     run.id.c_str(), step.provider.c_str(),
                     run.retries_this_step, open_wait);
      Run* r = &run;
      engine_->post_after(
          sim::Duration::from_seconds(open_wait + jittered(0.5)),
          [r, epoch] {
            if (r->info.state != RunState::Active || r->epoch != epoch) return;
            r->svc->dispatch_step(*r);
          });
    } else {
      fail_run(run, "step " + step.name + ": circuit open for provider " +
                        step.provider);
    }
    return;
  }

  if (telemetry_) {
    run.attempt_span = telemetry_->tracer.open(
        "flow",
        run.id + "/" + step.name + "#" +
            std::to_string(run.retries_this_step),
        run.step_span);
    run.attempt_started = engine_->now();
  }
  util::Result<ActionHandle> handle = [&] {
    // Attempt epoch rides along in the params so idempotent providers
    // (search ingest) can report which attempt first claimed a publish and
    // which were suppressed.
    DispatchPlan::Params params =
        run.plan->params(run.info.current_step, run.info.input,
                         run.info.step_outputs, run.info.current_step,
                         run.epoch);
    // Scope the attempt span around the provider call: the service-side
    // task (transfer/compute) parents to this attempt and inherits its
    // flight subject, so its async events (frame NACKs, chunk retries)
    // reach this run's ring.
    const auth::Token& token = tokens_[run.token];
    if (!telemetry_) return provider->start(params.json(), token);
    telemetry::Tracer::Scope scope(telemetry_->tracer, run.attempt_span);
    return provider->start(params.json(), token);
  }();
  if (!handle) {
    breaker.record_failure(engine_->now());
    step_attempt_failed(run,
                        "step " + step.name + " failed to start: " +
                            handle.error().message,
                        jittered(config_.inter_step_latency_s));
    return;
  }
  run.current_handle = handle.value();
  run.poll_attempt = 0;
  run.last_progress_token.clear();
  run.subscribed = false;
  uint64_t epoch = ++run.epoch;
  Run* r = &run;

  if (config_.completion_mode == CompletionMode::Events) {
    run.subscribed = provider->subscribe(
        run.current_handle, [r, epoch] { r->svc->on_notification(*r, epoch); });
  }
  // Cut-through: when the *next* step opted into streaming and its provider
  // can hold a started action, watch this step's byte progress and
  // pre-dispatch on the first chunk landing.
  size_t next_idx = run.info.current_step + 1;
  if (next_idx < run.definition().steps.size() &&
      run.definition().steps[next_idx].streaming &&
      providers_[run.plan->provider_id(next_idx)]->supports_held_start()) {
    provider->subscribe_progress(
        run.current_handle,
        [r, epoch](int64_t) { r->svc->on_stream_progress(*r, epoch); });
  }

  // First poll after the initial interval of the policy in force (the sparse
  // reconcile net when subscribed; the configured backoff otherwise).
  double wait =
      active_poll_policy().interval_s(0, run.backoff_salt ^ run.epoch);
  engine_->post_after(sim::Duration::from_seconds(wait),
                      [r, epoch] { r->svc->poll_step(*r, epoch); });
  if (step.timeout_s > 0) {
    // Cancellable handle, not fire-and-forget: long step timeouts (hours of
    // virtual time) would otherwise outlive the run and dominate the queue.
    run.timeout_handle = engine_->schedule_after(
        sim::Duration::from_seconds(step.timeout_s),
        [r, epoch] { r->svc->timeout_step(*r, epoch); });
  }
}

void FlowService::poll_step(Run& run, uint64_t epoch) {
  if (run.info.state != RunState::Active) return;
  if (run.epoch != epoch) return;  // attempt superseded (timeout/retry)

  ActionProvider* provider = providers_[run.cur_pid];
  ++run.cur_polls;
  if (telemetry_) {
    // Span context and the poll counter matter only with telemetry
    // attached; the bare hot path skips the step-metadata load entirely.
    active_step_span_ = run.step_span;
    const ActionState& step = run.definition().steps[run.info.current_step];
    telemetry_->metrics
        .counter("flow_polls_total", "Completion polls issued by the flow "
                                     "orchestrator, by provider",
                 provider_labels(step.provider))
        .inc();
  }

  ActionPollResult poll = provider->poll(run.current_handle);
  switch (poll.status) {
    case ActionStatus::Active: {
      if (!run.subscribed && !poll.progress_token.empty() &&
          poll.progress_token != run.last_progress_token) {
        // Observed a service-side status transition: restart the backoff.
        // Subscribed attempts skip the reset — their polls are only a sparse
        // safety net behind the completion notification.
        run.last_progress_token = poll.progress_token;
        run.poll_attempt = 0;
      } else {
        ++run.poll_attempt;
      }
      double wait = active_poll_policy().interval_s(
          run.poll_attempt, run.backoff_salt ^ run.epoch);
      Run* r = &run;
      engine_->post_after(sim::Duration::from_seconds(wait),
                          [r, epoch] { r->svc->poll_step(*r, epoch); });
      return;
    }
    case ActionStatus::Failed: {
      const ActionState& step = run.definition().steps[run.info.current_step];
      active_step_span_ = run.step_span;  // breaker-transition context
      breaker_for(run.cur_pid).record_failure(engine_->now());
      step_attempt_failed(run, "step " + step.name + " failed: " + poll.error,
                          0);
      return;
    }
    case ActionStatus::Succeeded: {
      complete_step(run, std::move(poll));
      return;
    }
  }
}

void FlowService::timeout_step(Run& run, uint64_t epoch) {
  if (run.info.state != RunState::Active) return;
  if (run.epoch != epoch) return;  // attempt already settled or superseded

  const ActionState& step = run.definition().steps[run.info.current_step];
  run.flush_polls();
  run.timing.steps[run.info.current_step].timeouts += 1;
  ++total_timeouts_;
  if (telemetry_) {
    active_step_span_ = run.step_span;
    telemetry_->metrics
        .counter("flow_timeouts_total",
                 "Step attempts abandoned via per-step timeout, by provider",
                 provider_labels(step.provider))
        .inc();
    telemetry_->tracer.event(run.step_span, "timeout", engine_->now(),
                             util::Json::object({
                                 {"step", step.name},
                                 {"provider", step.provider},
                                 {"timeout_s", step.timeout_s},
                             }),
                             util::LogLevel::Warn);
  }
  breaker_for(run.plan->provider_id(run.info.current_step))
      .record_failure(engine_->now());
  logger().warn("%s: step %s timed out after %.1fs (attempt abandoned)",
                run.id.c_str(), step.name.c_str(), step.timeout_s);
  step_attempt_failed(
      run,
      "step " + step.name + " timed out after " +
          util::format("%.1f", step.timeout_s) + "s",
      0);
}

void FlowService::on_notification(Run& run, uint64_t epoch) {
  if (run.info.state != RunState::Active || run.epoch != epoch) return;
  const ActionState& step = run.definition().steps[run.info.current_step];
  if (telemetry_) {
    telemetry_->metrics
        .counter("flow_notifications_total",
                 "Completion notifications emitted by providers, by provider",
                 provider_labels(step.provider))
        .inc();
  }
  if (notification_loss_prob_ > 0 && rng_.chance(notification_loss_prob_)) {
    // Dropped on the wire: the reconcile poller discovers the completion.
    if (telemetry_) {
      telemetry_->metrics
          .counter("flow_notifications_lost_total",
                   "Completion notifications dropped before delivery, "
                   "by provider",
                   provider_labels(step.provider))
          .inc();
      telemetry_->tracer.event(run.step_span, "notification-lost",
                               engine_->now(),
                               util::Json::object({
                                   {"provider", step.provider},
                               }),
                               util::LogLevel::Warn);
    }
    logger().debug("%s: completion notification lost (step %s)",
                   run.id.c_str(), step.name.c_str());
    return;
  }
  double delay = jittered(config_.notification_latency_s);
  Run* r = &run;
  engine_->post_after(
      sim::Duration::from_seconds(delay), [r, epoch, delay] {
        if (r->info.state != RunState::Active || r->epoch != epoch) return;
        ++r->timing.steps[r->info.current_step].notifications;
        FlowService* svc = r->svc;
        if (svc->telemetry_) {
          svc->telemetry_->metrics
              .histogram("flow_notification_latency_seconds",
                         "Delivery latency of consumed completion "
                         "notifications")
              .observe(delay);
        }
        // The delivered notification carries no verdict: poll once to learn
        // the outcome (this also counts toward provider poll load).
        svc->poll_step(*r, epoch);
      });
}

void FlowService::on_stream_progress(Run& run, uint64_t epoch) {
  if (run.info.state != RunState::Active || run.epoch != epoch) return;
  if (!run.pre_handle.empty()) return;  // already pre-dispatched
  size_t next_idx = run.info.current_step + 1;
  if (next_idx >= run.definition().steps.size()) return;
  const ActionState& next = run.definition().steps[next_idx];
  ActionProvider* provider = providers_[run.plan->provider_id(next_idx)];
  if (!provider->supports_held_start()) return;

  sim::SimTime t0 = engine_->now();
  uint64_t step_span = 0, attempt_span = 0;
  if (telemetry_) {
    step_span = telemetry_->tracer.open("flow", run.id + "/" + next.name,
                                        run.run_span);
    attempt_span = telemetry_->tracer.open(
        "flow", run.id + "/" + next.name + "#0", step_span);
  }
  util::Result<ActionHandle> handle = [&] {
    // NOTE: "$.steps.<current>.*" references resolve to null here — the
    // current step has no output yet. Streaming steps must template from
    // "$.input.*" only (definition_io validates this).
    DispatchPlan::Params params =
        run.plan->params(next_idx, run.info.input, run.info.step_outputs,
                         run.info.current_step, run.epoch);
    const auth::Token& token = tokens_[run.token];
    if (!telemetry_) return provider->start_held(params.json(), token);
    telemetry::Tracer::Scope scope(telemetry_->tracer, attempt_span);
    return provider->start_held(params.json(), token);
  }();
  if (!handle) {
    // Held start refused: fall back to serialized dispatch after the current
    // step settles. Close the speculative spans so the tree stays balanced.
    if (telemetry_) {
      telemetry_->tracer.close(attempt_span, "attempt", t0, engine_->now(),
                               util::Json::object({
                                   {"provider", next.provider},
                                   {"outcome", "held-start-failed"},
                                   {"error", handle.error().message},
                               }));
      telemetry_->tracer.close(step_span, "step-abandoned", t0, engine_->now(),
                               util::Json::object({{"step", next.name}}));
    }
    logger().debug("%s: held pre-dispatch of %s refused (%s)", run.id.c_str(),
                   next.name.c_str(), handle.error().message.c_str());
    return;
  }
  run.pre_handle = handle.value();
  run.pre_step = next_idx;
  run.pre_dispatched = t0;
  run.pre_step_span = step_span;
  run.pre_attempt_span = attempt_span;
  if (telemetry_) {
    telemetry_->metrics
        .counter("flow_stream_predispatch_total",
                 "Next-step actions pre-dispatched (held) on first-chunk "
                 "progress, by step",
                 {{"step", next.name}})
        .inc();
    if (run.step_span != 0) {
      telemetry_->tracer.event(run.step_span, "stream-predispatch", t0,
                               util::Json::object({{"next", next.name}}));
    }
  }
  logger().debug("%s: pre-dispatched %s (held) on first-chunk progress",
                 run.id.c_str(), next.name.c_str());
}

void FlowService::activate_prestarted(Run& run) {
  if (run.info.state != RunState::Active) return;
  if (run.pre_handle.empty() || run.pre_step != run.info.current_step) {
    dispatch_step(run);  // pre-dispatch evaporated: serialized fallback
    return;
  }
  const ActionState& step = run.definition().steps[run.info.current_step];
  run.cur_pid = run.plan->provider_id(run.info.current_step);
  ActionProvider* provider = providers_[run.cur_pid];

  StepTiming timing;
  timing.name = step.name;
  timing.dispatched = run.pre_dispatched;
  timing.streamed = true;
  if (run.timing.steps.size() <= run.info.current_step) {
    run.timing.steps.push_back(timing);
  }
  // Adopt the speculative spans as the live step/attempt spans.
  run.step_span = run.pre_step_span;
  run.attempt_span = run.pre_attempt_span;
  run.attempt_started = run.pre_dispatched;
  active_step_span_ = run.step_span;
  run.current_handle = run.pre_handle;
  run.pre_handle.clear();
  run.pre_step_span = 0;
  run.pre_attempt_span = 0;
  run.poll_attempt = 0;
  run.last_progress_token.clear();
  run.subscribed = false;
  uint64_t epoch = ++run.epoch;
  Run* r = &run;

  // Release the held action (it starts charging residual cost now, crediting
  // the overlap already elapsed), then wire up completion signaling exactly
  // like a fresh dispatch. The breaker gate is skipped: the action already
  // started successfully when it was held.
  provider->release(run.current_handle);
  if (config_.completion_mode == CompletionMode::Events) {
    run.subscribed = provider->subscribe(
        run.current_handle, [r, epoch] { r->svc->on_notification(*r, epoch); });
  }
  if (telemetry_) {
    telemetry_->metrics
        .counter("flow_streamed_steps_total",
                 "Steps activated from a cut-through pre-dispatch, by step",
                 {{"step", step.name}})
        .inc();
  }
  double wait =
      active_poll_policy().interval_s(0, run.backoff_salt ^ run.epoch);
  engine_->post_after(sim::Duration::from_seconds(wait),
                      [r, epoch] { r->svc->poll_step(*r, epoch); });
  if (step.timeout_s > 0) {
    // Cancellable handle, not fire-and-forget: long step timeouts (hours of
    // virtual time) would otherwise outlive the run and dominate the queue.
    run.timeout_handle = engine_->schedule_after(
        sim::Duration::from_seconds(step.timeout_s),
        [r, epoch] { r->svc->timeout_step(*r, epoch); });
  }
}

void FlowService::abandon_prestart(Run& run) {
  if (run.pre_handle.empty()) return;
  const ActionState& step = run.definition().steps[run.pre_step];
  // Let the held service work run to completion unobserved, like any
  // abandoned action — release frees the held resources.
  providers_[run.plan->provider_id(run.pre_step)]->release(run.pre_handle);
  if (telemetry_) {
    if (run.pre_attempt_span != 0) {
      telemetry_->tracer.close(run.pre_attempt_span, "attempt",
                               run.pre_dispatched, engine_->now(),
                               util::Json::object({
                                   {"provider", step.provider},
                                   {"outcome", "abandoned"},
                               }));
    }
    if (run.pre_step_span != 0) {
      telemetry_->tracer.close(run.pre_step_span, "step-abandoned",
                               run.pre_dispatched, engine_->now(),
                               util::Json::object({{"step", step.name}}));
    }
  }
  run.pre_handle.clear();
  run.pre_step_span = 0;
  run.pre_attempt_span = 0;
}

void FlowService::step_attempt_failed(Run& run, const std::string& error,
                                      double retry_delay_s) {
  if (run.info.state != RunState::Active) return;
  const ActionState& step = run.definition().steps[run.info.current_step];
  run.flush_polls();
  uint64_t epoch = ++run.epoch;  // abandon the failed attempt's events
  run.timeout_handle.cancel();

  if (telemetry_) active_step_span_ = run.step_span;
  if (telemetry_ && run.attempt_span != 0) {
    telemetry_->tracer.close(run.attempt_span, "attempt", run.attempt_started,
                             engine_->now(),
                             util::Json::object({
                                 {"provider", step.provider},
                                 {"outcome", "failed"},
                                 {"error", error},
                             }));
    run.attempt_span = 0;
  }

  if (run.retries_this_step >= step.max_retries) {
    fail_run(run, error);
    return;
  }
  ++run.retries_this_step;
  if (telemetry_) {
    telemetry_->metrics
        .counter("flow_retries_total",
                 "Step attempt re-dispatches after failure, by provider",
                 provider_labels(step.provider))
        .inc();
    telemetry_->tracer.event(run.step_span, "retry", engine_->now(),
                             util::Json::object({
                                 {"step", step.name},
                                 {"retry", run.retries_this_step},
                                 {"error", error},
                             }),
                             util::LogLevel::Warn);
  }
  logger().debug("%s: step %s attempt failed (%s), retry %d", run.id.c_str(),
                 step.name.c_str(), error.c_str(), run.retries_this_step);
  if (retry_delay_s <= 0) {
    dispatch_step(run);
    return;
  }
  Run* r = &run;
  engine_->post_after(
      sim::Duration::from_seconds(retry_delay_s), [r, epoch] {
        if (r->info.state != RunState::Active || r->epoch != epoch) return;
        r->svc->dispatch_step(*r);
      });
}

void FlowService::complete_step(Run& run, ActionPollResult poll) {
  const ActionState& step = run.definition().steps[run.info.current_step];
  run.flush_polls();
  ++run.epoch;  // invalidate any pending timeout for this attempt
  run.timeout_handle.cancel();
  if (telemetry_) active_step_span_ = run.step_span;
  breaker_for(run.cur_pid).record_success(engine_->now());
  StepTiming& timing = run.timing.steps[run.info.current_step];
  timing.service_started = poll.service_started;
  timing.service_completed = poll.service_completed;
  timing.discovered = engine_->now();
  std::vector<util::Json>& outputs = run.info.step_outputs;
  if (outputs.size() <= run.info.current_step) {
    outputs.resize(run.definition().steps.size());
  }
  outputs[run.info.current_step] = std::move(poll.output);
  if (telemetry_) {
    if (run.attempt_span != 0) {
      telemetry_->tracer.close(run.attempt_span, "attempt",
                               run.attempt_started, engine_->now(),
                               util::Json::object({
                                   {"provider", step.provider},
                                   {"outcome", "ok"},
                               }));
      run.attempt_span = 0;
    }
    close_step_span(run, "step");
    telemetry_->metrics
        .histogram("flow_step_active_seconds",
                   "Service-side active time per completed step",
                   {{"step", step.name}})
        .observe(timing.active_s());
    telemetry_->metrics
        .histogram("flow_step_overhead_seconds",
                   "Orchestration overhead (dispatch->discovery minus active) "
                   "per completed step",
                   {{"step", step.name}})
        .observe(std::max(
            0.0, (timing.discovered - timing.dispatched).seconds() -
                     timing.active_s()));
    telemetry_->metrics
        .histogram("flow_discovery_lag_seconds",
                   "Poll-discovery lag between service completion and the "
                   "orchestrator observing it")
        .observe(timing.discovery_lag_s());
    telemetry_->tracer.note(run.run_span, util::LogLevel::Info,
                            "step-complete", engine_->now(),
                            util::Json::object({
                                {"step", step.name},
                                {"active_s", timing.active_s()},
                                {"polls", timing.polls},
                            }));
  }

  run.info.current_step += 1;
  run.retries_this_step = 0;
  publish_status(run);
  if (run.info.current_step >= run.definition().steps.size()) {
    finish_run(run);
  } else {
    // Events mode advances inside the notification callback instead of
    // waiting for the next scheduler tick, so the inter-step hop shrinks.
    double hop = config_.completion_mode == CompletionMode::Events
                     ? config_.event_inter_step_latency_s
                     : config_.inter_step_latency_s;
    bool streamed_next =
        !run.pre_handle.empty() && run.pre_step == run.info.current_step;
    Run* r = &run;
    engine_->post_after(sim::Duration::from_seconds(jittered(hop)),
                        [r, streamed_next] {
                          if (streamed_next) {
                            r->svc->activate_prestarted(*r);
                          } else {
                            r->svc->dispatch_step(*r);
                          }
                        });
  }
}

util::Status FlowService::cancel(const RunId& id) {
  Run* run = runs_.find(id);
  if (!run) return util::Status::err("unknown run " + id, "not_found");
  RunState state = run->info.state;
  if (state == RunState::Succeeded || state == RunState::Failed) {
    return util::Status::err("run " + id + " already settled", "state");
  }
  // Poll/dispatch callbacks check info.state and bail once it leaves Active,
  // so flipping the state here is sufficient to quiesce the run.
  fail_run(*run, "cancelled by user");
  return util::Status::ok();
}

void FlowService::fail_run(Run& run, const std::string& error) {
  run.flush_polls();
  ++run.epoch;  // abandon any scheduled poll/timeout events
  run.timeout_handle.cancel();
  run.info.state = RunState::Failed;
  run.info.error = error;
  run.timing.finished = engine_->now();
  publish_status(run);
  active_count_.fetch_sub(1, std::memory_order_relaxed);
  abandon_prestart(run);
  // Close spans before the finished callback: campaign drivers rebuild the
  // run's timing from the span tree inside that callback.
  if (telemetry_) {
    // Error-level note marks the ring dump-worthy; flight.close() below
    // delivers the JSON dump to the recorder's sink.
    telemetry_->tracer.note(run.run_span, util::LogLevel::Error, "run-failed",
                            engine_->now(),
                            util::Json::object({
                                {"error", error},
                                {"total_s", run.timing.total_s()},
                            }));
    if (run.attempt_span != 0) {
      telemetry_->tracer.close(run.attempt_span, "attempt",
                               run.attempt_started, engine_->now(),
                               util::Json::object({
                                   {"outcome", "abandoned"},
                                   {"error", error},
                               }));
      run.attempt_span = 0;
    }
    close_step_span(run, "step-failed");
    close_run_span(run, "run-failed");
    telemetry_->metrics
        .counter("flow_runs_total", "Flow runs settled, by terminal state",
                 {{"state", "failed"}})
        .inc();
    telemetry_->metrics
        .gauge("flow_active_runs", "Flow runs submitted but not yet settled")
        .add(-1.0);
    telemetry_->flight.close(run.id, engine_->now());
  }
  logger().warn("%s failed: %s", run.id.c_str(), error.c_str());
  if (run.finished_cb) run.finished_cb(run.id, run.info);
}

void FlowService::finish_run(Run& run) {
  run.info.state = RunState::Succeeded;
  run.timing.finished = engine_->now();
  publish_status(run);
  active_count_.fetch_sub(1, std::memory_order_relaxed);
  logger().debug("%s succeeded: total %.1fs active %.1fs overhead %.1fs",
                 run.id.c_str(), run.timing.total_s(), run.timing.active_s(),
                 run.timing.overhead_s());
  if (telemetry_) {
    const bool slow = slow_run_threshold_s_ > 0 &&
                      run.timing.total_s() > slow_run_threshold_s_;
    if (slow) {
      telemetry_->tracer.note(run.run_span, util::LogLevel::Warn, "slo-slow",
                              engine_->now(),
                              util::Json::object({
                                  {"total_s", run.timing.total_s()},
                                  {"objective_s", slow_run_threshold_s_},
                              }));
    }
    telemetry_->tracer.note(run.run_span, util::LogLevel::Info,
                            "run-succeeded", engine_->now(),
                            util::Json::object({
                                {"total_s", run.timing.total_s()},
                                {"overhead_s", run.timing.overhead_s()},
                            }));
    close_run_span(run, "run");
    telemetry_->metrics
        .counter("flow_runs_total", "Flow runs settled, by terminal state",
                 {{"state", "succeeded"}})
        .inc();
    telemetry_->metrics
        .histogram("flow_run_total_seconds",
                   "End-to-end wall time per succeeded run")
        .observe(run.timing.total_s());
    telemetry_->metrics
        .histogram("flow_run_overhead_seconds",
                   "Total orchestration overhead per succeeded run")
        .observe(run.timing.overhead_s());
    if (slow) {
      telemetry_->metrics
          .counter("flow_runs_slow_total",
                   "Succeeded runs slower than the SLO completion-latency "
                   "objective")
          .inc();
    }
    telemetry_->metrics
        .gauge("flow_active_runs", "Flow runs submitted but not yet settled")
        .add(-1.0);
    telemetry_->flight.close(run.id, engine_->now());
  }
  if (run.finished_cb) run.finished_cb(run.id, run.info);
}

void FlowService::close_step_span(Run& run, const std::string& category) {
  if (!telemetry_ || run.step_span == 0) return;
  uint64_t span = run.step_span;
  run.step_span = 0;
  if (active_step_span_ == span) active_step_span_ = 0;
  if (run.info.current_step >= run.timing.steps.size()) return;
  const StepTiming& t = run.timing.steps[run.info.current_step];
  sim::SimTime end = category == "step" ? t.discovered : engine_->now();
  // Every StepTiming field rides as an integer-ns attribute so RunTiming can
  // be reconstructed exactly (bit-for-bit) from the span tree.
  telemetry_->tracer.close(span, category, t.dispatched, end,
                           util::Json::object({
                               {"active_s", t.active_s()},
                               {"lag_s", t.discovery_lag_s()},
                               {"polls", t.polls},
                               {"retries", t.retries},
                               {"timeouts", t.timeouts},
                               {"notifications", t.notifications},
                               {"streamed", t.streamed ? 1 : 0},
                               {"step", t.name},
                               {"dispatched_ns", t.dispatched.ns},
                               {"service_started_ns", t.service_started.ns},
                               {"service_completed_ns", t.service_completed.ns},
                               {"discovered_ns", t.discovered.ns},
                           }));
}

void FlowService::close_run_span(Run& run, const std::string& category) {
  if (!telemetry_ || run.run_span == 0) return;
  uint64_t span = run.run_span;
  run.run_span = 0;
  telemetry_->tracer.close(span, category, run.timing.submitted,
                           run.timing.finished,
                           util::Json::object({
                               {"active_s", run.timing.active_s()},
                               {"overhead_s", run.timing.overhead_s()},
                               {"label", run.info.label},
                               {"error", run.info.error},
                               {"submitted_ns", run.timing.submitted.ns},
                               {"finished_ns", run.timing.finished.ns},
                           }));
}

const RunInfo& FlowService::info(const RunId& id) const {
  static const RunInfo kMissing = [] {
    RunInfo r;
    r.state = RunState::Failed;
    r.error = "unknown run";
    return r;
  }();
  const Run* run = runs_.find(id);
  return run ? run->info : kMissing;
}

const RunTiming& FlowService::timing(const RunId& id) const {
  static const RunTiming kMissing;
  const Run* run = runs_.find(id);
  if (!run) return kMissing;
  // Fold the hot-block poll counter in so a mid-run snapshot is exact.
  const_cast<Run*>(run)->flush_polls();
  return run->timing;
}

RunStatus FlowService::status(const RunId& id) const {
  RunStatus out;
  const Run* run = runs_.find(id);
  if (!run) return out;
  RunStatusCell::Snapshot snap = run->cell.read();
  out.known = true;
  out.state = static_cast<RunState>(snap.state);
  out.current_step = snap.current_step;
  out.submitted = sim::SimTime{snap.submitted_ns};
  out.finished = sim::SimTime{snap.finished_ns};
  return out;
}

const RunStatusCell* FlowService::status_cell(const RunId& id) const {
  const Run* run = runs_.find(id);
  return run ? &run->cell : nullptr;
}

bool timing_from_spans(const sim::Trace& trace, const RunId& id,
                       RunTiming* out) {
  const sim::Span* run = trace.find("flow", "run", id);
  if (!run) run = trace.find("flow", "run-failed", id);
  if (!run || run->span_id == 0) return false;

  RunTiming t;
  t.submitted = sim::SimTime{run->attrs.at("submitted_ns").as_int()};
  t.finished = sim::SimTime{run->attrs.at("finished_ns").as_int()};
  // Step spans close in dispatch order (the orchestrator is sequential per
  // run), so recording order is step order.
  for (const sim::Span* child : trace.children_of(run->span_id)) {
    if (child->component != "flow") continue;
    if (child->category != "step" && child->category != "step-failed") continue;
    StepTiming s;
    s.name = child->attrs.at("step").as_string();
    s.dispatched = sim::SimTime{child->attrs.at("dispatched_ns").as_int()};
    s.service_started =
        sim::SimTime{child->attrs.at("service_started_ns").as_int()};
    s.service_completed =
        sim::SimTime{child->attrs.at("service_completed_ns").as_int()};
    s.discovered = sim::SimTime{child->attrs.at("discovered_ns").as_int()};
    s.polls = static_cast<int>(child->attrs.at("polls").as_int());
    s.retries = static_cast<int>(child->attrs.at("retries").as_int());
    s.timeouts = static_cast<int>(child->attrs.at("timeouts").as_int());
    s.notifications =
        static_cast<int>(child->attrs.at("notifications").as_int());
    s.streamed = child->attrs.at("streamed").as_int() != 0;
    t.steps.push_back(std::move(s));
  }
  *out = std::move(t);
  return true;
}

void FlowService::on_finished(
    const RunId& id, std::function<void(const RunId&, const RunInfo&)> cb) {
  Run* run = runs_.find(id);
  if (!run) return;
  if (run->info.state == RunState::Succeeded ||
      run->info.state == RunState::Failed) {
    cb(id, run->info);
  } else {
    run->finished_cb = std::move(cb);
  }
}

size_t FlowService::active_runs() const {
  return active_count_.load(std::memory_order_relaxed);
}

std::vector<RunId> FlowService::all_runs() const {
  return runs_.ids_in_order();
}

CircuitBreaker& FlowService::breaker_for(uint16_t pid) {
  std::unique_ptr<CircuitBreaker>& slot = breakers_[pid];
  if (!slot) {
    slot = std::make_unique<CircuitBreaker>(config_.breaker);
    // Observer installed unconditionally; the handler no-ops when telemetry
    // is absent, so install order vs set_telemetry() does not matter.
    slot->set_observer([this, pid](CircuitBreaker::State from,
                                   CircuitBreaker::State to, sim::SimTime at) {
      on_breaker_transition(provider_names_[pid], from, to, at);
    });
  }
  return *slot;
}

std::vector<BreakerSnapshot> FlowService::breaker_snapshots() const {
  std::vector<BreakerSnapshot> out;
  out.reserve(breakers_.size());
  for (size_t pid = 0; pid < breakers_.size(); ++pid) {
    if (!breakers_[pid]) continue;
    BreakerSnapshot snap;
    snap.site = site_;
    snap.provider = provider_names_[pid];
    snap.trips = breakers_[pid]->trips();
    snap.consecutive_failures = breakers_[pid]->consecutive_failures();
    snap.state =
        CircuitBreaker::state_name(breakers_[pid]->state(engine_->now()));
    out.push_back(std::move(snap));
  }
  // Registration order is arbitrary; reports expect the old map's
  // name-sorted order.
  std::sort(out.begin(), out.end(),
            [](const BreakerSnapshot& a, const BreakerSnapshot& b) {
              return a.provider < b.provider;
            });
  return out;
}

double FlowService::breaker_retry_after_s(const std::string& provider) const {
  auto it = provider_ids_.find(provider);
  if (it == provider_ids_.end() || !breakers_[it->second]) return 0.0;
  return breakers_[it->second]->peek_retry_after_s(engine_->now());
}

}  // namespace pico::flow
