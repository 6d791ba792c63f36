// Event-driven completion + cut-through streaming tests: adaptive backoff
// (reset-on-status-change, 10-minute cap boundary), provider completion
// subscriptions, polling fallback when the event channel is missing or
// notifications are lost, held pre-dispatch overlap accounting, and the
// `streaming` flag in definition documents.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "flow/backoff.hpp"
#include "flow/definition_io.hpp"
#include "flow/service.hpp"

namespace pico::flow {
namespace {

using util::Json;

/// Scriptable provider with optional push channels: every action succeeds
/// after params "duration_s". When enabled, completion notifications fire at
/// the action's settle time, byte-progress callbacks fire at the quartiles,
/// and start_held() accepts held starts (the work proceeds while held —
/// release only acknowledges adoption, like a warmed compute environment).
class EventfulProvider final : public ActionProvider {
 public:
  EventfulProvider(sim::Engine* engine, bool events, bool progress, bool held,
                   std::string name = "eventful")
      : engine_(engine),
        events_(events),
        progress_(progress),
        held_(held),
        name_(std::move(name)) {}

  std::string name() const override { return name_; }

  util::Result<ActionHandle> start(const Json& params,
                                   const auth::Token&) override {
    return begin(params);
  }

  ActionPollResult poll(const ActionHandle& handle) override {
    ++polls_;
    ActionPollResult out;
    const Action& a = actions_.at(handle);
    double elapsed = (engine_->now() - a.started).seconds();
    if (elapsed < a.duration) {
      out.status = ActionStatus::Active;
      if (a.emit_progress) {
        out.progress_token =
            "p" + std::to_string(static_cast<int>(10 * elapsed / a.duration));
      }
      return out;
    }
    out.status = ActionStatus::Succeeded;
    out.service_started = a.started;
    out.service_completed = a.started + sim::Duration::from_seconds(a.duration);
    out.output = Json::object({{"echo", a.tag}});
    return out;
  }

  bool subscribe(const ActionHandle& handle,
                 std::function<void()> callback) override {
    if (!events_) return false;
    ++subscriptions_;
    const Action& a = actions_.at(handle);
    sim::SimTime done = a.started + sim::Duration::from_seconds(a.duration);
    if (done <= engine_->now()) {
      engine_->schedule_after(sim::Duration::zero(), std::move(callback));
    } else {
      engine_->schedule_at(done, std::move(callback));
    }
    return true;
  }

  bool subscribe_progress(const ActionHandle& handle,
                          std::function<void(int64_t)> callback) override {
    if (!progress_) return false;
    const Action& a = actions_.at(handle);
    for (int q = 1; q <= 3; ++q) {
      sim::SimTime at =
          a.started + sim::Duration::from_seconds(a.duration * q / 4.0);
      if (at <= engine_->now()) continue;
      int64_t bytes = 250 * q;
      engine_->schedule_at(at, [callback, bytes] { callback(bytes); });
    }
    return true;
  }

  bool supports_held_start() const override { return held_; }

  util::Result<ActionHandle> start_held(const Json& params,
                                        const auth::Token&) override {
    if (refuse_held_) {
      return util::Result<ActionHandle>::err("no warm node", "busy");
    }
    ++held_starts_;
    return begin(params);
  }

  void release(const ActionHandle&) override {
    ++releases_;
    if (on_release) on_release();
  }

  /// Test hook: runs when a held action is adopted.
  std::function<void()> on_release;

  void set_refuse_held(bool refuse) { refuse_held_ = refuse; }
  int polls() const { return polls_; }
  int subscriptions() const { return subscriptions_; }
  int held_starts() const { return held_starts_; }
  int releases() const { return releases_; }

 private:
  struct Action {
    sim::SimTime started;
    double duration = 0;
    bool emit_progress = false;
    std::string tag;
  };

  util::Result<ActionHandle> begin(const Json& params) {
    std::string handle = "evt-" + std::to_string(next_++);
    Action a;
    a.started = engine_->now();
    a.duration = params.at("duration_s").as_double(1.0);
    a.emit_progress = params.at("emit_progress").as_bool(false);
    a.tag = params.at("tag").as_string("");
    actions_[handle] = a;
    return util::Result<ActionHandle>::ok(handle);
  }

  sim::Engine* engine_;
  bool events_, progress_, held_;
  std::string name_;
  bool refuse_held_ = false;
  std::map<ActionHandle, Action> actions_;
  uint64_t next_ = 1;
  int polls_ = 0;
  int subscriptions_ = 0;
  int held_starts_ = 0;
  int releases_ = 0;
};

struct EventsFixture : ::testing::Test {
  sim::Engine engine;
  auth::AuthService auth;
  std::unique_ptr<EventfulProvider> provider;
  std::unique_ptr<FlowService> service;
  auth::Token token;

  void setup(FlowServiceConfig cfg, bool events = true, bool progress = true,
             bool held = true) {
    cfg.latency_jitter_frac = 0.0;  // deterministic latencies
    service = std::make_unique<FlowService>(&engine, &auth, cfg, 3);
    provider = std::make_unique<EventfulProvider>(&engine, events, progress,
                                                  held);
    service->register_provider(provider.get());
    token = auth.issue("user@anl.gov", {"flows"});
  }

  static ActionState step(const std::string& name, double duration,
                          bool streaming = false, bool emit_progress = false) {
    ActionState s;
    s.name = name;
    s.provider = "eventful";
    s.streaming = streaming;
    s.params = Json::object({
        {"duration_s", duration},
        {"tag", name},
        {"emit_progress", emit_progress},
    });
    return s;
  }

  RunId run_flow(const FlowDefinition& def) {
    auto run = service->start(def, Json(), token);
    EXPECT_TRUE(run);
    engine.run();
    return run.value();
  }
};

// ------------------------------------------------------------ backoff unit --

TEST(Backoff, PaperPolicyCapsExactlyAtTenMinutes) {
  util::Rng rng(7);
  auto paper = BackoffPolicy::paper_default();
  // 1 s * 2^9 = 512 s is the last uncapped rung; 2^10 = 1024 s hits the cap.
  EXPECT_DOUBLE_EQ(paper.interval_s(9, rng), 512.0);
  EXPECT_DOUBLE_EQ(paper.interval_s(10, rng), 600.0);
  EXPECT_DOUBLE_EQ(paper.interval_s(11, rng), 600.0);
}

TEST(Backoff, AdaptivePolicyIsJitteredAndTightlyCapped) {
  util::Rng rng(7);
  auto adaptive = BackoffPolicy::adaptive();
  for (int attempt = 0; attempt < 40; ++attempt) {
    double v = adaptive.interval_s(attempt, rng);
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 30.0 * 1.25 + 1e-9) << "attempt " << attempt;
  }
  // Custom cap honoured.
  auto tight = BackoffPolicy::adaptive(5.0);
  for (int i = 0; i < 40; ++i) {
    EXPECT_LE(tight.interval_s(20, rng), 5.0 * 1.25 + 1e-9);
  }
  // The jitter actually spreads: not every draw at the same rung is equal.
  double a = adaptive.interval_s(10, rng);
  double b = adaptive.interval_s(10, rng);
  double c = adaptive.interval_s(10, rng);
  EXPECT_TRUE(a != b || b != c);
}

TEST(Backoff, DeterministicJitterIsPureFunctionOfSaltAndAttempt) {
  auto adaptive = BackoffPolicy::adaptive();
  // Same (salt, attempt) -> identical interval, regardless of how many other
  // calls happened in between (no shared RNG stream to perturb).
  double first = adaptive.interval_s(3, uint64_t{0xABCD});
  for (int noise = 0; noise < 17; ++noise) {
    adaptive.interval_s(noise, uint64_t{noise * 31u});
  }
  EXPECT_DOUBLE_EQ(adaptive.interval_s(3, uint64_t{0xABCD}), first);

  // Distinct salts (different flows) spread across the jitter band instead
  // of thundering in lockstep.
  double lo = 1e18, hi = 0;
  for (uint64_t salt = 0; salt < 32; ++salt) {
    double v = adaptive.interval_s(3, salt);
    EXPECT_GE(v, 8.0 * 0.75 - 1e-9);  // rung 2^3 = 8 s, +/-25%
    EXPECT_LE(v, 8.0 * 1.25 + 1e-9);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi - lo, 0.5);

  // Non-jittered kinds ignore the salt entirely.
  auto paper = BackoffPolicy::paper_default();
  EXPECT_DOUBLE_EQ(paper.interval_s(10, uint64_t{1}),
                   paper.interval_s(10, uint64_t{2}));
}

// The reset-on-status-change behaviour at the cap boundary, end to end: a
// quiet 1030 s action rides the full exponential ladder — the poll after
// t+1023 waits the *capped* 600 s, not 1024 s — while a chatty action's
// token transitions keep restarting the ladder, bounding discovery lag.
TEST_F(EventsFixture, StatusChangeResetsLadderThatOtherwiseCapsAtTenMinutes) {
  FlowServiceConfig cfg;
  cfg.backoff = BackoffPolicy::paper_default();
  setup(cfg, /*events=*/false, /*progress=*/false, /*held=*/false);
  RunId quiet = run_flow({"quiet", {step("A", 1030)}});
  double quiet_lag = service->timing(quiet).steps[0].discovery_lag_s();
  int quiet_polls = service->timing(quiet).steps[0].polls;
  // Ladder polls at +1,3,7,...,1023 (attempt 9: 512 s), then the capped
  // 600 s rung discovers at +1623: lag ~593 s. Without the cap the next
  // rung would be 1024 s and the lag ~1017 s.
  EXPECT_GT(quiet_lag, 500.0);
  EXPECT_LT(quiet_lag, 700.0);
  EXPECT_EQ(quiet_polls, 11);

  setup(cfg, false, false, false);
  FlowDefinition chatty{"chatty",
                        {step("A", 1030, false, /*emit_progress=*/true)}};
  RunId id = run_flow(chatty);
  const StepTiming& t = service->timing(id).steps[0];
  // Every observed token transition restarts the ladder at 1 s, so the lag
  // never approaches the capped rung.
  EXPECT_LT(t.discovery_lag_s(), 300.0);
  EXPECT_GT(t.polls, quiet_polls);
}

// -------------------------------------------------------------- event mode --

TEST_F(EventsFixture, NotificationsReplacePollingDiscovery) {
  FlowServiceConfig cfg;
  cfg.completion_mode = CompletionMode::Events;
  setup(cfg);
  RunId id = run_flow({"evt", {step("A", 100)}});
  EXPECT_EQ(service->info(id).state, RunState::Succeeded);
  const StepTiming& t = service->timing(id).steps[0];
  EXPECT_EQ(t.notifications, 1);
  EXPECT_EQ(provider->subscriptions(), 1);
  // Discovered via the pushed completion (+0.1 s delivery + verdict poll),
  // not a backoff rung.
  EXPECT_LT(t.discovery_lag_s(), 1.0);
  EXPECT_GE(t.polls, 1);  // the verdict poll at minimum
}

TEST_F(EventsFixture, EventModeFallsBackToPollingWithoutEventChannel) {
  FlowServiceConfig cfg;
  cfg.completion_mode = CompletionMode::Events;
  setup(cfg, /*events=*/false, /*progress=*/false, /*held=*/false);
  RunId id = run_flow({"noevt", {step("A", 100)}});
  EXPECT_EQ(service->info(id).state, RunState::Succeeded);
  const StepTiming& t = service->timing(id).steps[0];
  EXPECT_EQ(t.notifications, 0);
  EXPECT_EQ(provider->subscriptions(), 0);
  EXPECT_GT(t.polls, 2);
  // The adaptive reconcile net (30 s cap, +/-25% jitter) bounds discovery.
  EXPECT_LT(t.discovery_lag_s(), 45.0);
}

TEST_F(EventsFixture, LostNotificationsSettleViaReconcilePoller) {
  FlowServiceConfig cfg;
  cfg.completion_mode = CompletionMode::Events;
  setup(cfg);
  service->set_notification_loss_prob(1.0);
  RunId id = run_flow({"lost", {step("A", 100), step("B", 50)}});
  EXPECT_EQ(service->info(id).state, RunState::Succeeded);
  for (const StepTiming& t : service->timing(id).steps) {
    EXPECT_EQ(t.notifications, 0);  // every delivery was dropped
    EXPECT_LT(t.discovery_lag_s(), 60.0);
    EXPECT_GT(t.polls, 0);
  }
  EXPECT_EQ(provider->subscriptions(), 2);  // the channel was live, not absent
}

// --------------------------------------------------------------- streaming --

TEST_F(EventsFixture, StreamingPreDispatchOverlapsAdjacentSteps) {
  FlowServiceConfig cfg;
  cfg.completion_mode = CompletionMode::Events;
  setup(cfg);
  FlowDefinition def{"stream",
                     {step("A", 20, false, /*emit_progress=*/true),
                      step("B", 10, /*streaming=*/true)}};
  RunId id = run_flow(def);
  EXPECT_EQ(service->info(id).state, RunState::Succeeded);
  const RunTiming& timing = service->timing(id);
  ASSERT_EQ(timing.steps.size(), 2u);
  EXPECT_FALSE(timing.steps[0].streamed);
  EXPECT_TRUE(timing.steps[1].streamed);
  EXPECT_EQ(provider->held_starts(), 1);
  EXPECT_EQ(provider->releases(), 1);
  // B was dispatched at A's first progress quartile (t+5 of a 20 s step),
  // well before A's service interval closed.
  EXPECT_LT(timing.steps[1].dispatched.ns, timing.steps[0].service_completed.ns);
  // B's whole 10 s active interval sat inside A's: the union is 10 s smaller
  // than the sum, and overlap says exactly that.
  EXPECT_NEAR(timing.overlap_s(), 10.0, 1e-9);
  EXPECT_LT(timing.active_union_s(), timing.active_s());
  EXPECT_GE(timing.total_s(), timing.active_union_s());
}

// The pre-dispatched step runs on a different provider than the step it
// overlaps: once activated, it must be polled (and credited to the breaker)
// through its own provider, never through the one that served the previous
// step.
TEST_F(EventsFixture, StreamingPreDispatchPollsTheNextStepsProvider) {
  FlowServiceConfig cfg;
  cfg.completion_mode = CompletionMode::Events;
  setup(cfg);
  EventfulProvider second(&engine, true, true, true, "eventful-b");
  service->register_provider(&second);
  int a_polls_at_activation = -1;
  second.on_release = [&] { a_polls_at_activation = provider->polls(); };
  ActionState b = step("B", 10, /*streaming=*/true);
  b.provider = "eventful-b";
  RunId id = run_flow({"stream-2p", {step("A", 20, false, true), b}});
  EXPECT_EQ(service->info(id).state, RunState::Succeeded);
  const RunTiming& timing = service->timing(id);
  ASSERT_EQ(timing.steps.size(), 2u);
  EXPECT_TRUE(timing.steps[1].streamed);
  EXPECT_EQ(second.held_starts(), 1);
  EXPECT_EQ(second.releases(), 1);
  EXPECT_NEAR(timing.overlap_s(), 10.0, 1e-9);
  EXPECT_GT(second.polls(), 0);  // B's provider served B's polls
  EXPECT_EQ(provider->polls(), a_polls_at_activation);
}

TEST_F(EventsFixture, StreamingFallsBackSerializedWithoutHeldSupport) {
  FlowServiceConfig cfg;
  cfg.completion_mode = CompletionMode::Events;
  setup(cfg, /*events=*/true, /*progress=*/true, /*held=*/false);
  FlowDefinition def{"nostream",
                     {step("A", 20, false, true), step("B", 10, true)}};
  RunId id = run_flow(def);
  EXPECT_EQ(service->info(id).state, RunState::Succeeded);
  const RunTiming& timing = service->timing(id);
  EXPECT_FALSE(timing.steps[1].streamed);
  EXPECT_EQ(provider->held_starts(), 0);
  EXPECT_DOUBLE_EQ(timing.overlap_s(), 0.0);
  EXPECT_DOUBLE_EQ(timing.active_union_s(), timing.active_s());
  // Serialized: B dispatched only after A's completion was discovered.
  EXPECT_GE(timing.steps[1].dispatched.ns, timing.steps[0].discovered.ns);
}

TEST_F(EventsFixture, RefusedHeldStartFallsBackSerialized) {
  FlowServiceConfig cfg;
  cfg.completion_mode = CompletionMode::Events;
  setup(cfg);
  provider->set_refuse_held(true);
  FlowDefinition def{"refused",
                     {step("A", 20, false, true), step("B", 10, true)}};
  RunId id = run_flow(def);
  EXPECT_EQ(service->info(id).state, RunState::Succeeded);
  const RunTiming& timing = service->timing(id);
  EXPECT_FALSE(timing.steps[1].streamed);
  EXPECT_DOUBLE_EQ(timing.overlap_s(), 0.0);
  EXPECT_EQ(provider->held_starts(), 0);
  EXPECT_EQ(provider->releases(), 0);  // nothing was ever held
}

// ------------------------------------------------------------ definition io --

TEST(DefinitionIoStreaming, StreamingFlagRoundTrips) {
  FlowDefinition def;
  def.name = "stream-def";
  ActionState a;
  a.name = "Transfer";
  a.provider = "transfer";
  a.params = Json::object({{"x", 1.0}});
  ActionState b = a;
  b.name = "Analyze";
  b.provider = "compute";
  b.streaming = true;
  def.steps = {a, b};

  Json doc = definition_to_json(def);
  auto parsed = definition_from_json(doc);
  ASSERT_TRUE(parsed);
  ASSERT_EQ(parsed.value().steps.size(), 2u);
  EXPECT_FALSE(parsed.value().steps[0].streaming);
  EXPECT_TRUE(parsed.value().steps[1].streaming);
  // Serialized form only carries the flag where it is set.
  EXPECT_FALSE(doc.at("steps")[0].contains("streaming"));
  EXPECT_TRUE(doc.at("steps")[1].contains("streaming"));
}

TEST(DefinitionIoStreaming, FirstStepCannotStream) {
  FlowDefinition def;
  def.name = "bad";
  ActionState a;
  a.name = "Transfer";
  a.provider = "transfer";
  a.params = Json::object();
  a.streaming = true;
  def.steps = {a};
  auto parsed = definition_from_json(definition_to_json(def));
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error().message.find("cannot stream"), std::string::npos);
}

}  // namespace
}  // namespace pico::flow
