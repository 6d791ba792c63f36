// Flow engine tests with a scriptable fake provider: serial execution,
// parameter templating, polling backoff behaviour (including the paper's
// overhead accounting), retries, failures, progress-token resets.
#include <gtest/gtest.h>

#include <map>

#include "flow/backoff.hpp"
#include "flow/service.hpp"

namespace pico::flow {
namespace {

using util::Json;

/// Scriptable provider: each started action succeeds after a fixed virtual
/// duration (from params "duration_s"), optionally failing "fail_times"
/// first. Emits progress tokens per params.
class FakeProvider final : public ActionProvider {
 public:
  explicit FakeProvider(sim::Engine* engine) : engine_(engine) {}

  std::string name() const override { return "fake"; }

  util::Result<ActionHandle> start(const Json& params,
                                   const auth::Token&) override {
    start_attempts_ += 1;
    if (params.at("refuse_start").as_bool(false)) {
      return util::Result<ActionHandle>::err("refused", "test");
    }
    int rkey = static_cast<int>(params.at("refuse_key").as_int(-1));
    if (rkey >= 0 && refuse_budget_.count(rkey) && refuse_budget_[rkey] > 0) {
      refuse_budget_[rkey] -= 1;
      return util::Result<ActionHandle>::err("refused", "test");
    }
    std::string handle = "act-" + std::to_string(next_++);
    Action action;
    action.started = engine_->now();
    action.duration = params.at("duration_s").as_double(1.0);
    action.params = params;
    int key = static_cast<int>(params.at("fail_key").as_int(-1));
    if (key >= 0 && fail_budget_.count(key) && fail_budget_[key] > 0) {
      fail_budget_[key] -= 1;
      action.fail = true;
    }
    int skey = static_cast<int>(params.at("slow_key").as_int(-1));
    if (skey >= 0 && slow_budget_.count(skey) && slow_budget_[skey].times > 0) {
      slow_budget_[skey].times -= 1;
      action.duration = slow_budget_[skey].duration_s;
    }
    actions_[handle] = action;
    starts_ += 1;
    return util::Result<ActionHandle>::ok(handle);
  }

  ActionPollResult poll(const ActionHandle& handle) override {
    polls_ += 1;
    ActionPollResult out;
    auto it = actions_.find(handle);
    if (it == actions_.end()) {
      out.status = ActionStatus::Failed;
      out.error = "unknown handle";
      return out;
    }
    const Action& a = it->second;
    double elapsed = (engine_->now() - a.started).seconds();
    if (elapsed < a.duration) {
      out.status = ActionStatus::Active;
      if (a.params.at("emit_progress").as_bool(false)) {
        // Token changes at 10% steps of the duration.
        out.progress_token = "p" + std::to_string(
            static_cast<int>(10 * elapsed / a.duration));
      }
      return out;
    }
    if (a.fail) {
      out.status = ActionStatus::Failed;
      out.error = "scripted failure";
      return out;
    }
    out.status = ActionStatus::Succeeded;
    out.service_started = a.started;
    out.service_completed =
        a.started + sim::Duration::from_seconds(a.duration);
    out.output = Json::object({{"echo", a.params.at("tag")}});
    return out;
  }

  void set_fail_budget(int key, int times) { fail_budget_[key] = times; }
  /// Refuse the next `times` starts for actions carrying this "refuse_key".
  void set_refuse_budget(int key, int times) { refuse_budget_[key] = times; }
  /// Make the next `times` starts for this "slow_key" run `duration_s`
  /// instead of the scripted duration (to exercise per-step timeouts).
  void set_slow_budget(int key, int times, double duration_s) {
    slow_budget_[key] = SlowBudget{times, duration_s};
  }
  int starts() const { return starts_; }
  int start_attempts() const { return start_attempts_; }
  int polls() const { return polls_; }

 private:
  struct Action {
    sim::SimTime started;
    double duration = 0;
    bool fail = false;
    Json params;
  };
  struct SlowBudget {
    int times = 0;
    double duration_s = 0;
  };
  sim::Engine* engine_;
  std::map<ActionHandle, Action> actions_;
  std::map<int, int> fail_budget_;
  std::map<int, int> refuse_budget_;
  std::map<int, SlowBudget> slow_budget_;
  uint64_t next_ = 1;
  int starts_ = 0;        ///< successful starts
  int start_attempts_ = 0;///< all start calls, including refusals
  int polls_ = 0;
};

struct FlowFixture : ::testing::Test {
  sim::Engine engine;
  auth::AuthService auth;
  std::unique_ptr<FakeProvider> provider;
  std::unique_ptr<FlowService> service;
  auth::Token token;

  void setup(FlowServiceConfig cfg = {}) {
    // Deterministic latencies for timing assertions.
    cfg.latency_jitter_frac = 0.0;
    service = std::make_unique<FlowService>(&engine, &auth, cfg, 3);
    provider = std::make_unique<FakeProvider>(&engine);
    service->register_provider(provider.get());
    token = auth.issue("user@anl.gov", {"flows"});
  }

  static ActionState step(const std::string& name, double duration,
                          Json extra = Json::object()) {
    ActionState s;
    s.name = name;
    s.provider = "fake";
    Json params = Json::object({
        {"duration_s", duration},
        {"tag", name},
        {"fail_key", -1},
        {"emit_progress", false},
        {"refuse_start", false},
    });
    for (const auto& [k, v] : extra.as_object()) params[k] = v;
    s.params = params;
    return s;
  }
};

TEST_F(FlowFixture, RequiresFlowScope) {
  setup();
  FlowDefinition def{"f", {step("A", 1)}};
  EXPECT_FALSE(service->start(def, Json(), "bad"));
  auth::Token wrong = auth.issue("u", {"transfer"});
  EXPECT_FALSE(service->start(def, Json(), wrong));
  EXPECT_TRUE(service->start(def, Json(), token));
}

TEST_F(FlowFixture, RejectsEmptyAndUnknownProvider) {
  setup();
  EXPECT_FALSE(service->start(FlowDefinition{"empty", {}}, Json(), token));
  ActionState bad;
  bad.name = "X";
  bad.provider = "nope";
  EXPECT_FALSE(
      service->start(FlowDefinition{"f", {bad}}, Json(), token));
}

TEST_F(FlowFixture, SerialStepsAllRunInOrder) {
  setup();
  FlowDefinition def{"three", {step("A", 1), step("B", 2), step("C", 1)}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  const RunInfo& info = service->info(run.value());
  EXPECT_EQ(info.state, RunState::Succeeded);
  const RunTiming& timing = service->timing(run.value());
  ASSERT_EQ(timing.steps.size(), 3u);
  EXPECT_EQ(timing.steps[0].name, "A");
  EXPECT_EQ(timing.steps[2].name, "C");
  // Serial: B dispatches after A's discovery.
  EXPECT_GE(timing.steps[1].dispatched.ns, timing.steps[0].discovered.ns);
  EXPECT_NEAR(timing.active_s(), 4.0, 1e-6);
  EXPECT_GT(timing.overhead_s(), 0.0);
  EXPECT_NEAR(timing.total_s(), timing.active_s() + timing.overhead_s(), 1e-9);
}

TEST_F(FlowFixture, StepOutputsFeedLaterParams) {
  setup();
  FlowDefinition def{"chained", {step("A", 0.5)}};
  ActionState b = step("B", 0.5);
  b.params["tag"] = "$.steps.A.echo";  // templating from step A's output
  def.steps.push_back(b);
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  const RunInfo& info = service->info(run.value());
  EXPECT_EQ(info.state, RunState::Succeeded);
  // B echoed A's echo: "A".
  EXPECT_EQ(info.step_outputs.at(1).at("echo").as_string(), "A");
}

TEST_F(FlowFixture, InputTemplating) {
  setup();
  FlowDefinition def{"in", {step("A", 0.1)}};
  def.steps[0].params["tag"] = "$.input.nested.value";
  auto run = service->start(
      def, Json::object({{"nested", Json::object({{"value", "hello"}})}}),
      token, "labelled");
  ASSERT_TRUE(run);
  engine.run();
  const RunInfo& info = service->info(run.value());
  EXPECT_EQ(info.step_outputs.at(0).at("echo").as_string(), "hello");
  EXPECT_EQ(info.label, "labelled");
}

TEST(ResolveParams, HandlesAllShapes) {
  Json input = Json::object({{"a", 1}, {"b", Json::object({{"c", "x"}})}});
  std::map<std::string, Json> steps;
  steps["S"] = Json::object({{"out", 42}});

  EXPECT_EQ(FlowService::resolve_params(Json("$.input"), input, steps), input);
  EXPECT_EQ(FlowService::resolve_params(Json("$.input.b.c"), input, steps)
                .as_string(),
            "x");
  EXPECT_EQ(FlowService::resolve_params(Json("$.steps.S.out"), input, steps)
                .as_int(),
            42);
  EXPECT_EQ(FlowService::resolve_params(Json("$.steps.S"), input, steps),
            steps["S"]);
  // Unknown references resolve to null rather than erroring.
  EXPECT_TRUE(FlowService::resolve_params(Json("$.steps.Z.q"), input, steps)
                  .is_null());
  // Non-reference strings and scalars pass through.
  EXPECT_EQ(FlowService::resolve_params(Json("plain"), input, steps)
                .as_string(),
            "plain");
  EXPECT_EQ(FlowService::resolve_params(Json(7), input, steps).as_int(), 7);
  // Nested containers resolve recursively.
  Json nested = Json::object(
      {{"k", Json::array({Json("$.input.a"), Json("$.steps.S.out")})}});
  Json resolved = FlowService::resolve_params(nested, input, steps);
  EXPECT_EQ(resolved.at("k")[0].as_int(), 1);
  EXPECT_EQ(resolved.at("k")[1].as_int(), 42);
}

/// Reference model of params templating: resolves from scratch against a
/// name-keyed map of completed outputs, the way dispatch worked before plans.
Json resolve_from_scratch(const Json& params, const Json& input,
                          const std::map<std::string, Json>& steps) {
  switch (params.type()) {
    case Json::Type::String: {
      const std::string& s = params.as_string();
      if (s == "$.input") return input;
      if (s.rfind("$.input.", 0) == 0) return input.at_path(s.substr(8));
      if (s.rfind("$.steps.", 0) == 0) {
        std::string rest = s.substr(8);
        size_t dot = rest.find('.');
        auto it = steps.find(rest.substr(0, dot));
        if (it == steps.end()) return Json();
        if (dot == std::string::npos) return it->second;
        return it->second.at_path(rest.substr(dot + 1));
      }
      return params;
    }
    case Json::Type::Array: {
      Json out = Json::array();
      for (const auto& v : params.as_array()) {
        out.push_back(resolve_from_scratch(v, input, steps));
      }
      return out;
    }
    case Json::Type::Object: {
      Json out = Json::object();
      for (const auto& [k, v] : params.as_object()) {
        out[k] = resolve_from_scratch(v, input, steps);
      }
      return out;
    }
    default:
      return params;
  }
}

/// Records the serialized params of every start; each action succeeds at
/// its first poll with output {"out": {"v": <start index>}}, except that
/// the first start carrying "fail_once" fails.
class RecordingProvider final : public ActionProvider {
 public:
  std::string name() const override { return "rec"; }
  util::Result<ActionHandle> start(const Json& params,
                                   const auth::Token&) override {
    seen.push_back(params.dump());
    bool fail = params.at("fail_once").as_bool(false) && !failed_;
    failed_ = failed_ || fail;
    fails.push_back(fail);
    return util::Result<ActionHandle>::ok(std::to_string(seen.size() - 1));
  }
  ActionPollResult poll(const ActionHandle& handle) override {
    ActionPollResult out;
    size_t i = std::stoul(handle);
    if (fails[i]) {
      out.status = ActionStatus::Failed;
      out.error = "scripted";
      return out;
    }
    out.status = ActionStatus::Succeeded;
    out.output = Json::object(
        {{"out", Json::object({{"v", static_cast<int64_t>(i)}})}});
    return out;
  }
  std::vector<std::string> seen;
  std::vector<bool> fails;

 private:
  bool failed_ = false;
};

TEST(DispatchPlan, ProviderSeesParamsByteIdenticalToFreshResolution) {
  auto params = [](const char* text) { return Json::parse(text).value(); };
  auto state = [](std::string name, Json p) {
    ActionState s;
    s.name = std::move(name);
    s.provider = "rec";
    s.params = std::move(p);
    s.max_retries = 1;
    return s;
  };
  auto def = std::make_shared<const FlowDefinition>(FlowDefinition{
      "shapes",
      {
          state("A", params(R"({"whole": "$.input", "deep": "$.input.b.c",
                   "missing": "$.input.nope.x", "lit": "plain", "n": 7,
                   "arr": ["$.input.a", 3, {"k": "$.input.b"}],
                   "empty_key": "$.input.",
                   "flow_attempt_epoch": "$.input.a"})")),
          state("B", params(R"({"prev": "$.steps.A", "v": "$.steps.A.out.v",
                   "future": "$.steps.C.out", "unknown": "$.steps.Z",
                   "fail_once": true})")),
          state("A", params(R"({"dup": "$.steps.A.out.v"})")),
          state("C", params(R"("$.input")")),
          state("D", params(R"([1, "$.input.a"])")),
          state("E", params(R"({"dup": "$.steps.A.out", "c": "$.steps.C"})")),
      }});
  sim::Engine engine;
  auth::AuthService auth;
  FlowService service(&engine, &auth, {}, 11);
  RecordingProvider provider;
  service.register_provider(&provider);
  auth::Token token = auth.issue("u", {"flows"});
  const Json input[2] = {
      params(R"({"a": 1, "b": {"c": "x"}, "": 5})"),
      params(R"({"a": [2, 3], "b": {"c": {"deep": true}}, "": "e"})"),
  };
  // Two runs interleave on the shared plan's templates.
  for (const Json& in : input) ASSERT_TRUE(service.start(def, in, token));
  engine.run();

  // Replay each run's dispatches against the reference: step k sees the
  // outputs of the steps completed before it, by name.
  std::map<std::string, Json> done[2];
  size_t next_step[2] = {0, 0};
  ASSERT_EQ(provider.seen.size(), 2 * def->steps.size() + 1);  // one retry
  for (size_t i = 0; i < provider.seen.size(); ++i) {
    Json got = Json::parse(provider.seen[i]).value();
    // Runs alternate by start order; identify by the resolved input.
    int r = -1;
    for (int k = 0; k < 2; ++k) {
      if (next_step[k] == def->steps.size()) continue;  // run k finished
      Json expect = resolve_from_scratch(def->steps[next_step[k]].params,
                                         input[k], done[k]);
      expect["flow_attempt_epoch"] = got.at("flow_attempt_epoch");
      if (expect.dump() == provider.seen[i]) r = k;
    }
    ASSERT_GE(r, 0) << "no run's fresh resolution matches " << provider.seen[i];
    if (provider.fails[i]) continue;  // re-dispatched with the same step
    done[r][def->steps[next_step[r]].name] = Json::object(
        {{"out", Json::object({{"v", static_cast<int64_t>(i)}})}});
    ++next_step[r];
  }
  EXPECT_EQ(next_step[0], def->steps.size());
  EXPECT_EQ(next_step[1], def->steps.size());
}

/// Starts a second run from inside its first start() call, by advancing
/// the engine past that run's own dispatch of the same step.
class ReentrantProvider final : public ActionProvider {
 public:
  explicit ReentrantProvider(sim::Engine* engine) : engine_(engine) {}
  std::string name() const override { return "reentrant"; }
  util::Result<ActionHandle> start(const Json& params,
                                   const auth::Token&) override {
    std::string before = params.dump();
    seen.push_back(before);
    if (seen.size() == 1) {
      engine_->run_until(engine_->now() + sim::Duration::from_seconds(60));
    }
    unchanged = unchanged && params.dump() == before;
    return util::Result<ActionHandle>::ok("h");
  }
  ActionPollResult poll(const ActionHandle&) override {
    ActionPollResult out;
    out.status = ActionStatus::Succeeded;
    return out;
  }
  std::vector<std::string> seen;
  bool unchanged = true;

 private:
  sim::Engine* engine_;
};

TEST(DispatchPlan, NestedDispatchOfTheSameStepLeavesOuterParamsAlone) {
  sim::Engine engine;
  auth::AuthService auth;
  FlowService service(&engine, &auth, {}, 5);
  ReentrantProvider provider(&engine);
  service.register_provider(&provider);
  auth::Token token = auth.issue("u", {"flows"});
  ActionState only;
  only.name = "Only";
  only.provider = "reentrant";
  only.params = Json::object({{"who", "$.input.who"}});
  auto def = std::make_shared<const FlowDefinition>(
      FlowDefinition{"nested", {only}});
  ASSERT_TRUE(service.start(def, Json::object({{"who", "outer"}}), token));
  ASSERT_TRUE(service.start(def, Json::object({{"who", "inner"}}), token));
  engine.run();
  ASSERT_EQ(provider.seen.size(), 2u);
  // The second run dispatched while the first one's start() was on the
  // stack holding its params.
  EXPECT_NE(provider.seen[0], provider.seen[1]);
  EXPECT_TRUE(provider.unchanged) << provider.seen[0];
  EXPECT_NE(provider.seen[0].find("outer"), std::string::npos);
  EXPECT_NE(provider.seen[1].find("inner"), std::string::npos);
}

TEST_F(FlowFixture, FailedStepFailsRunWithoutRetries) {
  setup();
  provider->set_fail_budget(1, 1);
  FlowDefinition def{"failing", {step("A", 0.5, Json::object({{"fail_key", 1}}))}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  const RunInfo& info = service->info(run.value());
  EXPECT_EQ(info.state, RunState::Failed);
  EXPECT_NE(info.error.find("scripted failure"), std::string::npos);
}

TEST_F(FlowFixture, RetriesRecoverFromTransientFailures) {
  setup();
  provider->set_fail_budget(2, 2);  // fail twice, then succeed
  ActionState s = step("A", 0.5, Json::object({{"fail_key", 2}}));
  s.max_retries = 3;
  FlowDefinition def{"retrying", {s}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  EXPECT_EQ(service->info(run.value()).state, RunState::Succeeded);
  EXPECT_EQ(provider->starts(), 3);  // two failures + one success
  EXPECT_EQ(service->timing(run.value()).steps[0].retries, 2);
}

TEST_F(FlowFixture, RetryBudgetExhaustedFailsRun) {
  setup();
  provider->set_fail_budget(3, 5);
  ActionState s = step("A", 0.2, Json::object({{"fail_key", 3}}));
  s.max_retries = 2;
  FlowDefinition def{"exhausted", {s}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  EXPECT_EQ(service->info(run.value()).state, RunState::Failed);
  EXPECT_EQ(provider->starts(), 3);  // initial + 2 retries
}

TEST_F(FlowFixture, StartRefusalFailsRun) {
  setup();
  FlowDefinition def{"refused",
                     {step("A", 1, Json::object({{"refuse_start", true}}))}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  EXPECT_EQ(service->info(run.value()).state, RunState::Failed);
}

TEST_F(FlowFixture, ExponentialBackoffReducesPollCount) {
  FlowServiceConfig exp_cfg;
  exp_cfg.backoff = BackoffPolicy::paper_default();
  setup(exp_cfg);
  FlowDefinition def{"long", {step("A", 100)}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  int exp_polls = provider->polls();

  FlowServiceConfig fixed_cfg;
  fixed_cfg.backoff = BackoffPolicy::fixed(1.0);
  setup(fixed_cfg);
  auto run2 = service->start(def, Json(), token);
  ASSERT_TRUE(run2);
  engine.run();
  int fixed_polls = provider->polls();

  EXPECT_LT(exp_polls, 10);
  EXPECT_GT(fixed_polls, 90);
}

TEST_F(FlowFixture, ExponentialBackoffInflatesDiscoveryLag) {
  FlowServiceConfig cfg;
  cfg.backoff = BackoffPolicy::paper_default();
  setup(cfg);
  // 40 s step: polls at 1,3,7,15,31,63 -> discovered at 63 -> lag ~23 s.
  FlowDefinition def{"lag", {step("A", 40)}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  double lag = service->timing(run.value()).steps[0].discovery_lag_s();
  EXPECT_GT(lag, 15.0);
  EXPECT_LT(lag, 30.0);
}

TEST_F(FlowFixture, ProgressTokensResetBackoff) {
  FlowServiceConfig cfg;
  cfg.backoff = BackoffPolicy::paper_default();
  setup(cfg);
  FlowDefinition def{"progress",
                     {step("A", 40, Json::object({{"emit_progress", true}}))}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  // With 10% progress updates, discovery lag stays small.
  double lag = service->timing(run.value()).steps[0].discovery_lag_s();
  EXPECT_LT(lag, 10.0);
}

TEST_F(FlowFixture, ProgressTokenResetsShowUpInPollCounts) {
  // Same step length under the same exponential policy: the run whose
  // service emits progress tokens polls strictly more often, because each
  // observed transition restarts the backoff ladder at the bottom rung.
  FlowServiceConfig cfg;
  cfg.backoff = BackoffPolicy::paper_default();
  setup(cfg);
  FlowDefinition quiet{"quiet", {step("A", 40)}};
  auto run = service->start(quiet, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  int quiet_polls = service->timing(run.value()).steps[0].polls;

  setup(cfg);
  FlowDefinition chatty{
      "chatty", {step("A", 40, Json::object({{"emit_progress", true}}))}};
  auto run2 = service->start(chatty, Json(), token);
  ASSERT_TRUE(run2);
  engine.run();
  int chatty_polls = service->timing(run2.value()).steps[0].polls;

  EXPECT_GT(chatty_polls, quiet_polls);
  EXPECT_LT(quiet_polls, 10);  // 1,3,7,15,31,63: the ladder alone discovers it
}

TEST_F(FlowFixture, StartRefusalRecoveredByRetry) {
  setup();
  provider->set_refuse_budget(8, 2);  // refuse twice, then accept
  ActionState s = step("A", 0.5, Json::object({{"refuse_key", 8}}));
  s.max_retries = 3;
  FlowDefinition def{"refuse-retry", {s}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  EXPECT_EQ(service->info(run.value()).state, RunState::Succeeded);
  EXPECT_EQ(provider->start_attempts(), 3);
  EXPECT_EQ(provider->starts(), 1);
  EXPECT_EQ(service->timing(run.value()).steps[0].retries, 2);
}

TEST_F(FlowFixture, StartRefusalExhaustsRetryBudget) {
  setup();
  provider->set_refuse_budget(9, 1000);  // never accepts
  ActionState s = step("A", 0.5, Json::object({{"refuse_key", 9}}));
  s.max_retries = 2;
  FlowDefinition def{"refuse-exhaust", {s}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  const RunInfo& info = service->info(run.value());
  EXPECT_EQ(info.state, RunState::Failed);
  EXPECT_NE(info.error.find("failed to start"), std::string::npos);
  EXPECT_EQ(provider->start_attempts(), 3);  // initial + 2 retries
  EXPECT_EQ(provider->starts(), 0);
}

TEST_F(FlowFixture, ConcurrentRunsProgressIndependently) {
  setup();
  FlowDefinition def{"conc", {step("A", 5), step("B", 5)}};
  std::vector<RunId> runs;
  for (int i = 0; i < 10; ++i) {
    auto run = service->start(def, Json(), token, "run" + std::to_string(i));
    ASSERT_TRUE(run);
    runs.push_back(run.value());
  }
  EXPECT_EQ(service->active_runs(), 10u);
  engine.run();
  EXPECT_EQ(service->active_runs(), 0u);
  for (const auto& id : runs) {
    EXPECT_EQ(service->info(id).state, RunState::Succeeded);
  }
  EXPECT_EQ(service->all_runs().size(), 10u);
}

TEST_F(FlowFixture, OnFinishedFiresOnceImmediateOrDeferred) {
  setup();
  FlowDefinition def{"cb", {step("A", 1)}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  int calls = 0;
  service->on_finished(run.value(),
                       [&](const RunId&, const RunInfo&) { ++calls; });
  engine.run();
  EXPECT_EQ(calls, 1);
  // Registering after completion fires immediately.
  service->on_finished(run.value(),
                       [&](const RunId&, const RunInfo&) { ++calls; });
  EXPECT_EQ(calls, 2);
}

TEST(Backoff, PolicyIntervalSequences) {
  util::Rng rng(1);
  auto paper = BackoffPolicy::paper_default();
  EXPECT_DOUBLE_EQ(paper.interval_s(0, rng), 1.0);
  EXPECT_DOUBLE_EQ(paper.interval_s(1, rng), 2.0);
  EXPECT_DOUBLE_EQ(paper.interval_s(5, rng), 32.0);
  EXPECT_DOUBLE_EQ(paper.interval_s(30, rng), 600.0);  // capped at 10 min

  auto fixed = BackoffPolicy::fixed(5.0);
  EXPECT_DOUBLE_EQ(fixed.interval_s(0, rng), 5.0);
  EXPECT_DOUBLE_EQ(fixed.interval_s(99, rng), 5.0);

  auto linear = BackoffPolicy::linear(1.0, 2.0, 9.0);
  EXPECT_DOUBLE_EQ(linear.interval_s(0, rng), 1.0);
  EXPECT_DOUBLE_EQ(linear.interval_s(3, rng), 7.0);
  EXPECT_DOUBLE_EQ(linear.interval_s(10, rng), 9.0);  // capped

  auto jittered = BackoffPolicy::jittered(1.0, 2.0, 600.0, 0.25);
  for (int i = 0; i < 20; ++i) {
    double v = jittered.interval_s(2, rng);
    EXPECT_GE(v, 4.0 * 0.75 - 1e-9);
    EXPECT_LE(v, 4.0 * 1.25 + 1e-9);
  }
  EXPECT_FALSE(paper.describe().empty());
  EXPECT_FALSE(jittered.describe().empty());
}

}  // namespace
}  // namespace pico::flow

// ---------------------------------------------------------- cancellation ----
namespace pico::flow {
namespace {

struct CancelFixture : FlowFixture {};

TEST_F(CancelFixture, CancelMidStepStopsRun) {
  setup();
  FlowDefinition def{"long", {step("A", 50), step("B", 50)}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run_until(sim::SimTime::from_seconds(10));  // mid step A
  ASSERT_TRUE(service->cancel(run.value()));
  engine.run();
  const RunInfo& info = service->info(run.value());
  EXPECT_EQ(info.state, RunState::Failed);
  EXPECT_NE(info.error.find("cancelled"), std::string::npos);
  // Step B never dispatched.
  EXPECT_EQ(provider->starts(), 1);
}

TEST_F(CancelFixture, CancelBeforeStartPreventsDispatch) {
  setup();
  FlowDefinition def{"pending", {step("A", 5)}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  // Cancel immediately, before the flow-start latency elapses.
  ASSERT_TRUE(service->cancel(run.value()));
  engine.run();
  EXPECT_EQ(service->info(run.value()).state, RunState::Failed);
  EXPECT_EQ(provider->starts(), 0);
}

TEST_F(CancelFixture, CancelSettledRunIsError) {
  setup();
  FlowDefinition def{"quick", {step("A", 0.5)}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  ASSERT_EQ(service->info(run.value()).state, RunState::Succeeded);
  EXPECT_FALSE(service->cancel(run.value()));
  EXPECT_FALSE(service->cancel("run-999999"));
}

TEST_F(CancelFixture, CancelDuringInFlightPollStopsPolling) {
  FlowServiceConfig cfg;
  cfg.backoff = BackoffPolicy::fixed(1.0);
  setup(cfg);
  FlowDefinition def{"polling", {step("A", 100)}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run_until(sim::SimTime::from_seconds(20));  // well into the poll loop
  int polls_before = provider->polls();
  EXPECT_GT(polls_before, 5);
  ASSERT_TRUE(service->cancel(run.value()));
  engine.run();
  // The already-scheduled poll event fires but is abandoned without touching
  // the provider: no polls after cancellation, and the run stays Failed.
  EXPECT_EQ(provider->polls(), polls_before);
  const RunInfo& info = service->info(run.value());
  EXPECT_EQ(info.state, RunState::Failed);
  EXPECT_NE(info.error.find("cancelled"), std::string::npos);
}

TEST_F(CancelFixture, CancelFiresFinishedCallbackOnce) {
  setup();
  FlowDefinition def{"cb", {step("A", 50)}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  int calls = 0;
  service->on_finished(run.value(),
                       [&](const RunId&, const RunInfo&) { ++calls; });
  engine.run_until(sim::SimTime::from_seconds(5));
  ASSERT_TRUE(service->cancel(run.value()));
  engine.run();
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace pico::flow

// --------------------------------------------- timeouts + circuit breaker ----
namespace pico::flow {
namespace {

struct RobustFixture : FlowFixture {};

TEST_F(RobustFixture, TimeoutConsumesRetryThenRecovers) {
  setup();
  // First attempt is scripted to hang for 500 s; the retry runs at the
  // nominal 0.5 s and beats the 20 s deadline.
  provider->set_slow_budget(5, 1, 500.0);
  ActionState s = step("A", 0.5, Json::object({{"slow_key", 5}}));
  s.max_retries = 1;
  s.timeout_s = 20.0;
  FlowDefinition def{"timeout-recover", {s}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  EXPECT_EQ(service->info(run.value()).state, RunState::Succeeded);
  const StepTiming& timing = service->timing(run.value()).steps[0];
  EXPECT_EQ(timing.timeouts, 1);
  EXPECT_EQ(timing.retries, 1);
  EXPECT_EQ(service->total_timeouts(), 1u);
  EXPECT_EQ(provider->starts(), 2);
}

TEST_F(RobustFixture, TimeoutExhaustsRetryBudget) {
  setup();
  ActionState s = step("A", 500);  // never completes within the deadline
  s.max_retries = 1;
  s.timeout_s = 10.0;
  FlowDefinition def{"timeout-exhaust", {s}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  const RunInfo& info = service->info(run.value());
  EXPECT_EQ(info.state, RunState::Failed);
  EXPECT_NE(info.error.find("timed out"), std::string::npos);
  EXPECT_EQ(service->timing(run.value()).steps[0].timeouts, 2);
  EXPECT_EQ(service->total_timeouts(), 2u);
}

TEST_F(RobustFixture, ZeroTimeoutMeansNoDeadline) {
  setup();
  FlowDefinition def{"no-deadline", {step("A", 300)}};  // timeout_s defaults 0
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  EXPECT_EQ(service->info(run.value()).state, RunState::Succeeded);
  EXPECT_EQ(service->timing(run.value()).steps[0].timeouts, 0);
  EXPECT_EQ(service->total_timeouts(), 0u);
}

TEST_F(RobustFixture, BreakerTripsAndFailsFast) {
  FlowServiceConfig cfg;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.cooldown_s = 60.0;
  setup(cfg);
  provider->set_refuse_budget(9, 1000);  // provider is down for good
  ActionState s = step("A", 1, Json::object({{"refuse_key", 9}}));
  s.max_retries = 10;
  FlowDefinition def{"breaker-trip", {s}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  EXPECT_EQ(service->info(run.value()).state, RunState::Failed);
  // Three failures trip the breaker; afterwards the open breaker consumes
  // retries without touching the provider, and only half-open probes get
  // through — far fewer than the 11 starts the budget alone would allow.
  EXPECT_LT(provider->start_attempts(), 8);
  auto snaps = service->breaker_snapshots();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].provider, "fake");
  EXPECT_GE(snaps[0].trips, 2);
  EXPECT_GT(service->breaker_retry_after_s("fake"), 0.0);  // still open
}

TEST_F(RobustFixture, BreakerHalfOpenProbeRecovers) {
  FlowServiceConfig cfg;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.cooldown_s = 10.0;
  setup(cfg);
  provider->set_refuse_budget(11, 2);  // down for the first two attempts
  ActionState s = step("A", 1, Json::object({{"refuse_key", 11}}));
  s.max_retries = 5;
  FlowDefinition def{"breaker-probe", {s}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  // After two failures the breaker is open: mid-cooldown it reports a wait.
  engine.run_until(sim::SimTime::from_seconds(6));
  EXPECT_GT(service->breaker_retry_after_s("fake"), 0.0);
  engine.run();
  EXPECT_EQ(service->info(run.value()).state, RunState::Succeeded);
  // Two real failures + one breaker wait = three consumed retries, and the
  // half-open probe was the only extra provider contact.
  EXPECT_EQ(provider->start_attempts(), 3);
  EXPECT_EQ(service->timing(run.value()).steps[0].retries, 3);
  auto snaps = service->breaker_snapshots();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].trips, 1);
  EXPECT_EQ(snaps[0].state, "closed");
  EXPECT_EQ(service->breaker_retry_after_s("fake"), 0.0);
  EXPECT_EQ(service->breaker_retry_after_s("unregistered"), 0.0);
}

TEST_F(RobustFixture, DisabledBreakerNeverTrips) {
  FlowServiceConfig cfg;
  cfg.breaker.enabled = false;
  cfg.breaker.failure_threshold = 1;
  setup(cfg);
  provider->set_refuse_budget(13, 1000);
  ActionState s = step("A", 1, Json::object({{"refuse_key", 13}}));
  s.max_retries = 4;
  FlowDefinition def{"breaker-off", {s}};
  auto run = service->start(def, Json(), token);
  ASSERT_TRUE(run);
  engine.run();
  EXPECT_EQ(service->info(run.value()).state, RunState::Failed);
  EXPECT_EQ(provider->start_attempts(), 5);  // every retry reached the provider
  auto snaps = service->breaker_snapshots();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].trips, 0);
}

TEST(CircuitBreakerUnit, StateMachineTransitions) {
  BreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.cooldown_s = 5.0;
  CircuitBreaker b(cfg);
  auto t = [](double s) { return sim::SimTime::from_seconds(s); };

  EXPECT_EQ(b.state(t(0)), CircuitBreaker::State::Closed);
  EXPECT_DOUBLE_EQ(b.retry_after_s(t(0)), 0.0);
  b.record_failure(t(1));
  EXPECT_EQ(b.state(t(1)), CircuitBreaker::State::Closed);
  b.record_failure(t(2));  // threshold reached: trip
  EXPECT_EQ(b.state(t(2)), CircuitBreaker::State::Open);
  EXPECT_EQ(b.trips(), 1);
  EXPECT_NEAR(b.retry_after_s(t(3)), 4.0, 1e-9);

  // Cooldown elapsed: half-open. First caller claims the probe slot; later
  // callers are pushed out by a cooldown; peek never claims.
  EXPECT_EQ(b.state(t(8)), CircuitBreaker::State::HalfOpen);
  EXPECT_DOUBLE_EQ(b.retry_after_s(t(8)), 0.0);
  EXPECT_DOUBLE_EQ(b.retry_after_s(t(8)), cfg.cooldown_s);
  EXPECT_DOUBLE_EQ(b.peek_retry_after_s(t(8)), cfg.cooldown_s);

  b.record_failure(t(9));  // probe failed: immediately re-open
  EXPECT_EQ(b.state(t(9)), CircuitBreaker::State::Open);
  EXPECT_EQ(b.trips(), 2);

  EXPECT_EQ(b.state(t(15)), CircuitBreaker::State::HalfOpen);
  EXPECT_DOUBLE_EQ(b.retry_after_s(t(15)), 0.0);
  b.record_success();  // probe succeeded: close and reset
  EXPECT_EQ(b.state(t(16)), CircuitBreaker::State::Closed);
  EXPECT_EQ(b.consecutive_failures(), 0);
  EXPECT_EQ(CircuitBreaker::state_name(CircuitBreaker::State::HalfOpen),
            "half-open");
}

TEST(CircuitBreakerUnit, DisabledBreakerIsTransparent) {
  BreakerConfig cfg;
  cfg.enabled = false;
  cfg.failure_threshold = 1;
  CircuitBreaker b(cfg);
  auto t = [](double s) { return sim::SimTime::from_seconds(s); };
  for (int i = 0; i < 5; ++i) b.record_failure(t(i));
  EXPECT_EQ(b.state(t(10)), CircuitBreaker::State::Closed);
  EXPECT_DOUBLE_EQ(b.retry_after_s(t(10)), 0.0);
  EXPECT_EQ(b.trips(), 0);
}

}  // namespace
}  // namespace pico::flow

// ------------------------------------------------------- definition JSON ----
#include "flow/definition_io.hpp"

namespace pico::flow {
namespace {

TEST(DefinitionIo, RoundTrip) {
  FlowDefinition def;
  def.name = "my-flow";
  ActionState a;
  a.name = "Transfer";
  a.provider = "transfer";
  a.max_retries = 2;
  a.timeout_s = 45.0;
  a.params = Json::object({
      {"src", "$.input.file"},
      {"nested", Json::object({{"deep", Json::array({1, 2})}})},
  });
  def.steps.push_back(a);
  ActionState b;
  b.name = "Publish";
  b.provider = "search-ingest";
  b.params = Json::object({{"record", "$.steps.Transfer.out"}});
  def.steps.push_back(b);

  Json doc = definition_to_json(def);
  auto back = definition_from_json(doc);
  ASSERT_TRUE(back);
  const FlowDefinition& d = back.value();
  EXPECT_EQ(d.name, "my-flow");
  ASSERT_EQ(d.steps.size(), 2u);
  EXPECT_EQ(d.steps[0].max_retries, 2);
  EXPECT_DOUBLE_EQ(d.steps[0].timeout_s, 45.0);
  EXPECT_DOUBLE_EQ(d.steps[1].timeout_s, 0.0);
  EXPECT_EQ(d.steps[0].params.at("src").as_string(), "$.input.file");
  EXPECT_EQ(d.steps[1].params.at("record").as_string(), "$.steps.Transfer.out");
  // Text round trip too.
  auto from_text = definition_from_text(doc.dump());
  ASSERT_TRUE(from_text);
  EXPECT_EQ(definition_to_json(from_text.value()).dump(), doc.dump());
}

TEST(DefinitionIo, ValidationRejectsBadDocuments) {
  EXPECT_FALSE(definition_from_text("not json"));
  EXPECT_FALSE(definition_from_text("[]"));
  EXPECT_FALSE(definition_from_text(R"({"name": "x"})"));                 // no steps
  EXPECT_FALSE(definition_from_text(R"({"name": "x", "steps": []})"));    // empty
  EXPECT_FALSE(definition_from_text(
      R"({"name": "", "steps": [{"name": "A", "provider": "p"}]})"));      // no name
  EXPECT_FALSE(definition_from_text(
      R"({"name": "x", "steps": [{"name": "", "provider": "p"}]})"));      // unnamed step
  EXPECT_FALSE(definition_from_text(
      R"({"name": "x", "steps": [{"name": "A"}]})"));                      // no provider
  EXPECT_FALSE(definition_from_text(
      R"({"name": "x", "steps": [{"name": "A", "provider": "p"},
                                  {"name": "A", "provider": "p"}]})"));    // dup names
  EXPECT_FALSE(definition_from_text(
      R"({"name": "x", "steps": [{"name": "A", "provider": "p",
                                   "max_retries": -1}]})"));               // bad retries
  EXPECT_FALSE(definition_from_text(
      R"({"name": "x", "steps": [{"name": "A", "provider": "p",
                                   "timeout_s": -5}]})"));                 // bad timeout
}

TEST(DefinitionIo, ParsedDefinitionActuallyRuns) {
  sim::Engine engine;
  auth::AuthService auth;
  FlowServiceConfig cfg;
  cfg.latency_jitter_frac = 0;
  FlowService service(&engine, &auth, cfg, 3);
  FakeProvider provider(&engine);
  service.register_provider(&provider);
  auth::Token token = auth.issue("u", {"flows"});

  auto def = definition_from_text(R"({
    "name": "loaded-from-json",
    "steps": [
      {"name": "A", "provider": "fake",
       "params": {"duration_s": 0.5, "tag": "$.input.greeting",
                  "fail_key": -1, "emit_progress": false,
                  "refuse_start": false}}
    ]
  })");
  ASSERT_TRUE(def);
  auto run = service.start(def.value(),
                           Json::object({{"greeting", "hello"}}), token);
  ASSERT_TRUE(run);
  engine.run();
  const RunInfo& info = service.info(run.value());
  EXPECT_EQ(info.state, RunState::Succeeded);
  EXPECT_EQ(info.step_outputs.at(0).at("echo").as_string(), "hello");
}

}  // namespace
}  // namespace pico::flow

// Property: for random flows/policies, the paper's decomposition invariants
// hold — total = active + overhead, every discovery lag is non-negative, and
// steps execute strictly in sequence.
namespace pico::flow {
namespace {

class TimingInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TimingInvariants, DecompositionAlwaysConsistent) {
  util::Rng rng(GetParam());
  sim::Engine engine;
  auth::AuthService auth;
  FlowServiceConfig cfg;
  cfg.start_latency_s = rng.uniform(0.2, 3.0);
  cfg.inter_step_latency_s = rng.uniform(0.2, 3.0);
  switch (rng.uniform_int(0, 2)) {
    case 0: cfg.backoff = BackoffPolicy::paper_default(); break;
    case 1: cfg.backoff = BackoffPolicy::fixed(rng.uniform(0.5, 5)); break;
    default:
      cfg.backoff = BackoffPolicy::jittered(1.0, 1.7, 120, 0.3);
  }
  FlowService service(&engine, &auth, cfg, GetParam());
  FakeProvider provider(&engine);
  service.register_provider(&provider);
  auth::Token token = auth.issue("u", {"flows"});

  std::vector<RunId> runs;
  for (int f = 0; f < 6; ++f) {
    FlowDefinition def;
    def.name = "prop";
    int n_steps = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < n_steps; ++i) {
      def.steps.push_back(FlowFixture::step(
          "S" + std::to_string(i), rng.uniform(0.2, 40.0),
          Json::object({{"emit_progress", rng.chance(0.5)}})));
    }
    auto run = service.start(def, Json(), token);
    ASSERT_TRUE(run);
    runs.push_back(run.value());
    engine.run_until(engine.now() + sim::Duration::from_seconds(rng.uniform(0, 20)));
  }
  engine.run();

  for (const auto& id : runs) {
    ASSERT_EQ(service.info(id).state, RunState::Succeeded);
    const RunTiming& t = service.timing(id);
    EXPECT_NEAR(t.total_s(), t.active_s() + t.overhead_s(), 1e-9);
    EXPECT_GT(t.overhead_s(), 0);
    sim::SimTime prev = t.submitted;
    for (const auto& s : t.steps) {
      EXPECT_GE(s.dispatched.ns, prev.ns);
      EXPECT_GE(s.service_started.ns, s.dispatched.ns);
      EXPECT_GE(s.service_completed.ns, s.service_started.ns);
      EXPECT_GE(s.discovered.ns, s.service_completed.ns);
      EXPECT_GE(s.discovery_lag_s(), 0.0);
      EXPECT_GT(s.polls, 0);
      prev = s.discovered;
    }
    EXPECT_GE(t.finished.ns, prev.ns);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimingInvariants,
                         ::testing::Values(11, 23, 47, 89, 173));

}  // namespace
}  // namespace pico::flow
