// Globus-Compute-like service tests: function registry, endpoint scaling,
// warm-node reuse (the paper's first-flow effect), failures, idle release.
#include <gtest/gtest.h>

#include "auth/auth.hpp"
#include "compute/service.hpp"
#include "hpcsim/pbs.hpp"
#include "telemetry/telemetry.hpp"
#include "recorded_once.hpp"

namespace pico::compute {
namespace {

using util::Json;

struct ComputeFixture : ::testing::Test {
  sim::Engine engine;
  auth::AuthService auth;
  std::unique_ptr<hpcsim::PbsScheduler> pbs;
  std::unique_ptr<ComputeService> service;
  EndpointId endpoint;
  auth::Token token;

  void setup(int nodes = 4, double provision_s = 10.0, double warmup_s = 5.0,
             double idle_timeout_s = 100.0, int max_blocks = 4) {
    hpcsim::ClusterConfig ccfg;
    ccfg.node_count = nodes;
    ccfg.provision_delay_s = provision_s;
    ccfg.provision_jitter_s = 0.0;
    pbs = std::make_unique<hpcsim::PbsScheduler>(&engine, ccfg, 7);
    service = std::make_unique<ComputeService>(&engine, &auth, 7);
    EndpointConfig ecfg;
    ecfg.name = "test";
    ecfg.scheduler = pbs.get();
    ecfg.max_blocks = max_blocks;
    ecfg.env_warmup_s = warmup_s;
    ecfg.env_warmup_jitter_s = 0.0;
    ecfg.warm_idle_timeout_s = idle_timeout_s;
    ecfg.dispatch_latency_s = 0.1;
    endpoint = service->register_endpoint(ecfg);
    token = auth.issue("user@anl.gov", {"compute"});
  }

  FunctionId register_echo(double cost_s = 2.0) {
    FunctionSpec spec;
    spec.name = "echo";
    spec.body = [](const Json& args) {
      return util::Result<Json>::ok(Json::object({{"echo", args}}));
    };
    spec.cost = [cost_s](const Json&) { return cost_s; };
    return service->register_function(std::move(spec));
  }
};

TEST_F(ComputeFixture, ExecutesFunctionAndReturnsResult) {
  setup();
  FunctionId fn = register_echo();
  auto task = service->submit(endpoint, fn, Json::object({{"x", 41}}), token);
  ASSERT_TRUE(task);
  engine.run();
  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Succeeded);
  EXPECT_TRUE(info.cold_start);
  auto result = service->result(task.value());
  ASSERT_TRUE(result);
  EXPECT_EQ(result.value().at_path("echo.x").as_int(), 41);
}

TEST_F(ComputeFixture, AuthAndLookupValidation) {
  setup();
  FunctionId fn = register_echo();
  EXPECT_FALSE(service->submit(endpoint, fn, Json(), "bad-token"));
  auth::Token wrong = auth.issue("u", {"transfer"});
  EXPECT_FALSE(service->submit(endpoint, fn, Json(), wrong));
  EXPECT_FALSE(service->submit("ep-nope", fn, Json(), token));
  EXPECT_FALSE(service->submit(endpoint, "fn-nope", Json(), token));
}

TEST_F(ComputeFixture, ColdStartPaysProvisionAndWarmup) {
  setup(/*nodes=*/4, /*provision=*/10, /*warmup=*/5);
  FunctionId fn = register_echo(2.0);
  auto task = service->submit(endpoint, fn, Json(), token);
  ASSERT_TRUE(task);
  engine.run();
  TaskInfo info = service->status(task.value());
  // dispatch 0.1 + provision 10 -> started; warmup 5 + cost 2 inside run.
  EXPECT_NEAR(info.started.seconds(), 10.1, 0.5);
  EXPECT_NEAR(info.completed.seconds() - info.started.seconds(), 7.0, 0.1);
}

TEST_F(ComputeFixture, WarmNodeReuseSkipsProvisionAndWarmup) {
  setup(4, 10, 5);
  FunctionId fn = register_echo(2.0);
  auto first = service->submit(endpoint, fn, Json(), token);
  ASSERT_TRUE(first);
  // Drain the first task but stop before the idle timeout releases the node.
  engine.run_until(sim::SimTime::from_seconds(30));
  ASSERT_EQ(service->status(first.value()).state, TaskState::Succeeded);
  double t0 = engine.now().seconds();
  auto second = service->submit(endpoint, fn, Json(), token);
  ASSERT_TRUE(second);
  engine.run_until(sim::SimTime::from_seconds(60));
  TaskInfo info = service->status(second.value());
  EXPECT_EQ(info.state, TaskState::Succeeded);
  EXPECT_FALSE(info.cold_start);
  // Warm: dispatch 0.1 + cost 2 only.
  EXPECT_NEAR(info.completed.seconds() - t0, 2.1, 0.2);
  EXPECT_EQ(service->warm_node_count(endpoint), 1u);
  engine.run();  // idle timeout eventually returns the node
}

TEST_F(ComputeFixture, QueueGrowsAdditionalBlocksUpToMax) {
  setup(/*nodes=*/8, /*provision=*/10, /*warmup=*/0, /*idle=*/1000,
        /*max_blocks=*/2);
  FunctionId fn = register_echo(50.0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service->submit(endpoint, fn, Json::object({{"i", i}}), token));
  }
  engine.run_until(sim::SimTime::from_seconds(30));
  // Only two blocks may be held despite four queued tasks.
  EXPECT_EQ(service->warm_node_count(endpoint), 2u);
  engine.run();
  // All four eventually complete on the two nodes.
  EXPECT_EQ(pbs->jobs_started(), 2u);
}

TEST_F(ComputeFixture, FunctionFailurePropagates) {
  setup();
  FunctionSpec spec;
  spec.name = "boom";
  spec.body = [](const Json&) {
    return util::Result<Json>::err("deliberate failure", "test");
  };
  spec.cost = [](const Json&) { return 1.0; };
  FunctionId fn = service->register_function(std::move(spec));
  auto task = service->submit(endpoint, fn, Json(), token);
  ASSERT_TRUE(task);
  engine.run_until(sim::SimTime::from_seconds(30));
  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Failed);
  EXPECT_EQ(info.error, "deliberate failure");
  EXPECT_FALSE(service->result(task.value()));
  // The node survives a failed task and is reusable (until idle timeout).
  EXPECT_EQ(service->warm_node_count(endpoint), 1u);
  engine.run();
}

TEST_F(ComputeFixture, IdleNodesReleasedAfterTimeout) {
  setup(4, 10, 0, /*idle_timeout=*/20.0);
  FunctionId fn = register_echo(1.0);
  auto task = service->submit(endpoint, fn, Json(), token);
  ASSERT_TRUE(task);
  engine.run();
  // After the idle timeout the node was released back to PBS.
  EXPECT_EQ(service->warm_node_count(endpoint), 0u);
  EXPECT_EQ(pbs->free_nodes(), 4);
}

TEST_F(ComputeFixture, CostFunctionReceivesArgs) {
  setup(4, 1, 0);
  FunctionSpec spec;
  spec.name = "sized";
  spec.body = [](const Json&) { return util::Result<Json>::ok(Json()); };
  spec.cost = [](const Json& args) { return args.at("seconds").as_double(1.0); };
  FunctionId fn = service->register_function(std::move(spec));
  auto task =
      service->submit(endpoint, fn, Json::object({{"seconds", 25.0}}), token);
  ASSERT_TRUE(task);
  engine.run();
  TaskInfo info = service->status(task.value());
  EXPECT_NEAR(info.completed.seconds() - info.started.seconds(), 25.0, 0.1);
}

TEST_F(ComputeFixture, ResultBeforeCompletionIsError) {
  setup();
  FunctionId fn = register_echo(10.0);
  auto task = service->submit(endpoint, fn, Json(), token);
  ASSERT_TRUE(task);
  engine.run_until(sim::SimTime::from_seconds(1.0));
  EXPECT_FALSE(service->result(task.value()));
  EXPECT_FALSE(service->result("ctask-zzz"));
}

TEST_F(ComputeFixture, ManyTasksAllComplete) {
  setup(4, 5, 1, 1000, 4);
  FunctionId fn = register_echo(3.0);
  std::vector<TaskId> tasks;
  for (int i = 0; i < 20; ++i) {
    auto t = service->submit(endpoint, fn, Json::object({{"i", i}}), token);
    ASSERT_TRUE(t);
    tasks.push_back(t.value());
  }
  engine.run();
  for (const auto& t : tasks) {
    EXPECT_EQ(service->status(t).state, TaskState::Succeeded);
  }
}

}  // namespace
}  // namespace pico::compute

// --------------------------------------------------------- node failures ----
namespace pico::compute {
namespace {

struct FailureFixture : ComputeFixture {};

TEST_F(FailureFixture, NodeFailureFailsTaskAndDropsNode) {
  setup(4, 2.0, 0.0, 1000.0);
  // Force the failure path deterministically.
  {
    EndpointConfig ecfg;
    ecfg.name = "flaky";
    ecfg.scheduler = pbs.get();
    ecfg.node_failure_prob = 1.0;
    ecfg.env_warmup_s = 0;
    ecfg.env_warmup_jitter_s = 0;
    ecfg.dispatch_latency_s = 0.1;
    endpoint = service->register_endpoint(ecfg);
  }
  FunctionId fn = register_echo(3.0);
  auto task = service->submit(endpoint, fn, Json(), token);
  ASSERT_TRUE(task);
  engine.run_until(sim::SimTime::from_seconds(60));
  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Failed);
  EXPECT_NE(info.error.find("node failure"), std::string::npos);
  // The dead node left the warm pool and its allocation was returned.
  EXPECT_EQ(service->warm_node_count(endpoint), 0u);
  EXPECT_EQ(pbs->free_nodes(), 4);
}

// A node failure is one record on the task span and in the ring of the flow
// run the task was submitted under.
TEST_F(FailureFixture, NodeFailureRecordedOnceInSpanAndRing) {
  setup(4, 2.0, 0.0, 1000.0);
  EndpointConfig ecfg;
  ecfg.name = "flaky";
  ecfg.scheduler = pbs.get();
  ecfg.node_failure_prob = 1.0;
  ecfg.env_warmup_s = 0;
  ecfg.env_warmup_jitter_s = 0;
  ecfg.dispatch_latency_s = 0.1;
  endpoint = service->register_endpoint(ecfg);
  sim::Trace trace;
  telemetry::Telemetry tel(&trace);
  service->set_telemetry(&tel);
  FunctionId fn = register_echo(3.0);
  uint64_t run = tel.tracer.open("flow", "run-1", 0, "run-1");
  util::Result<TaskId> task = [&] {
    telemetry::Tracer::Scope scope(tel.tracer, run);
    return service->submit(endpoint, fn, Json(), token);
  }();
  ASSERT_TRUE(task);
  engine.run_until(sim::SimTime::from_seconds(60));
  tel.tracer.close(run, "run", engine.now(), engine.now());
  EXPECT_EQ(service->status(task.value()).state, TaskState::Failed);
  test::expect_recorded_once(trace, tel.flight, "run-1", "node-failure");
}

TEST_F(FailureFixture, IntermittentFailuresEventuallyComplete) {
  setup(4, 2.0, 0.0, 1000.0);
  {
    EndpointConfig ecfg;
    ecfg.name = "flaky";
    ecfg.scheduler = pbs.get();
    ecfg.node_failure_prob = 0.4;
    ecfg.env_warmup_s = 0;
    ecfg.env_warmup_jitter_s = 0;
    ecfg.dispatch_latency_s = 0.1;
    endpoint = service->register_endpoint(ecfg);
  }
  FunctionId fn = register_echo(1.0);
  // Many independent tasks: with p=0.4 both outcomes occur, and every
  // failure names the node as the cause.
  int failures = 0, successes = 0;
  for (int i = 0; i < 30; ++i) {
    auto t = service->submit(endpoint, fn, Json(), token);
    ASSERT_TRUE(t);
    engine.run();
    TaskInfo info = service->status(t.value());
    if (info.state == TaskState::Succeeded) {
      ++successes;
    } else {
      ++failures;
      EXPECT_NE(info.error.find("node failure"), std::string::npos);
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_GT(successes, 0);
}

// Held starts + streamable overlap credit (cut-through pre-dispatch).
struct HeldFixture : ComputeFixture {
  FunctionId register_streamable(double cost_s, double streamable_s) {
    FunctionSpec spec;
    spec.name = "streamable";
    spec.body = [](const Json&) {
      return util::Result<Json>::ok(Json::object({{"ok", true}}));
    };
    spec.cost = [cost_s](const Json&) { return cost_s; };
    spec.streamable = [streamable_s](const Json&) { return streamable_s; };
    return service->register_function(std::move(spec));
  }
};

TEST_F(HeldFixture, ReleaseAfterReadyCreditsStreamablePrefix) {
  setup();
  // Cold node ready at 15.1 (dispatch 0.1 + provision 10 + warmup 5). Held
  // for 24.9 s past ready, streamable 15 of cost 20: credit caps at 15, so
  // release at 40 leaves 5 s of work -> completes at 45.
  FunctionId fn = register_streamable(20.0, 15.0);
  auto task = service->submit(endpoint, fn, Json(), token, /*held=*/true);
  ASSERT_TRUE(task);
  engine.run_until(sim::SimTime::from_seconds(40.0));
  EXPECT_NE(service->status(task.value()).state, TaskState::Succeeded);
  service->release(task.value());
  engine.run();
  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Succeeded);
  EXPECT_NEAR(info.completed.seconds(), 45.0, 1e-6);
  ASSERT_TRUE(service->result(task.value()));
}

TEST_F(HeldFixture, ReleaseWithoutStreamableChargesFullCost) {
  setup();
  // Same timeline, but the function declares nothing streamable: the hold
  // buys no credit and the full 20 s run after release -> completes at 60.
  FunctionId fn = register_streamable(20.0, 0.0);
  auto task = service->submit(endpoint, fn, Json(), token, /*held=*/true);
  ASSERT_TRUE(task);
  engine.run_until(sim::SimTime::from_seconds(40.0));
  service->release(task.value());
  engine.run();
  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Succeeded);
  EXPECT_NEAR(info.completed.seconds(), 60.0, 1e-6);
}

TEST_F(HeldFixture, ReleaseBeforeNodeReadyEarnsNoCredit) {
  setup();
  // release() lands while the node is still provisioning/warming: execution
  // starts the moment the node is ready with zero overlap credit, matching
  // the plain cold timeline 0.1 + 10 + 5 + 20 = 35.1.
  FunctionId fn = register_streamable(20.0, 15.0);
  auto task = service->submit(endpoint, fn, Json(), token, /*held=*/true);
  ASSERT_TRUE(task);
  engine.run_until(sim::SimTime::from_seconds(5.0));
  service->release(task.value());
  engine.run();
  TaskInfo info = service->status(task.value());
  EXPECT_EQ(info.state, TaskState::Succeeded);
  EXPECT_NEAR(info.completed.seconds(), 35.1, 1e-6);
}

TEST_F(HeldFixture, HeldTaskNeverCompletesWithoutRelease) {
  setup();
  FunctionId fn = register_streamable(2.0, 2.0);
  auto task = service->submit(endpoint, fn, Json(), token, /*held=*/true);
  ASSERT_TRUE(task);
  // Far past every cold-start and cost horizon: still waiting on release().
  engine.run_until(sim::SimTime::from_seconds(500.0));
  EXPECT_NE(service->status(task.value()).state, TaskState::Succeeded);
  EXPECT_FALSE(service->result(task.value()));
  service->release(task.value());
  engine.run();
  EXPECT_EQ(service->status(task.value()).state, TaskState::Succeeded);
}

TEST_F(HeldFixture, OnSettledFiresOnceAndImmediatelyAfterSettle) {
  setup();
  FunctionId fn = register_streamable(4.0, 0.0);
  auto task = service->submit(endpoint, fn, Json(), token, /*held=*/true);
  ASSERT_TRUE(task);
  int calls = 0;
  service->on_settled(task.value(), [&](const TaskInfo& info) {
    ++calls;
    EXPECT_EQ(info.state, TaskState::Succeeded);
  });
  engine.run_until(sim::SimTime::from_seconds(20.0));
  service->release(task.value());
  engine.run();
  EXPECT_EQ(calls, 1);
  // Registered after the task settled: fires immediately, exactly once.
  int late_calls = 0;
  service->on_settled(task.value(),
                      [&](const TaskInfo&) { ++late_calls; });
  EXPECT_EQ(late_calls, 1);
  engine.run();
  EXPECT_EQ(late_calls, 1);
}

}  // namespace
}  // namespace pico::compute
