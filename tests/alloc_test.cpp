// Allocation gate for the flow control plane. A counting global operator new
// tallies the heap allocations made on this thread while a bucket is open;
// provider calls switch to a bucket of their own, so the flow service and
// the engine are measured apart from the actions they drive. The counts are
// a pure function of the code path and the inputs: no timing, no host
// dependence.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "auth/auth.hpp"
#include "flow/service.hpp"
#include "sim/engine.hpp"

namespace {
thread_local uint64_t* t_bucket = nullptr;
}  // namespace

void* operator new(std::size_t n) {
  if (t_bucket) ++*t_bucket;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
// GCC flags free() on operator new's result; here both sides are malloc's.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace pico::flow {
namespace {

using util::Json;

/// Counts into `bucket` for the scope's lifetime (nesting restores).
class Counting {
 public:
  explicit Counting(uint64_t* bucket) : prev_(t_bucket) { t_bucket = bucket; }
  ~Counting() { t_bucket = prev_; }
  Counting(const Counting&) = delete;
  Counting& operator=(const Counting&) = delete;

 private:
  uint64_t* prev_;
};

/// O(1) null provider: each action succeeds after its scripted virtual
/// duration (params "duration_s"). Its own allocations land in `allocs`.
class NullProvider : public ActionProvider {
 public:
  explicit NullProvider(sim::Engine* engine) : engine_(engine) {
    actions_.reserve(1 << 14);
  }
  std::string name() const override { return "null"; }

  util::Result<ActionHandle> start(const Json& params,
                                   const auth::Token&) override {
    Counting provider(&allocs);
    actions_.push_back(
        {engine_->now(),
         static_cast<int64_t>(params.at("duration_s").as_double(1.0) * 1e9)});
    return util::Result<ActionHandle>::ok(
        std::to_string(actions_.size() - 1));
  }

  ActionPollResult poll(const ActionHandle& handle) override {
    Counting provider(&allocs);
    ++polls;
    ActionPollResult out;
    const Action& a = actions_[std::strtoull(handle.c_str(), nullptr, 10)];
    if ((engine_->now() - a.started).ns < a.duration_ns) return out;
    out.status = ActionStatus::Succeeded;
    out.service_started = a.started;
    out.service_completed = a.started + sim::Duration{a.duration_ns};
    out.output = Json::object({{"ok", true}});
    return out;
  }

  uint64_t allocs = 0;
  uint64_t polls = 0;

 private:
  struct Action {
    sim::SimTime started;
    int64_t duration_ns = 0;
  };
  sim::Engine* engine_;
  std::vector<Action> actions_;
};

/// The flows-100k control-plane flow: Transfer and Analyze with hour-long
/// timeouts (two cancelled timers per flow), then Publish.
std::shared_ptr<const FlowDefinition> null_definition(
    double timeout_s = 3600) {
  FlowDefinition def;
  def.name = "bench-controlplane";
  ActionState transfer;
  transfer.name = "Transfer";
  transfer.provider = "null";
  transfer.params = Json::object({{"duration_s", "$.input.transfer_s"}});
  transfer.timeout_s = timeout_s;
  ActionState analyze = transfer;
  analyze.name = "Analyze";
  analyze.params = Json::object({{"duration_s", "$.input.analyze_s"}});
  ActionState publish;
  publish.name = "Publish";
  publish.provider = "null";
  publish.params =
      Json::object({{"duration_s", 1.0}, {"subject", "$.input.subject"}});
  def.steps = {transfer, analyze, publish};
  return std::make_shared<const FlowDefinition>(std::move(def));
}

Json null_input(size_t i) {
  return Json::object({
      {"transfer_s", 30.0 + static_cast<double>(i % 7) * 10.0},
      {"analyze_s", 15.0 + static_cast<double>(i % 5) * 5.0},
      {"subject", "flow-" + std::to_string(i)},
  });
}

struct CampaignCounts {
  uint64_t service_allocs = 0;
  uint64_t provider_allocs = 0;
  uint64_t events = 0;
  uint64_t cancelled = 0;
  size_t succeeded = 0;
};

/// `n` null flows through one FlowService, counted from the first start()
/// to the drained engine. Inputs and labels are built before counting.
CampaignCounts run_null_flows(size_t n, sim::Engine::Backend backend) {
  sim::Engine engine(backend);
  auth::AuthService auth;
  FlowService service(&engine, &auth, {}, 0xC0117ull);
  NullProvider provider(&engine);
  service.register_provider(&provider);
  const auth::Token token = auth.issue("bench", {"flows"});
  auto def = null_definition();
  std::vector<Json> inputs;
  std::vector<std::string> labels;
  for (size_t i = 0; i < n; ++i) {
    inputs.push_back(null_input(i));
    labels.push_back("bench-" + std::to_string(i));
  }
  CampaignCounts c;
  auto on_done = [&c](const RunId&, const RunInfo& info) {
    if (info.state == RunState::Succeeded) ++c.succeeded;
  };
  {
    Counting counting(&c.service_allocs);
    for (size_t i = 0; i < n; ++i) {
      auto run = service.start(def, std::move(inputs[i]), token, labels[i]);
      if (run) service.on_finished(run.value(), on_done);
    }
    engine.run();
  }
  c.provider_allocs = provider.allocs;
  c.events = engine.events_processed();
  c.cancelled = engine.cancelled_total();
  return c;
}

TEST(FlowAllocations, NullFlowStaysUnderPerFlowCeiling) {
  constexpr size_t kFlows = 2000;
  for (auto backend :
       {sim::Engine::Backend::Wheel, sim::Engine::Backend::Heap}) {
    CampaignCounts c = run_null_flows(kFlows, backend);
    ASSERT_EQ(c.succeeded, kFlows);
    // Per flow inside FlowService + Engine: the run-store index node and the
    // timing and step-output arrays, plus amortized queue and table growth
    // (4.33 on the wheel, 3.13 on the heap). Before dispatch plans and
    // cancel slots it was 24.7 / 23.1.
    EXPECT_LE(c.service_allocs, 9 * kFlows / 2)
        << "service+engine allocations per flow: "
        << static_cast<double>(c.service_allocs) / kFlows;
    // The provider's own: one output object per step.
    EXPECT_EQ(c.provider_allocs, 3 * kFlows);
    // Same schedule as before the allocation work: events and the two
    // cancelled step timeouts per flow are unchanged.
    EXPECT_EQ(c.events, 30570u);
    EXPECT_EQ(c.cancelled, 2 * kFlows);
  }
}

TEST(FlowAllocations, ActivePollAllocatesNothing) {
  for (auto backend :
       {sim::Engine::Backend::Wheel, sim::Engine::Backend::Heap}) {
    sim::Engine engine(backend);
    auth::AuthService auth;
    FlowService service(&engine, &auth, {}, 0xA110Cull);
    NullProvider provider(&engine);
    service.register_provider(&provider);
    const auth::Token token = auth.issue("bench", {"flows"});
    auto def = null_definition(/*timeout_s=*/0);
    for (size_t i = 0; i < 16; ++i) {
      Json input = null_input(i);
      input["transfer_s"] = 1e6;  // Active for the whole test
      ASSERT_TRUE(service.start(def, std::move(input), token));
    }
    // Warm up until every run polls at the backoff cap and the engine's
    // queue storage has held its peak load.
    engine.run_until(sim::SimTime::from_seconds(6 * 3600.0));
    const uint64_t polls_before = provider.polls;
    uint64_t allocs = 0;
    {
      Counting counting(&allocs);
      engine.run_until(sim::SimTime::from_seconds(12 * 3600.0));
    }
    const uint64_t polls = provider.polls - polls_before;
    EXPECT_GT(polls, 16u * 30) << engine.backend_name();
    EXPECT_EQ(allocs, 0u) << engine.backend_name() << ": " << polls
                          << " Active polls";
    EXPECT_EQ(provider.allocs, 0u);
  }
}

}  // namespace
}  // namespace pico::flow
