// Allocation gates for the flow control plane and the real-payload compute
// body. A counting global operator new tallies the heap allocations (and,
// where asked, their bytes) made on this thread while a bucket is open;
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
#include "emd/file.hpp"
#include "emd_layout.hpp"
#include "flow/service.hpp"
#include "hyper_body.hpp"
#include "sim/engine.hpp"

namespace {
thread_local uint64_t* t_bucket = nullptr;
thread_local uint64_t* t_bytes = nullptr;
}  // namespace

void* operator new(std::size_t n) {
  if (t_bucket) ++*t_bucket;
  if (t_bytes) *t_bytes += n;
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

/// Counts allocations into `bucket`, and their bytes into `bytes` when
/// given, for the scope's lifetime (nesting restores).
class Counting {
 public:
  explicit Counting(uint64_t* bucket, uint64_t* bytes = nullptr)
      : prev_(t_bucket), prev_bytes_(t_bytes) {
    t_bucket = bucket;
    t_bytes = bytes;
  }
  ~Counting() {
    t_bucket = prev_;
    t_bytes = prev_bytes_;
  }
  Counting(const Counting&) = delete;
  Counting& operator=(const Counting&) = delete;

 private:
  uint64_t* prev_;
  uint64_t* prev_bytes_;
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

// ---- real payloads: the compute body reads the landed bytes in place ----

TEST(PayloadAllocations, HyperspectralBodyDoesNotCopyThePayload) {
  const auto& payload = test::hyper_payload();
  ASSERT_GT(payload->size(), 7u << 20);  // a 62x62x256 f64 cube
  auto facility = test::facility_with_landed(
      "alloc-test-artifacts", "eagle/hyper.emd", payload);
  uint64_t allocs = 0, bytes = 0;
  auto out = [&] {
    Counting counting(&allocs, &bytes);
    return test::run_hyper_body(*facility, "eagle/hyper.emd", "alloc");
  }();
  ASSERT_TRUE(out) << out.error().message;
  // Everything the body makes on its thread: the parsed header, the 64x64
  // intensity and element maps, the 256-channel spectrum, artifacts and the
  // record (plus the engine and compute service around it). A copy of the
  // 8 MB cube, as Dataset::as<double>() makes, alone exceeds the bound.
  EXPECT_LT(bytes, uint64_t{1} << 20)
      << allocs << " allocations on the body's thread";
}

TEST(PayloadAllocations, MisalignedViewCopiesThePayloadOnce) {
  emd::File f;
  tensor::Tensor<double> cube(tensor::Shape{16, 16, 32});
  for (size_t i = 0; i < cube.size(); ++i) cube[i] = static_cast<double>(i);
  f.root.ensure_group("data/cube").datasets.emplace(
      "data", emd::Dataset::from_tensor(cube));
  const size_t nbytes = cube.size() * sizeof(double);
  for (size_t shift : {0u, 4u}) {
    SCOPED_TRACE(shift);
    auto file = emd::File::from_shared(
        std::make_shared<const std::vector<uint8_t>>(
            test::with_header_padding(f.to_bytes(), shift)));
    ASSERT_TRUE(file);
    const emd::Dataset* ds = file.value().root.find_dataset("data/cube/data");
    uint64_t allocs = 0, bytes = 0;
    {
      Counting counting(&allocs, &bytes);
      auto view = ds->view<double>();
      ASSERT_TRUE(view);
      EXPECT_EQ(view.value().owns(), shift != 0);
      tensor::ConstView<double> copy = view.value();  // shares, never copies
      EXPECT_EQ(copy.data().data(), view.value().data().data());
    }
    // The shape vectors and, off alignment, one payload copy plus its
    // shared owner: at most one payload's bytes, never two.
    const uint64_t payload_copies = shift != 0 ? nbytes : 0;
    EXPECT_GE(bytes, payload_copies);
    EXPECT_LT(bytes, payload_copies + 512) << allocs << " allocations";
  }
}

}  // namespace
}  // namespace pico::flow
