#include "federation/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>

#include "auth/auth.hpp"
#include "fault/injector.hpp"
#include "search/index.hpp"
#include "sim/engine.hpp"

namespace pico::federation {

namespace {

using util::Json;

/// O(1) scripted provider (the A13 null-provider idiom): every action
/// succeeds after its `duration_s` param of virtual time. `fail_next`
/// scripts deterministic failures for the failover tests.
class SimNullProvider : public flow::ActionProvider {
 public:
  explicit SimNullProvider(sim::Engine* engine) : engine_(engine) {}

  std::string name() const override { return "null"; }

  util::Result<flow::ActionHandle> start(const Json& params,
                                         const auth::Token&) override {
    Action a;
    a.started = engine_->now();
    a.duration_ns =
        static_cast<int64_t>(params.at("duration_s").as_double(1.0) * 1e9);
    if (fail_budget_ > 0) {
      fail_budget_--;
      a.fail = true;
    }
    starts_++;
    size_t idx = actions_.size();
    actions_.push_back(a);
    return util::Result<flow::ActionHandle>::ok(std::to_string(idx));
  }

  flow::ActionPollResult poll(const flow::ActionHandle& handle) override {
    flow::ActionPollResult out;
    const Action& a = actions_[std::strtoull(handle.c_str(), nullptr, 10)];
    if ((engine_->now() - a.started).ns < a.duration_ns) {
      out.status = flow::ActionStatus::Active;
      return out;
    }
    if (a.fail) {
      out.status = flow::ActionStatus::Failed;
      out.error = "scripted failure";
      return out;
    }
    out.status = flow::ActionStatus::Succeeded;
    out.service_started = a.started;
    out.service_completed = a.started + sim::Duration{a.duration_ns};
    out.output = Json::object({{"ok", true}});
    return out;
  }

  bool subscribe(const flow::ActionHandle& handle,
                 std::function<void()> callback) override {
    const Action& a = actions_[std::strtoull(handle.c_str(), nullptr, 10)];
    engine_->post_at(a.started + sim::Duration{a.duration_ns},
                     std::move(callback));
    return true;
  }

  /// Script the next `n` started actions to fail (consumed in start order).
  void fail_next(int n) { fail_budget_ += n; }
  uint64_t starts() const { return starts_; }

 private:
  struct Action {
    sim::SimTime started;
    int64_t duration_ns = 0;
    bool fail = false;
  };
  sim::Engine* engine_;
  std::vector<Action> actions_;
  uint64_t starts_ = 0;
  int fail_budget_ = 0;
};

/// Null provider that publishes one content-pure record per started action
/// into the SHARED federation index. No attempt counters, no site names —
/// re-publication after a failover overwrites with identical bytes, which is
/// what makes the chaos/fault-free fingerprint parity gate possible.
class SimPublishProvider : public SimNullProvider {
 public:
  SimPublishProvider(sim::Engine* engine, search::Index* index)
      : SimNullProvider(engine), index_(index) {}

  std::string name() const override { return "publish"; }

  util::Result<flow::ActionHandle> start(const Json& params,
                                         const auth::Token& token) override {
    auto handle = SimNullProvider::start(params, token);
    if (handle) {
      search::Document doc;
      doc.id = params.at("subject").as_string("doc");
      doc.content = Json::object({
          {"name", doc.id},
          {"resource_type", "federated_flow"},
      });
      index_->ingest(std::move(doc));
    }
    return handle;
  }

 private:
  search::Index* index_;
};

/// One lightweight site: its own auth domain, orchestrator, breakers, and
/// providers — everything per-facility state the tentpole replicates —
/// sharing only the engine and the publish index.
struct SiteRuntime {
  std::string name;
  auth::AuthService auth;
  flow::FlowService flows;
  SimNullProvider null_provider;
  SimPublishProvider publish_provider;
  auth::Token token;

  SiteRuntime(const std::string& n, sim::Engine* engine,
              const flow::FlowServiceConfig& cfg, uint64_t seed,
              search::Index* index)
      : name(n),
        flows(engine, &auth, cfg, seed),
        null_provider(engine),
        publish_provider(engine, index) {
    flows.set_site(n);
    flows.register_provider(&null_provider);
    flows.register_provider(&publish_provider);
    token = auth.issue("broker@" + n, {"flows"});
  }
};

std::string subject_of(size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "flow-%06zu", i);
  return buf;
}

Json input_for(const FederatedCampaignConfig& config, size_t i) {
  // Pure function of the flow index, so fault-free and chaos runs submit
  // byte-identical inputs.
  double j1 = 0.5 + static_cast<double>((i * 2654435761ull) % 1000) / 1000.0;
  double j2 = 0.5 + static_cast<double>((i * 40503ull + 7) % 1000) / 1000.0;
  Json input = Json::object();
  input["transfer_s"] = config.transfer_s * j1;
  input["analyze_s"] = config.analyze_s * j2;
  input["subject"] = subject_of(i);
  return input;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

flow::FlowDefinition federated_definition(const FederatedCampaignConfig& c) {
  flow::FlowDefinition def;
  def.name = "federated-acquire";
  flow::ActionState transfer;
  transfer.name = "Transfer";
  transfer.provider = "null";
  transfer.params = Json::object({{"duration_s", "$.input.transfer_s"}});
  transfer.timeout_s = 3600;
  transfer.max_retries = 2;
  flow::ActionState analyze;
  analyze.name = "Analyze";
  analyze.provider = "null";
  analyze.params = Json::object({{"duration_s", "$.input.analyze_s"}});
  analyze.timeout_s = 3600;
  analyze.max_retries = 2;
  flow::ActionState publish;
  publish.name = "Publish";
  publish.provider = "publish";
  publish.params = Json::object(
      {{"duration_s", c.publish_s}, {"subject", "$.input.subject"}});
  publish.max_retries = 2;
  def.steps = {transfer, analyze, publish};
  if (c.with_optional_step) {
    flow::ActionState thumb;
    thumb.name = "Thumbnail";
    thumb.provider = "null";
    thumb.params = Json::object({{"duration_s", c.thumbnail_s}});
    thumb.optional = true;
    def.steps.push_back(thumb);
  }
  return def;
}

FederatedCampaignResult run_federated_campaign(
    const FederatedCampaignConfig& config) {
  sim::Engine engine;
  search::Index index("federated-publish");
  flow::FlowServiceConfig fcfg;
  fcfg.completion_mode = config.completion_mode;

  Broker broker(config.broker);
  std::vector<std::unique_ptr<SiteRuntime>> sites;
  for (size_t i = 0; i < config.sites.size(); ++i) {
    const auto& spec = config.sites[i];
    sites.push_back(std::make_unique<SiteRuntime>(
        spec.name, &engine, fcfg, config.seed + i * 1000003ull, &index));
    Site site;
    site.name = spec.name;
    site.engine = &engine;
    site.flows = &sites.back()->flows;
    site.token = sites.back()->token;
    site.capacity = spec.capacity;
    broker.add_site(site);
  }

  fault::FaultInjector::Services fs;
  fs.engine = &engine;
  fs.site_hook = [&broker](fault::FaultKind kind, const std::string& site,
                           double severity, bool begin) {
    broker.apply_site_fault(kind, site, severity, begin);
  };
  fault::FaultInjector injector(fs);
  if (!config.chaos.empty()) {
    auto installed = injector.install(config.chaos);
    (void)installed;
  }

  auto def = std::make_shared<const flow::FlowDefinition>(
      federated_definition(config));

  struct FlowState {
    sim::SimTime first_submit;
    size_t resubmits = 0;
  };
  std::vector<FlowState> fstate(config.flows);
  std::vector<double> latencies;
  latencies.reserve(config.flows);

  FederatedCampaignResult result;
  result.flows = config.flows;

  size_t users = std::max<size_t>(1, config.users);
  // Owned by this frame and captured by reference: engine.run() below drains
  // every posted resubmission before the function returns.
  std::function<void(size_t)> submit_one;
  submit_one = [&](size_t i) {
    std::string user = "user-" + std::to_string(i % users);
    SubmitOutcome out = broker.submit(
        def, input_for(config, i), user, subject_of(i), [&, i](bool ok) {
          double lat = (engine.now() - fstate[i].first_submit).seconds();
          if (ok) {
            result.completed++;
            latencies.push_back(lat);
          } else {
            result.failed++;
          }
        });
    if (!out.admitted) {
      result.rejected_submissions++;
      if (fstate[i].resubmits >= config.max_resubmits) {
        result.gave_up++;
        return;
      }
      fstate[i].resubmits++;
      result.resubmissions++;
      // Per-flow deterministic jitter on top of the broker's hint, so the
      // rejected cohort does not re-arrive as one synchronized wave.
      double delay =
          out.retry_after_s + 0.001 * static_cast<double>(i % 101);
      engine.post_after(sim::Duration::from_seconds(delay),
                        [&submit_one, i] { submit_one(i); });
    }
  };

  for (size_t i = 0; i < config.flows; ++i) {
    double at_s = config.arrival_window_s * static_cast<double>(i) /
                  static_cast<double>(std::max<size_t>(1, config.flows));
    fstate[i].first_submit = sim::SimTime::from_seconds(at_s);
    engine.post_at(sim::SimTime::from_seconds(at_s),
                   [&submit_one, i] { submit_one(i); });
  }

  engine.run();

  result.unsettled =
      result.flows - result.completed - result.failed - result.gave_up;
  result.broker = broker.stats();
  std::sort(latencies.begin(), latencies.end());
  result.p50_s = percentile(latencies, 0.50);
  result.p99_s = percentile(latencies, 0.99);
  result.jain_fairness = broker.quotas().fairness();
  result.virtual_s = engine.now().seconds();
  result.engine_events = engine.events_processed();
  result.fingerprint = index.fingerprint();
  result.broker_report = broker.report();
  return result;
}

}  // namespace pico::federation
