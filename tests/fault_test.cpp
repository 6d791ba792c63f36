// Fault-injection tests: the chaos schedule DSL, the injector applied to a
// live facility, and the acceptance scenario from the robustness work — a
// 5-minute transfer outage plus a 10% compute-node failure window plus a
// mid-campaign token expiry, with campaign-level recovery turned on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/campaign.hpp"
#include "core/facility.hpp"
#include "core/report.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "telemetry/export.hpp"
#include "util/crc64.hpp"

namespace pico::fault {
namespace {

// ------------------------------------------------------------ schedule ------

TEST(FaultSchedule, KindNamesRoundTrip) {
  for (FaultKind kind :
       {FaultKind::LinkDegrade, FaultKind::LinkPartition,
        FaultKind::TransferOutage, FaultKind::ComputeOutage,
        FaultKind::PbsDrain, FaultKind::AuthOutage, FaultKind::TokenExpiry,
        FaultKind::NodeFailureRate, FaultKind::OrchestratorCrash,
        FaultKind::NotificationLoss, FaultKind::WireBitFlip,
        FaultKind::StorageCorrupt, FaultKind::TruncatedLanding}) {
    auto back = fault_kind_from_name(fault_kind_name(kind));
    ASSERT_TRUE(back);
    EXPECT_EQ(back.value(), kind);
  }
  EXPECT_FALSE(fault_kind_from_name("power_cut"));
}

TEST(FaultSchedule, JsonRoundTrip) {
  auto parsed = FaultSchedule::from_text(R"({
    "name": "beamtime-outage",
    "events": [
      {"kind": "transfer_outage", "at_s": 600, "duration_s": 300},
      {"kind": "node_failure_rate", "at_s": 0, "duration_s": 3600,
       "severity": 0.10},
      {"kind": "link_degrade", "at_s": 100, "duration_s": 60,
       "target": "user-switch", "severity": 0.25},
      {"kind": "token_expiry", "at_s": 1200}
    ]})");
  ASSERT_TRUE(parsed);
  const FaultSchedule& s = parsed.value();
  EXPECT_EQ(s.name, "beamtime-outage");
  ASSERT_EQ(s.events.size(), 4u);
  EXPECT_EQ(s.events[0].kind, FaultKind::TransferOutage);
  EXPECT_DOUBLE_EQ(s.events[1].severity, 0.10);
  EXPECT_EQ(s.events[2].target, "user-switch");
  EXPECT_DOUBLE_EQ(s.events[3].duration_s, 0.0);

  auto again = FaultSchedule::from_json(s.to_json());
  ASSERT_TRUE(again);
  EXPECT_EQ(again.value().to_json().dump(), s.to_json().dump());
}

TEST(FaultSchedule, ValidationRejectsBadDocuments) {
  EXPECT_FALSE(FaultSchedule::from_text("not json"));
  EXPECT_FALSE(FaultSchedule::from_text("[]"));
  EXPECT_FALSE(FaultSchedule::from_text(R"({"name": "x"})"));  // no events
  EXPECT_FALSE(FaultSchedule::from_text(
      R"({"name": "x", "events": [{"kind": "warp_core_breach"}]})"));
  EXPECT_FALSE(FaultSchedule::from_text(
      R"({"name": "x", "events": [{"kind": "transfer_outage", "at_s": -1}]})"));
  EXPECT_FALSE(FaultSchedule::from_text(
      R"({"name": "x",
          "events": [{"kind": "transfer_outage", "duration_s": -5}]})"));
  EXPECT_FALSE(FaultSchedule::from_text(
      R"({"name": "x", "events": [{"kind": "link_degrade", "severity": 0}]})"));
  EXPECT_FALSE(FaultSchedule::from_text(
      R"({"name": "x",
          "events": [{"kind": "node_failure_rate", "severity": 1.5}]})"));
  // The silent-corruption kinds are probabilities: severity must be in (0,1].
  EXPECT_FALSE(FaultSchedule::from_text(
      R"({"name": "x", "events": [{"kind": "wire_bit_flip", "severity": 0}]})"));
  EXPECT_FALSE(FaultSchedule::from_text(
      R"({"name": "x",
          "events": [{"kind": "storage_corrupt", "severity": 1.5}]})"));
  EXPECT_FALSE(FaultSchedule::from_text(
      R"({"name": "x",
          "events": [{"kind": "truncated_landing", "severity": -0.1}]})"));
  EXPECT_TRUE(FaultSchedule::from_text(
      R"({"name": "x",
          "events": [{"kind": "wire_bit_flip", "at_s": 10, "duration_s": 60,
                      "severity": 0.05}]})"));
}

TEST(FaultSchedule, DowntimeMergesOverlappingWindows) {
  FaultSchedule s;
  s.add(FaultEvent{FaultKind::TransferOutage, 100, 100, "", 0});
  s.add(FaultEvent{FaultKind::TransferOutage, 150, 100, "", 0});  // overlaps
  s.add(FaultEvent{FaultKind::TransferOutage, 400, 50, "", 0});   // disjoint
  s.add(FaultEvent{FaultKind::ComputeOutage, 0, 1000, "", 0});    // other kind
  // [100,250] merged with [400,450]: 150 + 50.
  EXPECT_DOUBLE_EQ(s.downtime_s(FaultKind::TransferOutage, 3600), 200.0);
  // Horizon clips the tail window.
  EXPECT_DOUBLE_EQ(s.downtime_s(FaultKind::TransferOutage, 425), 175.0);
  EXPECT_DOUBLE_EQ(s.downtime_s(FaultKind::ComputeOutage, 500), 500.0);
  EXPECT_DOUBLE_EQ(s.downtime_s(FaultKind::PbsDrain, 3600), 0.0);
}

}  // namespace
}  // namespace pico::fault

// ------------------------------------------------------------ injector ------
namespace pico::core {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultSchedule;

FacilityConfig fault_test_config(const std::string& tag) {
  FacilityConfig fc;
  fc.artifact_dir = testing::TempDir() + "/fault_test_artifacts_" + tag;
  fc.seed = 1234;
  fc.cost.provision_delay_s = 5.0;
  fc.cost.provision_jitter_s = 0.0;
  fc.cost.env_warmup_s = 1.0;
  fc.cost.env_warmup_jitter_s = 0.0;
  return fc;
}

sim::SimTime at(double s) { return sim::SimTime::from_seconds(s); }

TEST(Injector, TransferOutageWindowTogglesAvailability) {
  Facility facility(fault_test_config("inj_transfer"));
  FaultSchedule chaos;
  chaos.name = "t";
  chaos.add(FaultEvent{FaultKind::TransferOutage, 100, 50, "", 0});
  auto injector = facility.install_faults(chaos);
  ASSERT_TRUE(injector);

  facility.engine().run_until(at(99));
  EXPECT_TRUE(facility.transfer().available());
  facility.engine().run_until(at(120));
  EXPECT_FALSE(facility.transfer().available());
  facility.engine().run_until(at(200));
  EXPECT_TRUE(facility.transfer().available());
  // Begin + end both logged for diagnostics.
  ASSERT_EQ(injector.value()->log().size(), 2u);
  EXPECT_TRUE(injector.value()->log()[0].begin);
  EXPECT_FALSE(injector.value()->log()[1].begin);
}

TEST(Injector, OverlappingOutagesRestoreOnlyAtLastEnd) {
  Facility facility(fault_test_config("inj_overlap"));
  FaultSchedule chaos;
  chaos.add(FaultEvent{FaultKind::ComputeOutage, 10, 50, "", 0});   // [10,60]
  chaos.add(FaultEvent{FaultKind::ComputeOutage, 30, 100, "", 0});  // [30,130]
  ASSERT_TRUE(facility.install_faults(chaos));
  facility.engine().run_until(at(20));
  EXPECT_FALSE(facility.compute().available());
  facility.engine().run_until(at(70));  // first window over, second still open
  EXPECT_FALSE(facility.compute().available());
  facility.engine().run_until(at(135));
  EXPECT_TRUE(facility.compute().available());
}

TEST(Injector, NodeFailureRateAppliedAndRestored) {
  Facility facility(fault_test_config("inj_nodes"));
  FaultSchedule chaos;
  // Empty target: falls back to the facility's Polaris endpoint.
  chaos.add(FaultEvent{FaultKind::NodeFailureRate, 50, 100, "", 0.10});
  ASSERT_TRUE(facility.install_faults(chaos));
  const auto& ep = facility.polaris_endpoint();
  EXPECT_DOUBLE_EQ(facility.compute().node_failure_prob(ep), 0.0);
  facility.engine().run_until(at(60));
  EXPECT_DOUBLE_EQ(facility.compute().node_failure_prob(ep), 0.10);
  facility.engine().run_until(at(160));
  EXPECT_DOUBLE_EQ(facility.compute().node_failure_prob(ep), 0.0);
}

TEST(Injector, PbsDrainHoldsQueue) {
  Facility facility(fault_test_config("inj_drain"));
  FaultSchedule chaos;
  chaos.add(FaultEvent{FaultKind::PbsDrain, 10, 30, "", 0});
  ASSERT_TRUE(facility.install_faults(chaos));
  facility.engine().run_until(at(20));
  EXPECT_TRUE(facility.pbs().draining());
  facility.engine().run_until(at(50));
  EXPECT_FALSE(facility.pbs().draining());
}

TEST(Injector, AuthOutageFailsValidationFacilityWide) {
  Facility facility(fault_test_config("inj_auth"));
  FaultSchedule chaos;
  chaos.add(FaultEvent{FaultKind::AuthOutage, 10, 20, "", 0});
  ASSERT_TRUE(facility.install_faults(chaos));
  EXPECT_TRUE(facility.auth().validate(facility.user_token(), "transfer"));
  facility.engine().run_until(at(15));
  EXPECT_FALSE(facility.auth().validate(facility.user_token(), "transfer"));
  facility.engine().run_until(at(40));
  EXPECT_TRUE(facility.auth().validate(facility.user_token(), "transfer"));
}

TEST(Injector, TokenExpiryRevokesAndRefreshReissues) {
  Facility facility(fault_test_config("inj_token"));
  FaultSchedule chaos;
  chaos.add(FaultEvent{FaultKind::TokenExpiry, 30, 0, "", 0});
  ASSERT_TRUE(facility.install_faults(chaos));
  facility.engine().run_until(at(20));
  EXPECT_TRUE(facility.auth().validate(facility.user_token(), "flows"));
  // A refresh against a still-valid token is a no-op (no churn).
  auth::Token before = facility.user_token();
  EXPECT_EQ(facility.refresh_user_token(), before);
  facility.engine().run_until(at(40));
  EXPECT_FALSE(facility.auth().validate(facility.user_token(), "flows"));
  // Refresh after expiry mints a usable replacement.
  facility.refresh_user_token();
  EXPECT_NE(facility.user_token(), before);
  for (const char* scope : {"transfer", "compute", "search.ingest", "flows"}) {
    EXPECT_TRUE(facility.auth().validate(facility.user_token(), scope));
  }
}

TEST(Injector, LinkDegradeScalesCapacityAndRestores) {
  Facility facility(fault_test_config("inj_degrade"));
  double original =
      facility.topology().link(facility.user_switch_link()).capacity_bps;
  FaultSchedule chaos;
  chaos.add(FaultEvent{FaultKind::LinkDegrade, 10, 20, "user-switch", 0.25});
  ASSERT_TRUE(facility.install_faults(chaos));
  facility.engine().run_until(at(15));
  EXPECT_NEAR(
      facility.topology().link(facility.user_switch_link()).capacity_bps,
      original * 0.25, 1e-6);
  facility.engine().run_until(at(40));
  EXPECT_NEAR(
      facility.topology().link(facility.user_switch_link()).capacity_bps,
      original, 1e-6);
}

TEST(Injector, LinkPartitionSeversRouteForWindow) {
  Facility facility(fault_test_config("inj_partition"));
  FaultSchedule chaos;
  chaos.add(FaultEvent{FaultKind::LinkPartition, 10, 20, "user-switch", 0});
  ASSERT_TRUE(facility.install_faults(chaos));
  auto user = facility.topology().node("userpc");
  auto eagle = facility.topology().node("eagle");
  ASSERT_TRUE(user);
  ASSERT_TRUE(eagle);
  EXPECT_TRUE(facility.topology().route(user.value(), eagle.value()));
  facility.engine().run_until(at(15));
  EXPECT_FALSE(facility.topology().route(user.value(), eagle.value()));
  facility.engine().run_until(at(40));
  EXPECT_TRUE(facility.topology().route(user.value(), eagle.value()));
}

TEST(Injector, UnknownLinkTargetRejectedAtInstall) {
  Facility facility(fault_test_config("inj_badlink"));
  FaultSchedule chaos;
  chaos.add(FaultEvent{FaultKind::LinkPartition, 10, 20, "no-such-link", 0});
  EXPECT_FALSE(facility.install_faults(chaos));
}

TEST(Injector, SiteKindsRejectedByAFacility) {
  // Site-level chaos belongs to the federated driver, whose injector owns
  // the site hook; a single facility refuses it instead of darkening itself.
  for (FaultKind kind : {FaultKind::SiteOutage, FaultKind::SitePartition,
                         FaultKind::SiteBrownout}) {
    Facility facility(fault_test_config("inj_site"));
    FaultSchedule chaos;
    chaos.add(FaultEvent{kind, 10, 20, "", 0.5});
    auto installed = facility.install_faults(chaos);
    ASSERT_FALSE(installed) << fault_kind_name(kind);
    EXPECT_NE(installed.error().message.find("site_hook"), std::string::npos);
    EXPECT_EQ(facility.injector(), nullptr);
    facility.engine().run_until(at(20));
    EXPECT_TRUE(facility.transfer().available());
    EXPECT_TRUE(facility.compute().available());
  }
}

// ----------------------------------------------- chaos campaign recovery ----

/// The acceptance scenario: hyperspectral campaign under a 5-minute transfer
/// endpoint outage, a 10% compute-node failure-rate window, and one
/// mid-campaign token expiry — recovery enabled.
CampaignConfig acceptance_config() {
  CampaignConfig cfg;
  cfg.use_case = UseCase::Hyperspectral;
  cfg.start_period_s = 30;
  cfg.duration_s = 1800;
  cfg.file_bytes = 91'000'000;
  cfg.label_prefix = "chaos";
  cfg.chaos.name = "acceptance";
  cfg.chaos.add(FaultEvent{FaultKind::TransferOutage, 600, 300, "", 0});
  cfg.chaos.add(FaultEvent{FaultKind::NodeFailureRate, 0, 1800, "", 0.10});
  cfg.chaos.add(FaultEvent{FaultKind::TokenExpiry, 1200, 0, "", 0});
  cfg.recovery.enabled = true;
  cfg.recovery.resubmit_budget = 4;
  cfg.recovery.resubmit_delay_s = 60;
  cfg.step_timeouts = {{"Transfer", 600}};
  return cfg;
}

/// One acceptance campaign plus CRC-64 fingerprints of what its health plane
/// left behind: the health report and the full Prometheus exposition.
struct AcceptanceRun {
  CampaignResult result;
  uint64_t health_crc = 0;
  uint64_t prom_crc = 0;
  size_t alerts = 0;
  size_t provider_scores = 0;
};

AcceptanceRun run_acceptance(const std::string& tag) {
  FacilityConfig fc = fault_test_config(tag);
  fc.seed = 4242;
  Facility facility(fc);
  AcceptanceRun run;
  run.result = run_campaign(facility, acceptance_config());
  const CampaignResult& result = run.result;

  // Zero double-publish: every eventually-successful flow owns exactly one
  // search record (the Publish subject is the document id), and no label
  // settles twice.
  std::set<std::string> labels;
  size_t successes = 0;
  for (const auto* bucket : {&result.in_window, &result.late}) {
    for (const auto& f : *bucket) {
      EXPECT_TRUE(labels.insert(f.label).second) << "double-settled " << f.label;
      if (f.success) ++successes;
    }
  }
  EXPECT_EQ(facility.index().size(), successes);

  // No leaks once the campaign drains: every span closed, and only the
  // watchdog-exempt actor rings (chaos, scrubber, campaign) remain open.
  EXPECT_GT(facility.telemetry().flight.ring_count(), successes);
  EXPECT_EQ(facility.telemetry().tracer.open_count(), 0u);
  const auto& exempt = facility.health().config().watchdog_exempt;
  for (const auto& open : facility.telemetry().flight.open_flows()) {
    EXPECT_NE(std::find(exempt.begin(), exempt.end(), open.subject),
              exempt.end())
        << "flight ring left open: " << open.subject;
  }

  const telemetry::health::HealthReport health = facility.health().report();
  run.health_crc = util::crc64(health.to_json().dump(2));
  run.prom_crc = util::crc64(facility.telemetry().metrics.to_prometheus());
  run.alerts = health.alerts.size();
  run.provider_scores = health.providers.size();
  return run;
}

TEST(ChaosCampaign, AcceptanceScenarioRecoversAtLeast95Percent) {
  const AcceptanceRun run = run_acceptance("acceptance");
  const CampaignResult& result = run.result;
  const RobustnessStats& rb = result.robustness;
  size_t logical = result.in_window.size() + result.late.size();

  ASSERT_GT(logical, 30u);  // the campaign actually ran at scale
  // The outage and the node failures were felt...
  EXPECT_GT(rb.run_failures, 0u);
  EXPECT_GT(rb.resubmits, 0u);
  EXPECT_GT(rb.recovered, 0u);
  EXPECT_GT(rb.launches, logical);
  // ...and recovery brought eventual success to >= 95%.
  EXPECT_GE(rb.eventual_success_pct(logical), 95.0);
  EXPECT_LE(rb.lost, logical / 20);
  // Recovery accounting is self-consistent.
  EXPECT_EQ(rb.launches, logical + rb.resubmits);
  EXPECT_GT(rb.mttr_s.count(), 0u);
  EXPECT_GE(rb.downtime_s.at("transfer_outage"), 300.0 - 1e-9);

  // The report renders with the headline sections present.
  std::string report = render_robustness(result);
  EXPECT_NE(report.find("transfer_outage"), std::string::npos);
  EXPECT_NE(report.find("eventually succeeded"), std::string::npos);
  EXPECT_NE(report.find("MTTR"), std::string::npos);
  EXPECT_NE(report.find("Circuit breakers"), std::string::npos);

  // The health plane's outputs are pinned byte for byte: a change that
  // deterministically alters an alert, score or exported series fails here
  // even though a same-seed re-run would still agree with itself.
  EXPECT_GE(run.alerts, 1u);
  EXPECT_GE(run.provider_scores, 1u);
  EXPECT_EQ(run.health_crc, 0x4036fb2961e78ac7ull) << std::hex << run.health_crc;
  EXPECT_EQ(run.prom_crc, 0x188fb0ab45f75818ull) << std::hex << run.prom_crc;
}

TEST(ChaosCampaign, SameSeedProducesByteIdenticalRobustnessReports) {
  const CampaignResult a = run_acceptance("det_a").result;
  const CampaignResult b = run_acceptance("det_b").result;
  EXPECT_EQ(render_robustness(a), render_robustness(b));
  EXPECT_EQ(flows_csv(a), flows_csv(b));
}

TEST(ChaosCampaign, OrchestratorCrashReplayedFromJournal) {
  FacilityConfig fc = fault_test_config("crash");
  fc.seed = 515;
  Facility facility(fc);
  CampaignConfig cfg;
  cfg.use_case = UseCase::Hyperspectral;
  cfg.start_period_s = 30;
  cfg.duration_s = 600;
  cfg.file_bytes = 91'000'000;
  cfg.label_prefix = "crash";
  cfg.chaos.name = "blackout";
  cfg.chaos.add(FaultEvent{FaultKind::OrchestratorCrash, 200, 100, "", 0});
  cfg.recovery.enabled = true;
  CampaignResult result = run_campaign(facility, cfg);

  size_t logical = result.in_window.size() + result.late.size();
  ASSERT_GT(logical, 5u);
  // Flows that settled during the blackout were reconciled from the journal,
  // exactly once each.
  EXPECT_GT(result.robustness.crash_replays, 0u);
  EXPECT_EQ(result.robustness.lost, 0u);
  std::set<std::string> labels;
  for (const auto* bucket : {&result.in_window, &result.late}) {
    for (const auto& f : *bucket) {
      EXPECT_TRUE(labels.insert(f.label).second) << "double-settled " << f.label;
      EXPECT_TRUE(f.success);
    }
  }
  EXPECT_EQ(facility.index().size(), labels.size());
}

TEST(Injector, WireBitFlipWindowSetsAndRestoresProbability) {
  Facility facility(fault_test_config("inj_biflip"));
  FaultSchedule chaos;
  chaos.add(FaultEvent{FaultKind::WireBitFlip, 100, 50, "", 0.2});
  ASSERT_TRUE(facility.install_faults(chaos));
  EXPECT_DOUBLE_EQ(facility.transfer().wire_corruption_prob(), 0.0);
  facility.engine().run_until(at(120));
  EXPECT_DOUBLE_EQ(facility.transfer().wire_corruption_prob(), 0.2);
  facility.engine().run_until(at(200));
  EXPECT_DOUBLE_EQ(facility.transfer().wire_corruption_prob(), 0.0);
}

TEST(Injector, TruncatedLandingWindowSetsAndRestoresProbability) {
  Facility facility(fault_test_config("inj_trunc"));
  FaultSchedule chaos;
  chaos.add(FaultEvent{FaultKind::TruncatedLanding, 100, 50, "", 0.4});
  ASSERT_TRUE(facility.install_faults(chaos));
  EXPECT_DOUBLE_EQ(facility.transfer().truncation_prob(), 0.0);
  facility.engine().run_until(at(120));
  EXPECT_DOUBLE_EQ(facility.transfer().truncation_prob(), 0.4);
  facility.engine().run_until(at(200));
  EXPECT_DOUBLE_EQ(facility.transfer().truncation_prob(), 0.0);
}

TEST(Injector, StorageCorruptEventFlipsBitsAtRest) {
  Facility facility(fault_test_config("inj_rot"));
  // Pre-stage delivered objects on Eagle (the injector's default store).
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(facility.eagle().put("exp/f" + std::to_string(i) + ".emd",
                                     std::vector<uint8_t>(100, 3),
                                     facility.engine().now()));
  }
  FaultSchedule chaos;
  chaos.add(FaultEvent{FaultKind::StorageCorrupt, 50, 0, "", 0.3});
  ASSERT_TRUE(facility.install_faults(chaos));
  facility.engine().run_until(at(49));
  for (const auto& path : facility.eagle().list()) {
    EXPECT_TRUE(facility.eagle().verify(path).value()) << path;
  }
  facility.engine().run_until(at(60));
  int corrupt = 0;
  for (const auto& path : facility.eagle().list()) {
    if (!facility.eagle().verify(path).value()) ++corrupt;
  }
  EXPECT_GT(corrupt, 0);
  EXPECT_LT(corrupt, 40);  // severity is a probability, not a wipe
}

TEST(Injector, StorageCorruptUnknownStoreTargetRejected) {
  Facility facility(fault_test_config("inj_badstore"));
  FaultSchedule chaos;
  chaos.add(FaultEvent{FaultKind::StorageCorrupt, 10, 0, "no-such-store", 0.5});
  EXPECT_FALSE(facility.install_faults(chaos));
}

TEST(Injector, NotificationLossWindowSetsAndRestoresProbability) {
  Facility facility(fault_test_config("inj_notif"));
  FaultSchedule chaos;
  chaos.name = "nl";
  chaos.add(FaultEvent{FaultKind::NotificationLoss, 100, 50, "", 0.35});
  auto injector = facility.install_faults(chaos);
  ASSERT_TRUE(injector);

  facility.engine().run_until(at(99));
  EXPECT_DOUBLE_EQ(facility.flows().notification_loss_prob(), 0.0);
  facility.engine().run_until(at(120));
  EXPECT_DOUBLE_EQ(facility.flows().notification_loss_prob(), 0.35);
  facility.engine().run_until(at(200));
  EXPECT_DOUBLE_EQ(facility.flows().notification_loss_prob(), 0.0);
}

namespace {

/// Stable artifact fingerprint of the search index: every published record's
/// id + content, sorted by id so ingest order does not matter. Excludes
/// ingest timestamps — publication *content* must not depend on how the
/// orchestrator learned about completions.
std::string index_fingerprint(Facility& facility) {
  std::map<std::string, std::string> by_id;
  for (const search::Document* doc : facility.index().snapshot()) {
    by_id[doc->id] = doc->content.dump(2);
  }
  std::string out;
  for (const auto& [id, content] : by_id) out += id + "\n" + content + "\n";
  return out;
}

CampaignConfig notification_loss_campaign() {
  CampaignConfig cfg;
  cfg.use_case = UseCase::Hyperspectral;
  cfg.start_period_s = 30;
  cfg.duration_s = 1200;
  cfg.file_bytes = 91'000'000;
  cfg.label_prefix = "nl";
  return cfg;
}

}  // namespace

// The notification-loss fallback, end to end: an event-driven campaign whose
// completion notifications are ALL dropped must still settle every flow (the
// adaptive reconcile poller discovers each completion) and publish records
// byte-identical to a pure-polling campaign's.
TEST(ChaosCampaign, TotalNotificationLossSettlesAllFlowsViaAdaptivePoller) {
  FacilityConfig fa = fault_test_config("notif_loss_events");
  fa.flow.completion_mode = flow::CompletionMode::Events;
  Facility events_facility(fa);
  CampaignConfig cfg = notification_loss_campaign();
  cfg.chaos.name = "total-notification-loss";
  // The window outlives the campaign so late flows also lose every delivery.
  cfg.chaos.add(FaultEvent{FaultKind::NotificationLoss, 0, 4000, "", 1.0});
  CampaignResult with_loss = run_campaign(events_facility, cfg);

  EXPECT_EQ(with_loss.failed, 0u);
  ASSERT_GT(with_loss.in_window.size(), 10u);
  for (const auto* bucket : {&with_loss.in_window, &with_loss.late}) {
    for (const auto& f : *bucket) {
      EXPECT_TRUE(f.success) << f.label;
      for (const auto& s : f.timing.steps) {
        EXPECT_EQ(s.notifications, 0) << f.label << "/" << s.name;
        EXPECT_GT(s.polls, 0) << f.label << "/" << s.name;
      }
    }
  }
  // Providers did emit notifications; chaos dropped every one of them.
  auto summary = telemetry::summarize(events_facility.trace(),
                                      events_facility.telemetry().metrics);
  EXPECT_GT(summary.signaling.notifications_lost, 0u);
  EXPECT_EQ(summary.signaling.notifications, 0u);  // delivered = emitted - lost
  EXPECT_GT(summary.signaling.polls, 0u);

  // Same campaign under the paper's pure-polling orchestrator: the published
  // artifacts must be byte-identical — signaling changes *when* completions
  // are discovered, never *what* gets produced.
  Facility polling_facility(fault_test_config("notif_loss_polling"));
  CampaignResult polling = run_campaign(polling_facility,
                                        notification_loss_campaign());
  EXPECT_EQ(polling.failed, 0u);
  EXPECT_EQ(events_facility.index().size(), polling_facility.index().size());
  EXPECT_EQ(index_fingerprint(events_facility),
            index_fingerprint(polling_facility));
}

// ------------------------------------------- end-to-end integrity (A9) -----

namespace {

double counter_value(Facility& facility, const std::string& name,
                     const std::string& help,
                     const telemetry::Labels& labels = {}) {
  return facility.telemetry().metrics.counter(name, help, labels).value();
}

constexpr const char* kCorruptionHelp =
    "Integrity violations detected, by location";
constexpr const char* kResumeHelp =
    "Chunks skipped on retry because the manifest already verified them";

/// One streaming transfer flow interrupted by a link partition at ~50% file
/// progress. The partition outlives the Transfer step's timeout, so the
/// orchestrator abandons the attempt and dispatches a fresh transfer task.
flow::RunId run_partitioned_flow(Facility& facility) {
  auto def = hyperspectral_flow(facility);
  for (auto& step : def.steps) {
    if (step.name != "Transfer") continue;
    step.params["streaming_chunk_bytes"] = static_cast<int64_t>(8'000'000);
    step.timeout_s = 25;
    step.max_retries = 4;
  }
  // Wire plan: chunks start landing ~t=4 at 10.5 MB/s (84 Mbps per-flow cap),
  // one 8 MB chunk every ~0.76 s. Partition at t=8.6 leaves ~6 of 12 chunks
  // (~50%) verified; the stalled attempt times out at ~t=26.5 and the retry
  // finishes after the t=28.6 heal.
  FaultSchedule chaos;
  chaos.add(FaultEvent{FaultKind::LinkPartition, 8.6, 20, "user-switch", 0});
  EXPECT_TRUE(facility.install_faults(chaos));
  EXPECT_TRUE(facility.stage_virtual_file("raw/resume.emd", 91'000'000));

  FlowInput input;
  input.file = "raw/resume.emd";
  input.dest = "exp/resume.emd";
  input.artifact_prefix = "resume";
  input.title = "resume acceptance";
  input.subject = "resume-acceptance";
  auto run = facility.flows().start(def, input.to_json(),
                                    facility.user_token(), "resume");
  EXPECT_TRUE(run);
  facility.engine().run();
  return run.value();
}

FacilityConfig resume_test_config(const std::string& tag) {
  FacilityConfig fc = fault_test_config(tag);
  fc.seed = 777;
  fc.cost.transfer_setup_jitter_s = 0.0;  // keep the fault at ~50% progress
  fc.transfer_max_retries = 8;
  return fc;
}

}  // namespace

// Acceptance: with verified resume, the transfer task dispatched after the
// timeout resumes from the manifest and moves < 60% of the file's bytes.
TEST(Integrity, RetriedFlowTransferResumesFromManifest) {
  Facility facility(resume_test_config("resume_on"));
  flow::RunId run = run_partitioned_flow(facility);

  const flow::RunInfo& info = facility.flows().info(run);
  ASSERT_EQ(info.state, flow::RunState::Succeeded) << info.error;
  ASSERT_GE(facility.flows().timing(run).steps.size(), 1u);
  EXPECT_GE(facility.flows().timing(run).steps[0].timeouts, 1);

  const util::Json& out = info.step_outputs.at(0);  // Transfer
  EXPECT_GT(out.at("chunks_resumed").as_int(0), 0);
  // The retried transfer moved well under 60% of the file.
  EXPECT_LT(out.at("wire_bytes").as_int(0),
            static_cast<int64_t>(0.6 * 91'000'000));
  EXPECT_GT(counter_value(facility, "transfer_chunks_resumed_total",
                          kResumeHelp),
            0.0);
  EXPECT_TRUE(facility.eagle().exists("exp/resume.emd"));
  EXPECT_TRUE(facility.eagle().verify("exp/resume.emd").value());
}

// The pre-PR baseline under the identical fault: whole-file restart. The
// abandoned attempt and its replacement each move the full file, so >= 150%
// of the bytes cross the wire.
TEST(Integrity, RestartModeMovesTheFileTwice) {
  Facility facility(resume_test_config("resume_off"));
  facility.transfer().set_verified_resume(false);
  flow::RunId run = run_partitioned_flow(facility);

  const flow::RunInfo& info = facility.flows().info(run);
  ASSERT_EQ(info.state, flow::RunState::Succeeded) << info.error;
  const util::Json& out = info.step_outputs.at(0);  // Transfer
  EXPECT_EQ(out.at("chunks_resumed").as_int(-1), 0);
  // The successful attempt alone re-sent everything...
  EXPECT_GE(out.at("wire_bytes").as_int(0), 91'000'000);
  // ...and together with the abandoned attempt the wire moved >= 150%.
  EXPECT_GE(counter_value(facility, "transfer_wire_bytes_total",
                          "Bytes that crossed the network (after compression)"),
            1.5 * 91'000'000);
}

// Acceptance: a campaign under seeded wire bit-flips publishes a search index
// byte-identical to the fault-free run's — corruption is always caught and
// repaired before publication, never laundered into results.
TEST(Integrity, WireBitFlipCampaignIndexMatchesFaultFree) {
  CampaignConfig cfg;
  cfg.use_case = UseCase::Hyperspectral;
  cfg.start_period_s = 30;
  cfg.duration_s = 1200;
  cfg.file_bytes = 91'000'000;
  cfg.label_prefix = "wf";
  cfg.recovery.enabled = true;
  cfg.recovery.resubmit_budget = 3;

  FacilityConfig fc = fault_test_config("wireflip_chaos");
  fc.seed = 2023;
  fc.transfer_max_retries = 8;
  Facility chaos_facility(fc);
  CampaignConfig chaos_cfg = cfg;
  chaos_cfg.chaos.name = "wire-bit-flips";
  // The window outlives the campaign so late transfers are exposed too.
  chaos_cfg.chaos.add(FaultEvent{FaultKind::WireBitFlip, 0, 4000, "", 0.15});
  CampaignResult with_chaos = run_campaign(chaos_facility, chaos_cfg);

  EXPECT_EQ(with_chaos.failed, 0u);
  EXPECT_EQ(with_chaos.robustness.lost, 0u);
  ASSERT_GT(with_chaos.in_window.size(), 10u);
  // The flips actually happened and were caught.
  EXPECT_GT(counter_value(chaos_facility, "corruption_detected_total",
                          kCorruptionHelp, {{"where", "wire"}}),
            0.0);

  FacilityConfig clean_fc = fault_test_config("wireflip_clean");
  clean_fc.seed = 2023;
  clean_fc.transfer_max_retries = 8;
  Facility clean_facility(clean_fc);
  CampaignResult clean = run_campaign(clean_facility, cfg);
  EXPECT_EQ(clean.failed, 0u);

  EXPECT_EQ(chaos_facility.index().size(), clean_facility.index().size());
  EXPECT_EQ(chaos_facility.index().fingerprint(),
            clean_facility.index().fingerprint());
}

// At-rest bit rot during a campaign: the periodic scrubber quarantines the
// damaged objects and provenance-driven repair re-lands clean copies, so the
// campaign ends with every delivered object intact.
TEST(Integrity, ScrubberRepairsSeededStorageCorruption) {
  FacilityConfig fc = fault_test_config("scrub_campaign");
  fc.seed = 99;
  Facility facility(fc);

  CampaignConfig cfg;
  cfg.use_case = UseCase::Hyperspectral;
  cfg.start_period_s = 30;
  cfg.duration_s = 1200;
  cfg.file_bytes = 91'000'000;
  cfg.label_prefix = "scrub";
  cfg.scrub_interval_s = 100;
  cfg.chaos.name = "bit-rot";
  cfg.chaos.add(FaultEvent{FaultKind::StorageCorrupt, 400, 0, "", 0.5});
  cfg.chaos.add(FaultEvent{FaultKind::StorageCorrupt, 800, 0, "", 0.5});
  CampaignResult result = run_campaign(facility, cfg);

  EXPECT_EQ(result.failed, 0u);
  ASSERT_NE(facility.scrubber(), nullptr);
  const auto& stats = facility.scrubber()->stats();
  EXPECT_GT(stats.scans, 5u);
  EXPECT_GT(stats.corrupt_found, 0u);
  EXPECT_EQ(stats.repairs_requested, stats.corrupt_found);
  EXPECT_GT(facility.eagle().quarantine_count(), 0u);
  EXPECT_GT(counter_value(facility, "corruption_detected_total",
                          kCorruptionHelp, {{"where", "at_rest"}}),
            0.0);
  EXPECT_GT(counter_value(facility, "transfer_repairs_total",
                          "Re-transfers submitted to repair quarantined "
                          "objects"),
            0.0);
  // Every repair landed: the namespace holds no corrupt object.
  for (const auto& path : facility.eagle().list()) {
    EXPECT_TRUE(facility.eagle().verify(path).value()) << path;
  }
}

// Exactly-once publication: dead-letter resubmission and crash replay of a
// flow whose Publish already landed must not double-publish. The idempotency
// key (subject + content hash) suppresses the duplicate and the campaign
// keeps one record per flow.
TEST(Integrity, DuplicatePublishSuppressedByIdempotencyKey) {
  FacilityConfig fc = fault_test_config("dup_publish");
  fc.seed = 31;
  Facility facility(fc);
  CampaignConfig cfg;
  cfg.use_case = UseCase::Hyperspectral;
  cfg.start_period_s = 30;
  cfg.duration_s = 1200;
  cfg.file_bytes = 91'000'000;
  cfg.label_prefix = "dup";
  // Publish takes ~1.2 s but the poller only discovers completion at the
  // ~3 s mark; a 2.5 s timeout abandons many first attempts *after* their
  // ingest has irrevocably started. The re-dispatched Publish must dedupe
  // against the attempt that still lands.
  cfg.step_timeouts["Publish"] = 2.5;
  CampaignResult result = run_campaign(facility, cfg);

  size_t successes = 0;
  std::set<std::string> labels;
  for (const auto* bucket : {&result.in_window, &result.late}) {
    for (const auto& f : *bucket) {
      EXPECT_TRUE(labels.insert(f.label).second) << "double-settled " << f.label;
      if (f.success) ++successes;
    }
  }
  ASSERT_GT(successes, 10u);
  // One record per successful flow, even though retried publishes happened.
  EXPECT_EQ(facility.index().size(), successes);
  EXPECT_GT(counter_value(facility, "publish_duplicates_suppressed_total",
                          "Search publishes suppressed by idempotency keys"),
            0.0);
}

TEST(ChaosCampaign, RecoveryDisabledCountsFailuresClassically) {
  FacilityConfig fc = fault_test_config("norecovery");
  Facility facility(fc);
  CampaignConfig cfg;
  cfg.use_case = UseCase::Hyperspectral;
  cfg.start_period_s = 30;
  cfg.duration_s = 600;
  cfg.file_bytes = 91'000'000;
  cfg.label_prefix = "nr";
  cfg.chaos.name = "outage-only";
  cfg.chaos.add(FaultEvent{FaultKind::TransferOutage, 100, 200, "", 0});
  // recovery.enabled stays false: failed flows are lost, not resubmitted.
  CampaignResult result = run_campaign(facility, cfg);
  EXPECT_GT(result.failed, 0u);
  EXPECT_EQ(result.robustness.resubmits, 0u);
  EXPECT_EQ(result.robustness.lost, result.failed);
  EXPECT_EQ(result.robustness.recovered, 0u);
}

}  // namespace
}  // namespace pico::core
