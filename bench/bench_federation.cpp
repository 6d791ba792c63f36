// Federation scale bench (A14): the three robustness quantities the
// federated-failover tentpole makes first-class, measured on a 3-site
// federation driven by thousands of simulated users:
//
//  completion  - fraction of a 10^5-flow campaign that completes when a
//                whole site goes dark mid-campaign (SiteOutage) and a peer
//                browns out: the broker must checkpoint-resume stranded
//                flows at the survivors. CI gates >= 99%, and the shared
//                publish-index fingerprint must be byte-identical to the
//                fault-free run (the cross-site integrity contract: chaos
//                may delay work, never change or lose it).
//  fairness    - Jain index over per-user completions under fair-share
//                admission control (2000 equal-weight users; floor 0.97).
//  recovery    - virtual seconds from outage onset until the last stranded
//                flow settles at a peer (ceiling 900 s).
//
// p99/p50 flow latency (submit -> settle, virtual time) and the driver's
// wall-clock flows/s are recorded alongside. Emits a pico.bench.v2 document
// (default BENCH_federation.json). On gate failure the chaos run's broker
// report is dumped to federation-report.json for the CI artifact upload.
#include <cstdio>
#include <string>

#include "fault/schedule.hpp"
#include "federation/campaign.hpp"
#include "harness.hpp"
#include "util/bytes.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

using namespace pico;
using util::Json;

namespace {

Json campaign_json(const federation::FederatedCampaignResult& r,
                   double wall_s) {
  return Json::object({
      {"flows", static_cast<int64_t>(r.flows)},
      {"completed", static_cast<int64_t>(r.completed)},
      {"failed", static_cast<int64_t>(r.failed)},
      {"unsettled", static_cast<int64_t>(r.unsettled)},
      {"gave_up", static_cast<int64_t>(r.gave_up)},
      {"completion_frac", r.completion_frac()},
      {"rejected_submissions", static_cast<int64_t>(r.rejected_submissions)},
      {"resubmissions", static_cast<int64_t>(r.resubmissions)},
      {"failovers", static_cast<int64_t>(r.broker.failovers)},
      {"resumed", static_cast<int64_t>(r.broker.resumed)},
      {"reconciled", static_cast<int64_t>(r.broker.reconciled)},
      {"optional_steps_dropped",
       static_cast<int64_t>(r.broker.optional_dropped)},
      {"parked", static_cast<int64_t>(r.broker.parked)},
      {"recovery_s", r.broker.recovery_s},
      {"p50_s", r.p50_s},
      {"p99_s", r.p99_s},
      {"jain_fairness", r.jain_fairness},
      {"virtual_s", r.virtual_s},
      {"engine_events", static_cast<int64_t>(r.engine_events)},
      {"fingerprint", util::format("%016llx", static_cast<unsigned long long>(
                                                  r.fingerprint))},
      {"wall_ms", wall_s * 1e3},
      {"flows_per_s",
       wall_s > 0 ? static_cast<double>(r.flows) / wall_s : 0.0},
  });
}

}  // namespace

int main(int argc, char** argv) {
  // Site-kill chaos cancels thousands of in-flight runs on purpose; the flow
  // service warns per cancellation, which would swamp the bench output.
  util::LogConfig::set_level(util::LogLevel::Error);
  bench::Harness h("federation", argc, argv);
  const bool smoke = h.smoke();

  const double kCompletionMin = 0.99;
  const double kRecoveryCeilingS = 900.0;
  const double kFairnessMin = 0.97;

  federation::FederatedCampaignConfig cfg;
  cfg.flows = smoke ? 5000 : 100000;
  cfg.users = smoke ? 200 : 2000;
  cfg.arrival_window_s = smoke ? 900 : 3600;
  cfg.broker.quota.max_inflight_total = smoke ? 400 : 4000;
  cfg.broker.quota.min_user_inflight = 4;

  // Fault-free reference: same flow population, no chaos.
  double t0 = bench::now_s();
  federation::FederatedCampaignResult clean =
      federation::run_federated_campaign(cfg);
  double clean_wall_s = bench::now_s() - t0;
  std::printf(
      "clean  %6zu flows  %5.1f%% done  p50 %6.1fs p99 %6.1fs  jain %.4f  "
      "%7.0f flows/s  fp %016llx\n",
      clean.flows, 100.0 * clean.completion_frac(), clean.p50_s, clean.p99_s,
      clean.jain_fairness,
      static_cast<double>(clean.flows) / clean_wall_s,
      static_cast<unsigned long long>(clean.fingerprint));

  // Chaos: mid-campaign site kill, a peer brownout, and a short partition —
  // the A14 script. Targets are sites 1 and 2 of the default 3-site layout.
  federation::FederatedCampaignConfig chaos_cfg = cfg;
  double scale = smoke ? 0.25 : 1.0;
  chaos_cfg.chaos.name = "a14-site-chaos";
  chaos_cfg.chaos.add({fault::FaultKind::SiteOutage, 1200 * scale, 600 * scale,
                       cfg.sites[1].name, 0});
  chaos_cfg.chaos.add({fault::FaultKind::SiteBrownout, 2000 * scale,
                       400 * scale, cfg.sites[2].name, 0.6});
  chaos_cfg.chaos.add({fault::FaultKind::SitePartition, 2800 * scale,
                       120 * scale, cfg.sites[1].name, 0});
  t0 = bench::now_s();
  federation::FederatedCampaignResult chaos =
      federation::run_federated_campaign(chaos_cfg);
  double chaos_wall_s = bench::now_s() - t0;
  std::printf(
      "chaos  %6zu flows  %5.1f%% done  p50 %6.1fs p99 %6.1fs  jain %.4f  "
      "%7.0f flows/s  fp %016llx\n"
      "       %llu failovers (%llu resumed)  %llu reconciled  %llu shed  "
      "recovery %.1fs\n",
      chaos.flows, 100.0 * chaos.completion_frac(), chaos.p50_s, chaos.p99_s,
      chaos.jain_fairness,
      static_cast<double>(chaos.flows) / chaos_wall_s,
      static_cast<unsigned long long>(chaos.fingerprint),
      static_cast<unsigned long long>(chaos.broker.failovers),
      static_cast<unsigned long long>(chaos.broker.resumed),
      static_cast<unsigned long long>(chaos.broker.reconciled),
      static_cast<unsigned long long>(chaos.broker.optional_dropped),
      chaos.broker.recovery_s);

  h.results = Json::object({
      {"sites", static_cast<int64_t>(cfg.sites.size())},
      {"flows", static_cast<int64_t>(cfg.flows)},
      {"users", static_cast<int64_t>(cfg.users)},
      {"max_inflight_total",
       static_cast<int64_t>(cfg.broker.quota.max_inflight_total)},
      {"fingerprint_match", chaos.fingerprint == clean.fingerprint ? 1 : 0},
      {"clean", campaign_json(clean, clean_wall_s)},
      {"chaos", campaign_json(chaos, chaos_wall_s)},
  });
  for (const char* run : {"clean", "chaos"}) {
    const std::string at = std::string(run) + ".";
    h.gate(at + "flows", at + "flows", ">", 0);
    h.gate(at + "p50", at + "p50_s", ">=", 0);
    h.gate(at + "p99", at + "p99_s", ">=", 0);
  }
  h.gate("clean.completion", "clean.completion_frac", ">=", 1.0);
  h.gate("chaos.completion", "chaos.completion_frac", ">=", kCompletionMin);
  h.gate("fingerprint_match", "fingerprint_match", "==", 1);
  h.gate("chaos.failovers", "chaos.failovers", ">", 0);
  h.gate("chaos.resumed", "chaos.resumed", ">", 0);
  h.gate("chaos.recovery", "chaos.recovery_s", ">", 0);
  h.gate("chaos.recovery_ceiling", "chaos.recovery_s", "<=", kRecoveryCeilingS);
  h.gate("clean.fairness", "clean.jain_fairness", ">=", kFairnessMin);
  h.gate("chaos.fairness", "chaos.jain_fairness", ">=", kFairnessMin);
  const int rc = h.finish();
  if (rc != 0) {
    // Leave the chaos broker report behind for the CI failure artifact.
    util::write_file("federation-report.json",
                     chaos.broker_report.dump(2) + "\n");
    std::printf("wrote federation-report.json (gate failure diagnostics)\n");
  }
  return rc;
}
