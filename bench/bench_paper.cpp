// The paper's evaluation (Sec. 3.3): two independent 1-hour campaigns
// (hyperspectral: 91 MB file every 30 s; spatiotemporal: 1200 MB every
// 120 s) over the simulated facility, each on a fresh facility with its own
// Polaris queue conditions (core::paper_experiment). Prints Table 1 beside
// the paper's measurements, the Fig. 4 itemized runtime statistics for both
// flows (A, B) and the shape claims the paper makes in prose, then gates
// them. Virtual time: both hours simulate in tens of milliseconds, so
// `--smoke` runs the very same campaigns.
#include <cstdio>
#include <string>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "harness.hpp"
#include "util/bytes.hpp"

using namespace pico;

namespace {

// Declared once, never re-tuned to pass: the run counts within 3 % and the
// median overhead % within 25 % (relative) of the paper's Table 1.
constexpr double kRunsBand = 0.03;
constexpr double kOverheadBand = 0.25;

core::CampaignResult run(core::UseCase use_case) {
  core::PaperExperiment e = core::paper_experiment(use_case);
  e.facility.artifact_dir = "bench-artifacts/paper";
  core::Facility facility(e.facility);
  return core::run_campaign(facility, e.campaign);
}

util::Json campaign_json(const core::CampaignResult& r) {
  const double median_total = r.runtime_stats().median();
  const double transfer = r.step_active_stats("Transfer").median();
  const double analysis = r.step_active_stats("Analyze").median();
  util::Json j = util::Json::object({
      {"runs", static_cast<int64_t>(r.in_window.size())},
      {"late", static_cast<int64_t>(r.late.size())},
      {"failed", static_cast<int64_t>(r.failed)},
      {"total_gb", r.total_data_gb()},
      {"median_overhead_s", r.overhead_stats().median()},
      // Table 1's definition: median overhead over median total runtime.
      {"median_overhead_pct",
       100.0 * r.overhead_stats().median() / median_total},
      // Fig. 4's: the median of each flow's own overhead share.
      {"median_flow_overhead_pct", r.overhead_pct_stats().median()},
      {"transfer_median_s", transfer},
      {"analysis_median_s", analysis},
      {"transfer_lead_s", transfer - analysis},
  });
  // The slowest in-window flow, by launch index (labels end in it).
  const core::CompletedFlow* slowest = nullptr;
  for (const core::CompletedFlow& f : r.in_window) {
    if (!slowest || f.timing.total_s() > slowest->timing.total_s()) {
      slowest = &f;
    }
  }
  if (slowest) {
    const std::string& label = slowest->label;
    j["max_runtime_s"] = slowest->timing.total_s();
    j["max_runtime_flow"] = label;
    j["max_runtime_flow_index"] =
        static_cast<int64_t>(std::stoi(label.substr(label.rfind('-') + 1)));
  }
  return j;
}

void print_fig4(const core::CampaignResult& r, const char* panel,
                const core::PaperTable1& paper) {
  std::printf("%s\n", core::render_fig4(r).c_str());
  std::printf("paper Fig. 4%s reference: median overhead %.1f s = %.1f%% of "
              "median runtime\n",
              panel, paper.median_overhead_s, paper.median_overhead_pct);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("paper", argc, argv);
  const core::CampaignResult hyper = run(core::UseCase::Hyperspectral);
  const core::CampaignResult spatio = run(core::UseCase::Spatiotemporal);

  std::fputs(core::render_table1(hyper, spatio).c_str(), stdout);
  std::printf("\n(failed flows: hyper=%zu spatio=%zu; late finishers: %zu/%zu)\n",
              hyper.failed, spatio.failed, hyper.late.size(),
              spatio.late.size());
  print_fig4(hyper, "A", core::PaperTable1::hyperspectral());
  std::printf("\n");
  print_fig4(spatio, "B", core::PaperTable1::spatiotemporal());

  struct Campaign {
    const char* name;
    const core::CampaignResult& result;
    core::PaperTable1 paper;
  };
  const Campaign campaigns[] = {
      {"hyperspectral", hyper, core::PaperTable1::hyperspectral()},
      {"spatiotemporal", spatio, core::PaperTable1::spatiotemporal()},
  };
  for (const Campaign& c : campaigns) {
    util::Json j = campaign_json(c.result);
    j["paper_runs"] = static_cast<int64_t>(c.paper.total_runs);
    j["paper_median_overhead_pct"] = c.paper.median_overhead_pct;
    h.results[c.name] = std::move(j);
    const std::string id = c.name;
    h.gate("runs." + id + ".min", id + ".runs", ">=",
           c.paper.total_runs * (1 - kRunsBand));
    h.gate("runs." + id + ".max", id + ".runs", "<=",
           c.paper.total_runs * (1 + kRunsBand));
    h.gate("failed." + id, id + ".failed", "==", 0);
    h.gate("overhead_pct." + id + ".min", id + ".median_overhead_pct", ">=",
           c.paper.median_overhead_pct * (1 - kOverheadBand));
    h.gate("overhead_pct." + id + ".max", id + ".median_overhead_pct", "<=",
           c.paper.median_overhead_pct * (1 + kOverheadBand));
    // Shape: transfer, not analysis, dominates each flow's active time.
    h.gate("transfer_dominates." + id, id + ".transfer_lead_s", ">", 0);
  }

  const util::Json& hj = h.results.at("hyperspectral");
  const util::Json& sj = h.results.at("spatiotemporal");
  std::printf("\nshape checks:\n");
  std::printf("  transfer dominates active runtime: hyper %s (%.1f vs %.1f), "
              "spatio %s (%.1f vs %.1f)\n",
              hj.at("transfer_lead_s").as_double() > 0 ? "yes" : "NO",
              hj.at("transfer_median_s").as_double(),
              hj.at("analysis_median_s").as_double(),
              sj.at("transfer_lead_s").as_double() > 0 ? "yes" : "NO",
              sj.at("transfer_median_s").as_double(),
              sj.at("analysis_median_s").as_double());
  std::printf("  overhead %% higher for the short flow: %.1f%% (hyper) vs "
              "%.1f%% (spatio)\n",
              hj.at("median_flow_overhead_pct").as_double(),
              sj.at("median_flow_overhead_pct").as_double());

  // Shape: the short flow spends a larger share of its runtime in
  // orchestration overhead.
  const double gap = hj.at("median_flow_overhead_pct").as_double() -
                     sj.at("median_flow_overhead_pct").as_double();
  h.results["overhead_pct_gap"] = gap;
  h.gate("short_flow_overhead_higher", "overhead_pct_gap", ">", 0);
  // Shape: the hyperspectral maximum is the first flow, which waits out the
  // cold Polaris allocation. (The spatiotemporal maximum is not its first
  // flow; see EXPERIMENTS.md.)
  h.gate("max_runtime_first_flow.hyperspectral",
         "hyperspectral.max_runtime_flow_index", "==", 0);

  // Per-flow CSVs for downstream plotting.
  util::write_file("bench-artifacts/paper/hyper_flows.csv",
                   core::flows_csv(hyper));
  util::write_file("bench-artifacts/paper/spatio_flows.csv",
                   core::flows_csv(spatio));
  return h.finish();
}
