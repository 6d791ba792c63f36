// A2 ablation: "transfer times ... to be the overall bottleneck" and future
// detectors producing up to 65 GB/s (Sec. 1, Sec. 5). Sweeps the on-site
// network from today's 1 Gbps switch through the 200 Gbps backbone class and
// reports where the spatiotemporal flow stops being transfer-bound; then
// sizes the 65 GB/s future-detector stream against each configuration.
#include <cstdio>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "util/strings.hpp"

using namespace pico;

namespace {

struct Config {
  const char* label;
  double switch_bps;
  double per_flow_cap_bps;
};

core::CampaignResult run_with(const Config& config) {
  auto [fc, cfg] = core::paper_experiment(core::UseCase::Spatiotemporal);
  fc.artifact_dir = "bench-artifacts/bandwidth";
  fc.user_switch_bps = config.switch_bps;
  fc.cost.per_flow_rate_cap_bps = config.per_flow_cap_bps;
  cfg.duration_s = 1800;
  core::Facility facility(fc);
  return core::run_campaign(facility, cfg);
}

}  // namespace

int main() {
  // Per-flow caps scale with the fabric: end hosts get upgraded alongside
  // the switch (multi-stream GridFTP, NVMe staging).
  std::vector<Config> configs = {
      {"1 Gbps switch (paper today)", 1e9, 88e6},
      {"10 Gbps upgrade", 10e9, 2e9},
      {"40 Gbps upgrade", 40e9, 8e9},
      {"100 Gbps upgrade", 100e9, 20e9},
      {"200 Gbps backbone class", 200e9, 40e9},
  };

  std::printf("A2 ablation: on-site bandwidth vs spatiotemporal flow shape "
              "(1200 MB files every 120 s)\n\n");
  std::printf("%-28s | %9s | %9s | %10s | %8s | %s\n", "network", "xfer med",
              "analysis", "runtime", "in-hour", "bound by");
  std::printf("%s\n", std::string(88, '-').c_str());
  for (const auto& config : configs) {
    core::CampaignResult r = run_with(config);
    double xfer = r.step_active_stats("Transfer").median();
    double analysis = r.step_active_stats("Analyze").median();
    std::printf("%-28s | %8.1fs | %8.1fs | %9.1fs | %8zu | %s\n", config.label,
                xfer, analysis, r.runtime_stats().median(),
                r.in_window.size() * 2,  // 30-min campaign -> per-hour rate
                xfer > analysis ? "transfer" : "compute");
  }

  // Future detector feasibility: 65 GB/s sustained (~200 TB/hour).
  std::printf("\nfuture detector: 65 GB/s sustained (= %.0f Gbps)\n",
              65.0 * 8);
  for (const auto& config : configs) {
    double capacity_gbps = config.switch_bps / 1e9;
    double needed_gbps = 65.0 * 8;
    std::printf("  %-28s %6.0f Gbps -> %5.1f%% of the required stream%s\n",
                config.label, capacity_gbps,
                100.0 * capacity_gbps / needed_gbps,
                capacity_gbps >= needed_gbps ? "  [sufficient]" : "");
  }
  std::printf("\nreading: the crossover from transfer-bound to compute-bound "
              "happens at the first upgrade step; even the 200 Gbps backbone "
              "cannot absorb the 65 GB/s detector without compression "
              "(see bench_compression).\n");
  return 0;
}
