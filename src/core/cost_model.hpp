#pragma once
// Calibrated cost model for the facility simulation. Every constant maps to
// an observable in the paper's evaluation (Sec. 3.3 / DESIGN.md Sec. 5):
//
//   - transfer setup + per-file overhead + ~90 Mbps effective per-flow rate
//     reproduce the transfer actives (hyperspectral ~14 s, spatio ~110 s);
//   - analysis per-byte costs reproduce the compute actives, with the
//     fp64->uint8 conversion dominating the spatiotemporal phase;
//   - PBS provisioning + environment warm-up reproduce first-flow maxima;
//   - publication ~1.2 s reproduces the cheap login-node ingest.
//
// The campaign bench prints these alongside the paper's numbers; tune here,
// re-run bench_paper, compare.
#include <cstdint>

#include "util/json.hpp"

namespace pico::core {

struct CostModel {
  // -- Transfer ------------------------------------------------------------
  /// Task setup (auth handshake, endpoint activation, routing). Recalibrated
  /// down from 4.0 s when the orchestration overhead was split into
  /// signaling-mode-independent service latencies (this, settling) and
  /// polling-specific ones (discovery lag, inter-step hops): the Table-1
  /// polling totals stay on target, while an event-driven orchestrator
  /// legitimately escapes only the polling-specific share.
  double transfer_setup_mean_s = 1.5;
  double transfer_setup_jitter_s = 1.2;
  double transfer_per_file_s = 1.0;
  double per_flow_rate_cap_bps = 84e6;  ///< effective per-transfer throughput

  // -- Compute: hyperspectral analysis (metadata + reductions + plots) ------
  double hyper_analysis_base_s = 0.8;
  double hyper_analysis_s_per_mb = 0.099;

  // -- Compute: spatiotemporal analysis -------------------------------------
  /// fp64 -> uint8 conversion (the paper's dominant compute cost).
  double convert_s_per_mb = 0.030;
  /// Pessimal naive conversion (per-frame range rescan), for the A4 ablation.
  double convert_naive_multiplier = 4.0;
  /// Node-parallel conversion speedup (the "compute function uses the whole
  /// node" what-if for the A4 ablation): modeled effective speedup of the
  /// chunked thread-pool conversion over the single-core fast path on one
  /// Polaris node. Conservative vs. the 32-core count — the kernel is
  /// memory-bandwidth-bound well before it is core-bound.
  double convert_parallel_speedup = 6.0;
  /// Detector inference per frame (~A100 YOLOv8s latency incl. I/O).
  double inference_s_per_frame = 0.025;
  double annotate_base_s = 1.0;

  /// Run-to-run analysis cost variability (lognormal sigma).
  double cost_jitter_sigma = 0.10;

  // -- Publication ----------------------------------------------------------
  double publication_s = 1.2;
  double publication_jitter_s = 0.3;

  // -- Polaris / PBS ---------------------------------------------------------
  double provision_delay_s = 85.0;
  double provision_jitter_s = 30.0;
  double env_warmup_s = 18.0;
  double env_warmup_jitter_s = 3.0;
  double warm_idle_timeout_s = 600.0;

  // -- Instrument-side client -------------------------------------------------
  /// Local staging copy rate of the user workstation (file materialization).
  double staging_rate_Bps = 22e6;
  /// Watcher stability debounce before a new file triggers a flow.
  double watcher_debounce_s = 15.0;

  double hyper_analysis_cost(int64_t bytes) const {
    return hyper_analysis_base_s + hyper_analysis_s_per_mb * (static_cast<double>(bytes) / 1e6);
  }
  double convert_cost(int64_t bytes, bool naive,
                      bool parallel = false) const {
    double base = convert_s_per_mb * (static_cast<double>(bytes) / 1e6);
    if (naive) return base * convert_naive_multiplier;
    if (parallel) return base / convert_parallel_speedup;
    return base;
  }
  double spatiotemporal_analysis_cost(int64_t bytes, int64_t frames,
                                      bool naive_convert,
                                      bool parallel_convert = false) const {
    return convert_cost(bytes, naive_convert, parallel_convert) +
           inference_s_per_frame * static_cast<double>(frames) +
           annotate_base_s;
  }

  util::Json to_json() const;
};

}  // namespace pico::core
