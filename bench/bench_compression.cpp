// A3 ablation: the paper's future-work item "data compression algorithms".
// Measures real codec ratio/throughput on real EMD payloads (hyperspectral
// counts and spatiotemporal frames), then replays the spatiotemporal campaign
// with each codec's measured ratio applied to the wire to quantify the
// end-to-end effect on the transfer bottleneck.
#include <chrono>
#include <cstdio>

#include "compress/codec.hpp"
#include "core/campaign.hpp"
#include "instrument/hyperspectral_gen.hpp"
#include "instrument/spatiotemporal_gen.hpp"
#include "video/convert.hpp"

using namespace pico;

namespace {

struct Measured {
  std::string codec;
  double ratio;
  double compress_MBps;
  double decompress_MBps;
};

Measured measure(const compress::Codec& codec, const compress::Bytes& input) {
  auto t0 = std::chrono::steady_clock::now();
  compress::Bytes packed = codec.compress(input);
  double c_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  t0 = std::chrono::steady_clock::now();
  auto unpacked = codec.decompress(packed);
  double d_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  double mb = static_cast<double>(input.size()) / 1e6;
  Measured m;
  m.codec = codec.name();
  m.ratio = packed.empty() ? 1.0
                           : static_cast<double>(input.size()) /
                                 static_cast<double>(packed.size());
  m.compress_MBps = c_s > 0 ? mb / c_s : 0;
  m.decompress_MBps = d_s > 0 && unpacked ? mb / d_s : 0;
  return m;
}

/// The uncompressed spatiotemporal campaign the projections start from.
core::CampaignResult baseline_campaign() {
  auto [fc, cfg] = core::paper_experiment(core::UseCase::Spatiotemporal);
  fc.artifact_dir = "bench-artifacts/compression";
  cfg.duration_s = 1800;
  core::Facility facility(fc);
  return core::run_campaign(facility, cfg);
}

}  // namespace

int main() {
  // Real payloads: a hyperspectral cube (Poisson counts, f64) and a
  // spatiotemporal stack converted to u8 frames (video-like).
  instrument::HyperspectralConfig hcfg;
  hcfg.height = 64;
  hcfg.width = 64;
  hcfg.channels = 512;
  hcfg.background = {{"C", 0.7}, {"N", 0.15}, {"O", 0.15}};
  hcfg.particles = {{32, 32, 8, {{"Au", 0.8}, {"C", 0.2}}}};
  auto hyper = instrument::generate_hyperspectral(hcfg);
  emd::MicroscopeSettings scope;
  auto hyper_bytes = instrument::to_emd(hyper, hcfg, scope,
                                        "2023-04-07T10:00:00Z", "s", "o")
                         .to_bytes();

  instrument::SpatiotemporalConfig scfg;
  scfg.frames = 60;
  scfg.height = 128;
  scfg.width = 128;
  auto spatio = instrument::generate_spatiotemporal(scfg);
  auto frames_u8 = video::convert_fast(spatio.stack);
  compress::Bytes spatio_bytes(frames_u8.data().begin(), frames_u8.data().end());

  const auto& registry = compress::CodecRegistry::standard();
  std::printf("A3 ablation: codecs on real EMD payloads\n\n");
  std::printf("payload: hyperspectral EMD, %.1f MB (f64 Poisson counts)\n",
              static_cast<double>(hyper_bytes.size()) / 1e6);
  std::printf("%-8s | %7s | %12s | %12s\n", "codec", "ratio", "comp MB/s",
              "decomp MB/s");
  double best_hyper_ratio = 1.0;
  std::string best_hyper_codec = "null";
  for (const auto& name : registry.names()) {
    Measured m = measure(*registry.find(name), hyper_bytes);
    std::printf("%-8s | %6.2fx | %12.0f | %12.0f\n", m.codec.c_str(), m.ratio,
                m.compress_MBps, m.decompress_MBps);
    if (m.ratio > best_hyper_ratio && name != "null") {
      best_hyper_ratio = m.ratio;
      best_hyper_codec = name;
    }
  }

  std::printf("\npayload: spatiotemporal frames (u8 video), %.1f MB\n",
              static_cast<double>(spatio_bytes.size()) / 1e6);
  std::printf("%-8s | %7s | %12s | %12s\n", "codec", "ratio", "comp MB/s",
              "decomp MB/s");
  double best_spatio_ratio = 1.0;
  for (const auto& name : registry.names()) {
    Measured m = measure(*registry.find(name), spatio_bytes);
    std::printf("%-8s | %6.2fx | %12.0f | %12.0f\n", m.codec.c_str(), m.ratio,
                m.compress_MBps, m.decompress_MBps);
    if (m.ratio > best_spatio_ratio && name != "null") {
      best_spatio_ratio = m.ratio;
    }
  }

  // Detector noise makes raw frames incompressible; real video pipelines
  // quantize first (lossy, like MP4 encoding). 4-bit quantization keeps the
  // particles (SNR >> 16 levels) and exposes the redundancy.
  compress::Bytes quantized = spatio_bytes;
  for (auto& v : quantized) v &= 0xF0;
  std::printf("\npayload: same frames, 4-bit quantized (lossy preprocessing "
              "as in video encoding)\n");
  std::printf("%-8s | %7s | %12s | %12s\n", "codec", "ratio", "comp MB/s",
              "decomp MB/s");
  double best_quant_ratio = 1.0;
  for (const auto& name : registry.names()) {
    Measured m = measure(*registry.find(name), quantized);
    std::printf("%-8s | %6.2fx | %12.0f | %12.0f\n", m.codec.c_str(), m.ratio,
                m.compress_MBps, m.decompress_MBps);
    if (m.ratio > best_quant_ratio && name != "null") {
      best_quant_ratio = m.ratio;
    }
  }
  best_spatio_ratio = std::max(best_spatio_ratio, best_quant_ratio);

  // End-to-end: the campaign with a codec on the wire. Virtual files use the
  // flow's assumed ratio = 1 (conservative), so compare against the measured
  // ratio analytically.
  core::CampaignResult baseline = baseline_campaign();
  double xfer = baseline.step_active_stats("Transfer").median();
  std::printf("\nend-to-end (spatiotemporal campaign, 1200 MB files):\n");
  std::printf("  baseline transfer median: %.1f s\n", xfer);
  // The Transfer active time runs from the first file's start to the last
  // byte landing: task setup and settling lie outside it. Its fixed part is
  // the per-file bookkeeping (one file per flow); only wire time scales
  // inversely with ratio: xfer' = fixed + (xfer - fixed) / ratio.
  const double fixed = core::paper_experiment(core::UseCase::Spatiotemporal)
                           .facility.cost.transfer_per_file_s;
  for (double ratio : {1.5, 2.0, 4.0, best_spatio_ratio}) {
    double projected = fixed + (xfer - fixed) / ratio;
    std::printf("  at %4.2fx compression: transfer ~%.1f s (saves %.0f%%)\n",
                ratio, projected, 100.0 * (xfer - projected) / xfer);
  }
  std::printf("\nfuture detector: 65 GB/s raw needs %.0fx compression to fit "
              "the 200 Gbps backbone (measured best here: %.2fx on quantized "
              "video frames, %.2fx [%s] on hyperspectral counts).\n",
              65.0 * 8 / 200.0, best_spatio_ratio, best_hyper_ratio,
              best_hyper_codec.c_str());
  return 0;
}
