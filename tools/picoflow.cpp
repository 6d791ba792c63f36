// picoflow — command-line interface to the library: inspect and convert EMD
// files, run analyses, measure compression, and drive simulated campaigns.
//
//   picoflow emd-info <file.emd>
//   picoflow emd-gen hyper|spatio <out.emd> [seed]
//   picoflow analyze <file.emd> [out-dir]
//   picoflow convert-hmsa <in.emd> <out-base>      (writes .xml + .hmsa)
//   picoflow convert-emd <in-base> <out.emd>       (reads .xml + .hmsa)
//   picoflow compress <file> [codec]
//   picoflow campaign hyper|spatio [duration-s] [period-s]
//   picoflow flow-def hyper|spatio
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/hyperspectral.hpp"
#include "analysis/metadata.hpp"
#include "analysis/plot.hpp"
#include "compress/codec.hpp"
#include "core/campaign.hpp"
#include "core/flows.hpp"
#include "core/report.hpp"
#include "flow/definition_io.hpp"
#include "emd/hmsa.hpp"
#include "instrument/hyperspectral_gen.hpp"
#include "instrument/spatiotemporal_gen.hpp"
#include "util/bytes.hpp"
#include "tensor/ops.hpp"
#include "util/strings.hpp"
#include "video/convert.hpp"
#include "video/mpk.hpp"
#include "vision/detect.hpp"
#include "vision/track.hpp"

using namespace pico;

namespace {

int usage() {
  std::fprintf(stderr, R"(usage:
  picoflow emd-info <file.emd>
  picoflow emd-gen hyper|spatio <out.emd> [seed]
  picoflow analyze <file.emd> [out-dir]
  picoflow convert-hmsa <in.emd> <out-base>
  picoflow convert-emd <in-base> <out.emd>
  picoflow compress <file> [codec]
  picoflow campaign hyper|spatio [duration-s] [period-s]
  picoflow flow-def hyper|spatio
)");
  return 2;
}

void print_group(const emd::Group& group, const std::string& path, int depth) {
  std::string indent(static_cast<size_t>(depth) * 2, ' ');
  for (const auto& [k, v] : group.attrs) {
    std::printf("%s@%s = %s\n", indent.c_str(), k.c_str(), v.dump().c_str());
  }
  for (const auto& [name, ds] : group.datasets) {
    std::string shape;
    for (size_t d : ds.shape()) {
      if (!shape.empty()) shape += "x";
      shape += std::to_string(d);
    }
    std::printf("%s%s: %s [%s] %s%s\n", indent.c_str(), name.c_str(),
                std::string(tensor::dtype_name(ds.dtype())).c_str(),
                shape.c_str(), util::human_bytes(static_cast<double>(ds.nbytes())).c_str(),
                ds.payload_loaded() ? "" : " (header only)");
  }
  for (const auto& [name, child] : group.groups) {
    std::printf("%s%s/\n", indent.c_str(), name.c_str());
    print_group(child, path + name + "/", depth + 1);
  }
}

int cmd_emd_info(const std::string& path) {
  auto file = emd::File::load(path, /*with_payload=*/false);
  if (!file) {
    std::fprintf(stderr, "error: %s\n", file.error().message.c_str());
    return 1;
  }
  std::printf("%s (%s payload)\n", path.c_str(),
              util::human_bytes(static_cast<double>(file.value().payload_bytes())).c_str());
  print_group(file.value().root, "/", 0);
  auto meta = analysis::extract_metadata(file.value());
  if (meta) {
    std::printf("\nextracted metadata:\n%s\n", meta.value().dump(2).c_str());
  }
  return 0;
}

int cmd_emd_gen(const std::string& kind, const std::string& out,
                uint64_t seed) {
  emd::MicroscopeSettings scope;
  emd::File file;
  if (kind == "hyper") {
    auto cfg = instrument::HyperspectralConfig::fig2_sample();
    cfg.seed = seed;
    auto sample = instrument::generate_hyperspectral(cfg);
    file = instrument::to_emd(sample, cfg, scope, "2023-04-07T10:00:00Z",
                              "polyamide film with heavy metals",
                              "operator@anl.gov");
  } else if (kind == "spatio") {
    auto cfg = instrument::SpatiotemporalConfig::fig3_sample();
    cfg.frames = 60;  // keep generated files modest
    cfg.seed = seed;
    auto sample = instrument::generate_spatiotemporal(cfg);
    file = instrument::to_emd(sample, cfg, scope, "2023-04-08T10:00:00Z",
                              "gold nanoparticles on carbon",
                              "operator@anl.gov");
  } else {
    return usage();
  }
  if (auto st = file.save(out); !st) {
    std::fprintf(stderr, "error: %s\n", st.error().message.c_str());
    return 1;
  }
  std::printf("wrote %s (%s)\n", out.c_str(),
              util::human_bytes(static_cast<double>(file.payload_bytes())).c_str());
  return 0;
}

int cmd_analyze(const std::string& path, const std::string& out_dir) {
  auto file = emd::File::load(path);
  if (!file) {
    std::fprintf(stderr, "error: %s\n", file.error().message.c_str());
    return 1;
  }
  auto signal = emd::first_signal_name(file.value());
  if (!signal) {
    std::fprintf(stderr, "error: %s\n", signal.error().message.c_str());
    return 1;
  }
  auto kind = emd::signal_kind(file.value(), signal.value());
  if (!kind) {
    std::fprintf(stderr, "error: %s\n", kind.error().message.c_str());
    return 1;
  }
  const emd::Group* group = file.value().root.find_group(
      std::string(emd::Paths::kData) + "/" + signal.value());
  auto data = group->datasets.at("data").as<double>();
  if (!data) {
    std::fprintf(stderr, "error: %s\n", data.error().message.c_str());
    return 1;
  }

  if (kind.value() == emd::SignalKind::Hyperspectral) {
    size_t channels = data.value().dim(2);
    double e_min = group->attrs.count("energy_min_kev")
                       ? group->attrs.at("energy_min_kev").as_double(0)
                       : 0;
    double e_max = group->attrs.count("energy_max_kev")
                       ? group->attrs.at("energy_max_kev").as_double(20)
                       : 20;
    std::vector<double> axis(channels);
    for (size_t k = 0; k < channels; ++k) {
      axis[k] = e_min + (e_max - e_min) * (k + 0.5) / channels;
    }
    auto result = analysis::analyze_hyperspectral(data.value(), axis);
    std::printf("hyperspectral %zux%zux%zu, total counts %.0f\n",
                data.value().dim(0), data.value().dim(1), channels,
                tensor::sum_value(result.spectrum));
    for (const auto& el : result.elements) {
      std::printf("  %-3s score %10.1f\n", el.symbol.c_str(), el.score);
    }
    analysis::write_pgm(out_dir + "/intensity.pgm", result.intensity);
    analysis::LinePlotConfig plot;
    plot.title = "Aggregate spectrum";
    plot.x_label = "Energy (keV)";
    plot.y_label = "Counts";
    std::vector<double> counts(result.spectrum.data().begin(),
                               result.spectrum.data().end());
    util::write_file(out_dir + "/spectrum.svg",
                     analysis::render_line_svg(axis, counts, plot));
    std::printf("artifacts: %s/{intensity.pgm, spectrum.svg}\n",
                out_dir.c_str());
  } else {
    vision::BlobDetector detector;
    vision::GreedyIoUTracker tracker;
    std::vector<std::vector<vision::Detection>> dets;
    for (size_t t = 0; t < data.value().dim(0); ++t) {
      auto frame_dets = detector.detect(data.value().slice0(t));
      tracker.update(frame_dets);
      dets.push_back(std::move(frame_dets));
    }
    size_t total = 0;
    for (const auto& d : dets) total += d.size();
    std::printf("spatiotemporal %zu frames of %zux%zu: %zu detections, %d "
                "tracks\n",
                data.value().dim(0), data.value().dim(1), data.value().dim(2),
                total, tracker.total_tracks_created());
    auto annotated = video::annotate(
        video::MpkVideo::from_stack(video::convert_fast(data.value())), dets);
    annotated.save(out_dir + "/annotated.mpk");
    std::printf("artifact: %s/annotated.mpk\n", out_dir.c_str());
  }
  return 0;
}

int cmd_convert_hmsa(const std::string& in, const std::string& out_base) {
  auto file = emd::File::load(in);
  if (!file) {
    std::fprintf(stderr, "error: %s\n", file.error().message.c_str());
    return 1;
  }
  if (auto st = emd::save_hmsa(file.value(), out_base); !st) {
    std::fprintf(stderr, "error: %s\n", st.error().message.c_str());
    return 1;
  }
  std::printf("wrote %s.xml + %s.hmsa\n", out_base.c_str(), out_base.c_str());
  return 0;
}

int cmd_convert_emd(const std::string& in_base, const std::string& out) {
  auto file = emd::load_hmsa(in_base);
  if (!file) {
    std::fprintf(stderr, "error: %s\n", file.error().message.c_str());
    return 1;
  }
  if (auto st = file.value().save(out); !st) {
    std::fprintf(stderr, "error: %s\n", st.error().message.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_compress(const std::string& path, const std::string& codec_name) {
  auto data = util::read_file(path);
  if (!data) {
    std::fprintf(stderr, "error: %s\n", data.error().message.c_str());
    return 1;
  }
  const auto& registry = compress::CodecRegistry::standard();
  for (const auto& name : registry.names()) {
    if (!codec_name.empty() && name != codec_name) continue;
    const auto* codec = registry.find(name);
    auto packed = codec->compress(data.value());
    std::printf("%-10s %s -> %s (%.2fx)\n", name.c_str(),
                util::human_bytes(static_cast<double>(data.value().size())).c_str(),
                util::human_bytes(static_cast<double>(packed.size())).c_str(),
                packed.empty() ? 0.0
                               : static_cast<double>(data.value().size()) /
                                     static_cast<double>(packed.size()));
  }
  return 0;
}

int cmd_campaign(const std::string& kind, double duration_s, double period_s) {
  if (kind != "hyper" && kind != "spatio") return usage();
  auto [fc, cfg] = core::paper_experiment(kind == "hyper"
                                              ? core::UseCase::Hyperspectral
                                              : core::UseCase::Spatiotemporal);
  fc.artifact_dir = "picoflow-cli-artifacts";
  if (period_s > 0) cfg.start_period_s = period_s;
  if (duration_s > 0) cfg.duration_s = duration_s;

  core::Facility facility(fc);
  core::CampaignResult result = core::run_campaign(facility, cfg);
  std::printf("%s\n", core::render_fig4(result).c_str());
  std::printf("flows: %zu in-window, %zu late, %zu failed; %.2f GB moved\n",
              result.in_window.size(), result.late.size(), result.failed,
              result.total_data_gb());
  return 0;
}

int cmd_flow_def(const std::string& kind) {
  core::FacilityConfig fc;
  fc.artifact_dir = "picoflow-cli-artifacts";
  core::Facility facility(fc);
  flow::FlowDefinition def;
  if (kind == "hyper") def = core::hyperspectral_flow(facility);
  else if (kind == "spatio") def = core::spatiotemporal_flow(facility);
  else return usage();
  std::printf("%s\n", flow::definition_to_json(def).dump(2).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  auto arg = [&](int i, const char* fallback = "") {
    return argc > i ? std::string(argv[i]) : std::string(fallback);
  };

  if (cmd == "emd-info" && argc >= 3) return cmd_emd_info(arg(2));
  if (cmd == "emd-gen" && argc >= 4) {
    return cmd_emd_gen(arg(2), arg(3),
                       argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 42);
  }
  if (cmd == "analyze" && argc >= 3) return cmd_analyze(arg(2), arg(3, "."));
  if (cmd == "convert-hmsa" && argc >= 4) return cmd_convert_hmsa(arg(2), arg(3));
  if (cmd == "convert-emd" && argc >= 4) return cmd_convert_emd(arg(2), arg(3));
  if (cmd == "compress" && argc >= 3) return cmd_compress(arg(2), arg(3));
  if (cmd == "flow-def" && argc >= 3) return cmd_flow_def(arg(2));
  if (cmd == "campaign" && argc >= 3) {
    return cmd_campaign(arg(2), argc > 3 ? std::atof(argv[3]) : 0,
                        argc > 4 ? std::atof(argv[4]) : 0);
  }
  return usage();
}
