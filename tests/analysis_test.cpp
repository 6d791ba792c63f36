// Analysis tests: Fig. 2 reductions, peak finding + element identification on
// synthetic cubes with known composition, metadata extraction, plot writers.
#include <gtest/gtest.h>

#include <filesystem>

#include "analysis/hyperspectral.hpp"
#include "analysis/metadata.hpp"
#include "analysis/plot.hpp"
#include "instrument/hyperspectral_gen.hpp"
#include "tensor/ops.hpp"
#include "util/bytes.hpp"

namespace pico::analysis {
namespace {

TEST(Hyperspectral, IntensityMapSumsSpectralAxis) {
  tensor::Tensor<double> cube(tensor::Shape{2, 2, 3});
  for (size_t i = 0; i < cube.size(); ++i) cube[i] = static_cast<double>(i);
  auto map = intensity_map(cube);
  EXPECT_EQ(map.shape(), (tensor::Shape{2, 2}));
  EXPECT_DOUBLE_EQ(map(0, 0), 0 + 1 + 2);
  EXPECT_DOUBLE_EQ(map(1, 1), 9 + 10 + 11);
}

TEST(Hyperspectral, SumSpectrumAggregatesPixels) {
  tensor::Tensor<double> cube(tensor::Shape{2, 2, 3});
  for (size_t i = 0; i < cube.size(); ++i) cube[i] = 1.0;
  auto spec = sum_spectrum(cube);
  EXPECT_EQ(spec.shape(), (tensor::Shape{3}));
  for (size_t k = 0; k < 3; ++k) EXPECT_DOUBLE_EQ(spec(k), 4.0);
}

TEST(Hyperspectral, FindPeaksLocatesGaussians) {
  const size_t n = 200;
  tensor::Tensor<double> spec(tensor::Shape{n});
  std::vector<double> axis(n);
  for (size_t k = 0; k < n; ++k) {
    axis[k] = static_cast<double>(k) * 0.1;
    spec(k) = 5.0;  // flat continuum
  }
  // Two clear peaks at channels 50 and 140.
  for (int d = -5; d <= 5; ++d) {
    spec(static_cast<size_t>(50 + d)) += 100 * std::exp(-d * d / 4.0);
    spec(static_cast<size_t>(140 + d)) += 60 * std::exp(-d * d / 4.0);
  }
  auto peaks = find_peaks(spec, axis);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0].channel, 50u);
  EXPECT_EQ(peaks[1].channel, 140u);
  EXPECT_GT(peaks[0].height, peaks[1].height);
}

TEST(Hyperspectral, FindPeaksIgnoresNoiseFloor) {
  const size_t n = 100;
  tensor::Tensor<double> spec(tensor::Shape{n});
  std::vector<double> axis(n);
  util::Rng rng(5);
  for (size_t k = 0; k < n; ++k) {
    axis[k] = static_cast<double>(k);
    spec(k) = 100.0 + rng.uniform(-1, 1);  // 1% ripple
  }
  EXPECT_TRUE(find_peaks(spec, axis).empty());
}

TEST(Hyperspectral, IdentifyElementsMatchesLines) {
  // Peaks exactly at Fe Ka (6.398) and Fe Kb (7.057): must identify Fe.
  std::vector<Peak> peaks = {
      {0, 6.398, 100, 10},
      {1, 7.057, 15, 3},
  };
  auto matches =
      identify_elements(peaks, instrument::XRayLineLibrary::standard());
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].symbol, "Fe");
  EXPECT_EQ(matches[0].matched_kev.size(), 2u);
}

TEST(Hyperspectral, IdentifyRequiresPrimaryLine) {
  // A peak only at Fe Kb (the weak line) must NOT claim Fe.
  std::vector<Peak> peaks = {{0, 7.057, 15, 3}};
  auto matches =
      identify_elements(peaks, instrument::XRayLineLibrary::standard());
  for (const auto& m : matches) EXPECT_NE(m.symbol, "Fe");
}

TEST(Hyperspectral, EndToEndIdentifiesGeneratedComposition) {
  // Generate a gold-bearing carbon film and verify the analysis recovers the
  // heavy metal — the Fig. 2C metadata claim.
  instrument::HyperspectralConfig cfg;
  cfg.height = 48;
  cfg.width = 48;
  cfg.channels = 600;
  cfg.dose = 150;
  cfg.background = {{"C", 0.8}, {"O", 0.2}};
  cfg.particles = {{24, 24, 10, {{"Au", 0.9}, {"C", 0.1}}}};
  auto sample = instrument::generate_hyperspectral(cfg);
  auto result = analyze_hyperspectral(sample.cube, sample.energy_axis);

  std::vector<std::string> found;
  for (const auto& el : result.elements) found.push_back(el.symbol);
  EXPECT_NE(std::find(found.begin(), found.end(), "Au"), found.end())
      << "gold not identified";
  EXPECT_NE(std::find(found.begin(), found.end(), "C"), found.end());
  // Summary JSON is well-formed.
  util::Json j = result.to_json();
  EXPECT_GT(j.at("total_counts").as_double(), 0);
  EXPECT_GE(j.at("elements").size(), 2u);
}

TEST(Hyperspectral, SharedPoolMatchesSequential) {
  // The facility always runs the analysis kernels on the shared pool; the
  // pooled reductions must publish the same summary as the sequential path.
  instrument::HyperspectralConfig cfg;
  cfg.height = 24;
  cfg.width = 24;
  cfg.channels = 192;
  cfg.dose = 100;
  cfg.background = {{"C", 0.8}, {"O", 0.2}};
  cfg.particles = {{12, 12, 5, {{"Au", 0.9}, {"C", 0.1}}}};
  auto sample = instrument::generate_hyperspectral(cfg);
  auto pooled = analyze_hyperspectral(sample.cube, sample.energy_axis, {},
                                      &util::shared_pool());
  auto sequential = analyze_hyperspectral(sample.cube, sample.energy_axis, {},
                                          nullptr);
  EXPECT_EQ(pooled.to_json().dump(2), sequential.to_json().dump(2));
  EXPECT_EQ(pooled.intensity.storage(), sequential.intensity.storage());
  EXPECT_EQ(pooled.spectrum.storage(), sequential.spectrum.storage());
}

TEST(Metadata, ExtractsStandardBlocks) {
  instrument::HyperspectralConfig cfg;
  cfg.height = 8;
  cfg.width = 8;
  cfg.channels = 16;
  cfg.background = {{"C", 1.0}};
  auto sample = instrument::generate_hyperspectral(cfg);
  emd::MicroscopeSettings scope;
  scope.beam_energy_kv = 300;
  scope.magnification = 2e6;
  emd::File file = instrument::to_emd(sample, cfg, scope,
                                      "2023-04-07T14:30:00Z",
                                      "polyamide film", "operator@anl.gov");
  auto meta = extract_metadata(file);
  ASSERT_TRUE(meta);
  const util::Json& m = meta.value();
  EXPECT_EQ(m.at("acquired").as_string(), "2023-04-07T14:30:00Z");
  EXPECT_DOUBLE_EQ(m.at_path("microscope.beam_energy_kv").as_double(), 300);
  EXPECT_DOUBLE_EQ(m.at_path("microscope.magnification").as_double(), 2e6);
  EXPECT_EQ(m.at("sample").as_string(), "polyamide film");
  EXPECT_EQ(m.at("operator").as_string(), "operator@anl.gov");
  EXPECT_EQ(m.at_path("software.name").as_string(), "picoflow");
  ASSERT_EQ(m.at("signals").size(), 1u);
  EXPECT_EQ(m.at("signals")[0].at("kind").as_string(), "hyperspectral");
  EXPECT_EQ(m.at("signals")[0].at("dtype").as_string(), "f64");
  EXPECT_GT(m.at("payload_bytes").as_int(), 0);
}

TEST(Metadata, WorksOnHeaderOnlyRead) {
  instrument::HyperspectralConfig cfg;
  cfg.height = 8;
  cfg.width = 8;
  cfg.channels = 16;
  cfg.background = {{"C", 1.0}};
  auto sample = instrument::generate_hyperspectral(cfg);
  emd::MicroscopeSettings scope;
  auto file = instrument::to_emd(sample, cfg, scope, "2023-04-07T14:30:00Z",
                                 "s", "o");
  auto reread = emd::File::from_bytes(file.to_bytes(), /*with_payload=*/false);
  ASSERT_TRUE(reread);
  auto meta = extract_metadata(reread.value());
  ASSERT_TRUE(meta);  // cataloging never needs payloads
  EXPECT_GT(meta.value().at("payload_bytes").as_int(), 0);
}

TEST(Metadata, FileWithoutSignalsIsError) {
  emd::File empty;
  EXPECT_FALSE(extract_metadata(empty));
}

TEST(Plot, SvgContainsDataAndAnnotations) {
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(i * 0.1);
    y.push_back(std::sin(i * 0.1) * 10);
  }
  LinePlotConfig cfg;
  cfg.title = "Aggregate spectrum";
  cfg.x_label = "Energy (keV)";
  cfg.y_label = "Counts";
  cfg.annotations = {{5.0, "Fe"}};
  std::string svg = render_line_svg(x, y, cfg);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("polyline"), std::string::npos);
  EXPECT_NE(svg.find("Aggregate spectrum"), std::string::npos);
  EXPECT_NE(svg.find("Energy (keV)"), std::string::npos);
  EXPECT_NE(svg.find(">Fe<"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Plot, SvgHandlesEmptyAndConstantData) {
  LinePlotConfig cfg;
  EXPECT_NE(render_line_svg({}, {}, cfg).find("<svg"), std::string::npos);
  std::vector<double> x = {1, 2, 3}, y = {5, 5, 5};
  EXPECT_NE(render_line_svg(x, y, cfg).find("polyline"), std::string::npos);
}

TEST(Plot, PgmWriterProducesValidHeader) {
  std::string path = testing::TempDir() + "/plot_test.pgm";
  tensor::Tensor<double> img(tensor::Shape{4, 6});
  for (size_t i = 0; i < img.size(); ++i) img[i] = static_cast<double>(i);
  ASSERT_TRUE(write_pgm(path, img));
  auto data = util::read_file(path);
  ASSERT_TRUE(data);
  std::string text(data.value().begin(), data.value().end());
  EXPECT_EQ(text.substr(0, 3), "P5\n");
  EXPECT_NE(text.find("6 4"), std::string::npos);
  // header + 24 pixel bytes
  EXPECT_EQ(data.value().size(), text.find("255\n") + 4 + 24);
  // Rank mismatch rejected.
  EXPECT_FALSE(write_pgm(path, tensor::Tensor<double>(tensor::Shape{3})));
}

TEST(Plot, PpmAndBoxBurnIn) {
  tensor::Tensor<uint8_t> gray(tensor::Shape{10, 10});
  auto rgb = gray_to_rgb_with_boxes(gray, {util::Box{2, 2, 4, 4}});
  EXPECT_EQ(rgb.shape(), (tensor::Shape{10, 10, 3}));
  // Box edge pixel is orange (255,140,0); interior pixel untouched.
  EXPECT_EQ(rgb(2, 2, 0), 255);
  EXPECT_EQ(rgb(2, 2, 1), 140);
  EXPECT_EQ(rgb(4, 4, 0), 0);
  std::string path = testing::TempDir() + "/plot_test.ppm";
  ASSERT_TRUE(write_ppm(path, rgb));
  auto data = util::read_file(path);
  ASSERT_TRUE(data);
  EXPECT_EQ(data.value()[0], 'P');
  EXPECT_EQ(data.value()[1], '6');
}

}  // namespace
}  // namespace pico::analysis

// ------------------------------------------------------------ calibration ----
#include "analysis/calibration.hpp"
#include "vision/image.hpp"

namespace pico::analysis {
namespace {

tensor::Tensor<double> pattern_image(double shift_x, double shift_y,
                                     uint64_t seed = 9) {
  // A textured image with several bright features, shiftable sub-structure.
  util::Rng rng(seed);
  tensor::Tensor<double> img(tensor::Shape{64, 64});
  for (size_t i = 0; i < img.size(); ++i) img[i] = rng.normal(1.0, 0.05);
  auto put_blob = [&](double cx, double cy) {
    for (long y = 0; y < 64; ++y) {
      for (long x = 0; x < 64; ++x) {
        double d2 = (x - cx - shift_x) * (x - cx - shift_x) +
                    (y - cy - shift_y) * (y - cy - shift_y);
        img(static_cast<size_t>(y), static_cast<size_t>(x)) +=
            5.0 * std::exp(-d2 / 18.0);
      }
    }
  };
  put_blob(16, 20);
  put_blob(44, 12);
  put_blob(30, 46);
  return img;
}

TEST(Calibration, DriftEstimateRecoversKnownShift) {
  auto ref = pattern_image(0, 0);
  for (auto [sx, sy] : {std::pair{3.0, -2.0}, {0.0, 0.0}, {-5.0, 6.0}}) {
    auto shifted = pattern_image(sx, sy);
    DriftEstimate d = estimate_drift(ref, shifted, 8);
    EXPECT_NEAR(d.dx, sx, 1.01) << sx << "," << sy;
    EXPECT_NEAR(d.dy, sy, 1.01) << sx << "," << sy;
    EXPECT_GT(d.score, 0.6);
  }
}

TEST(Calibration, SharpnessDropsWithBlur) {
  auto img = pattern_image(0, 0);
  double sharp = sharpness(img);
  double blurred = sharpness(vision::gaussian_blur(img, 2.0));
  EXPECT_GT(sharp, 0);
  EXPECT_LT(blurred, 0.5 * sharp);
  // Tiny images degrade gracefully.
  EXPECT_DOUBLE_EQ(sharpness(tensor::Tensor<double>(tensor::Shape{2, 2})), 0);
}

TEST(Calibration, MonitorAlertsOnDrift) {
  CalibrationConfig cfg;
  cfg.drift_threshold_px = 3.0;
  CalibrationMonitor monitor(cfg);
  EXPECT_TRUE(monitor.observe(pattern_image(0, 0)).empty());  // reference
  EXPECT_TRUE(monitor.observe(pattern_image(1, 1)).empty());  // within budget
  auto alerts = monitor.observe(pattern_image(5, 0));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AlertKind::Drift);
  EXPECT_GT(alerts[0].severity, 1.0);
  EXPECT_NE(alerts[0].message.find("drift"), std::string::npos);
}

TEST(Calibration, MonitorAlertsOnDefocusAndIntensity) {
  CalibrationMonitor monitor;
  monitor.observe(pattern_image(0, 0));
  // Blur -> focus alert.
  auto blurred = vision::gaussian_blur(pattern_image(0, 0), 2.5);
  auto alerts = monitor.observe(blurred);
  bool has_focus = false;
  for (const auto& a : alerts) {
    if (a.kind == AlertKind::FocusLoss) has_focus = true;
  }
  EXPECT_TRUE(has_focus);

  // Dim -> intensity alert.
  auto dim = pattern_image(0, 0);
  tensor::scale_inplace(dim, 0.4);
  alerts = monitor.observe(dim);
  bool has_intensity = false;
  for (const auto& a : alerts) {
    if (a.kind == AlertKind::IntensityDrop) has_intensity = true;
  }
  EXPECT_TRUE(has_intensity);
}

TEST(Calibration, RebaselineAdoptsNewReference) {
  CalibrationConfig cfg;
  cfg.drift_threshold_px = 3.0;
  CalibrationMonitor monitor(cfg);
  monitor.observe(pattern_image(0, 0));
  ASSERT_FALSE(monitor.observe(pattern_image(6, 0)).empty());
  monitor.rebaseline();
  EXPECT_TRUE(monitor.observe(pattern_image(6, 0)).empty());  // new reference
  EXPECT_TRUE(monitor.observe(pattern_image(7, 1)).empty());  // near it: fine
  EXPECT_FALSE(monitor.observe(pattern_image(12, 0)).empty());
}

TEST(Calibration, ShapeChangeSilentlyRebaselines) {
  CalibrationMonitor monitor;
  monitor.observe(pattern_image(0, 0));
  tensor::Tensor<double> other_mode(tensor::Shape{32, 48});
  EXPECT_TRUE(monitor.observe(other_mode).empty());
  EXPECT_EQ(monitor.observations(), 2u);
}

}  // namespace
}  // namespace pico::analysis

// --------------------------------------------------- composition fractions ----
namespace pico::analysis {
namespace {

TEST(Hyperspectral, CompositionFractionsSumToOne) {
  std::vector<Peak> peaks = {
      {0, 6.398, 300, 10},  // Fe Ka (strong)
      {1, 8.040, 100, 5},   // Cu Ka
  };
  auto matches =
      identify_elements(peaks, instrument::XRayLineLibrary::standard());
  ASSERT_GE(matches.size(), 2u);
  double total = 0;
  for (const auto& m : matches) {
    EXPECT_GE(m.fraction, 0.0);
    EXPECT_LE(m.fraction, 1.0);
    total += m.fraction;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Fe carries the larger peak mass -> larger fraction.
  EXPECT_EQ(matches[0].symbol, "Fe");
  EXPECT_GT(matches[0].fraction, matches[1].fraction);
}

TEST(Hyperspectral, FractionsSurfaceInRecordJson) {
  instrument::HyperspectralConfig cfg;
  cfg.height = 24;
  cfg.width = 24;
  cfg.channels = 256;
  cfg.dose = 120;
  cfg.background = {{"Fe", 1.0}};
  auto sample = instrument::generate_hyperspectral(cfg);
  auto result = analyze_hyperspectral(sample.cube, sample.energy_axis);
  util::Json j = result.to_json();
  ASSERT_GE(j.at("elements").size(), 1u);
  EXPECT_GT(j.at("elements")[0].at("fraction").as_double(), 0.0);
}

}  // namespace
}  // namespace pico::analysis

// ----------------------------------------------------------- element maps ----
namespace pico::analysis {
namespace {

TEST(Hyperspectral, ElementMapLocalizesParticles) {
  // Gold particle top-left, lead particle bottom-right; each element's map
  // must light up over its own particle and stay dark over the other's.
  instrument::HyperspectralConfig cfg;
  cfg.height = 48;
  cfg.width = 48;
  cfg.channels = 512;
  cfg.dose = 200;
  cfg.continuum_fraction = 0.05;
  cfg.background = {{"C", 1.0}};
  cfg.particles = {
      {12, 12, 6, {{"Au", 1.0}}},
      {36, 36, 6, {{"Pb", 1.0}}},
  };
  auto sample = instrument::generate_hyperspectral(cfg);

  auto au_map = element_map(sample.cube, sample.energy_axis, 9.711);  // Au La
  auto pb_map = element_map(sample.cube, sample.energy_axis, 10.549); // Pb La
  EXPECT_EQ(au_map.shape(), (tensor::Shape{48, 48}));
  // Gold map: bright at the gold particle, dim at the lead particle.
  EXPECT_GT(au_map(12, 12), 3 * au_map(36, 36) + 1);
  EXPECT_GT(pb_map(36, 36), 3 * pb_map(12, 12) + 1);
}

TEST(Hyperspectral, ElementMapOutsideRangeIsZero) {
  tensor::Tensor<double> cube(tensor::Shape{4, 4, 8});
  for (size_t i = 0; i < cube.size(); ++i) cube[i] = 1.0;
  std::vector<double> axis = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0};
  auto map = element_map(cube, axis, 15.0 /* beyond the axis */);
  for (double v : map.data()) EXPECT_DOUBLE_EQ(v, 0.0);
  // In-range window integrates the covered channels.
  auto mid = element_map(cube, axis, 2.0, 0.55);
  EXPECT_DOUBLE_EQ(mid(0, 0), 3.0);  // channels 1.5, 2.0, 2.5
}

}  // namespace
}  // namespace pico::analysis
