#include "analysis/hyperspectral.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "tensor/ops.hpp"
#include "tensor/simd/simd.hpp"

namespace pico::analysis {

tensor::Tensor<double> intensity_map(const tensor::Tensor<double>& cube,
                                     util::ThreadPool* pool) {
  assert(cube.rank() == 3);
  return pool ? tensor::sum_axis3(cube, 2, *pool) : tensor::sum_axis3(cube, 2);
}

tensor::Tensor<double> sum_spectrum(const tensor::Tensor<double>& cube,
                                    util::ThreadPool* pool) {
  assert(cube.rank() == 3);
  return pool ? tensor::sum_keep_axis3(cube, 2, *pool)
              : tensor::sum_keep_axis3(cube, 2);
}

IntensityAndSpectrum intensity_and_spectrum(
    const tensor::ConstView<double>& cube) {
  assert(cube.rank() == 3);
  const size_t pixels = cube.dim(0) * cube.dim(1), e = cube.dim(2);
  IntensityAndSpectrum out{tensor::Tensor<double>(
                               tensor::Shape{cube.dim(0), cube.dim(1)}),
                           tensor::Tensor<double>(tensor::Shape{e})};
  const double* row = cube.data().data();
  double* intensity = out.intensity.data().data();
  double* spectrum = out.spectrum.data().data();
  for (size_t px = 0; px < pixels; ++px, row += e) {
    intensity[px] = tensor::simd::sum_f64(row, e);
    tensor::simd::add_f64(spectrum, row, e);
  }
  return out;
}

std::vector<Peak> find_peaks(const tensor::Tensor<double>& spectrum,
                             const std::vector<double>& energy_axis,
                             const PeakFindConfig& cfg) {
  assert(spectrum.rank() == 1);
  const size_t n = spectrum.size();
  assert(energy_axis.size() == n);
  std::vector<Peak> peaks;
  if (n < 3) return peaks;

  std::vector<double> window_buf;
  for (size_t k = 1; k + 1 < n; ++k) {
    double v = spectrum(k);
    if (v <= spectrum(k - 1) || v < spectrum(k + 1)) continue;  // not a local max

    // Local continuum estimate: median over a window around k (peak channels
    // included — with a wide window the median tracks the background).
    size_t lo = k > cfg.window ? k - cfg.window : 0;
    size_t hi = std::min(n - 1, k + cfg.window);
    window_buf.clear();
    for (size_t i = lo; i <= hi; ++i) window_buf.push_back(spectrum(i));
    std::nth_element(window_buf.begin(),
                     window_buf.begin() + static_cast<ptrdiff_t>(window_buf.size() / 2),
                     window_buf.end());
    double local_median = window_buf[window_buf.size() / 2];

    double floor = std::max(local_median, 1e-12);
    if (v < cfg.prominence_factor * floor) continue;
    double height = v - local_median;
    if (height < cfg.min_height) continue;

    peaks.push_back(Peak{k, energy_axis[k], height, v / floor});
  }

  // Merge shoulders: keep only the tallest peak within +/-2 channels.
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.height > b.height; });
  std::vector<Peak> merged;
  for (const auto& p : peaks) {
    bool shadowed = false;
    for (const auto& m : merged) {
      if (p.channel + 2 >= m.channel && m.channel + 2 >= p.channel) {
        shadowed = true;
        break;
      }
    }
    if (!shadowed) merged.push_back(p);
    if (merged.size() >= cfg.max_peaks) break;
  }
  std::sort(merged.begin(), merged.end(),
            [](const Peak& a, const Peak& b) { return a.channel < b.channel; });
  return merged;
}

std::vector<ElementMatch> identify_elements(
    const std::vector<Peak>& peaks, const instrument::XRayLineLibrary& library,
    double tolerance_kev) {
  std::vector<ElementMatch> matches;
  for (const auto& element : library.elements()) {
    ElementMatch m;
    m.symbol = element.symbol;
    // Find the strongest line of this element in the observable range.
    const instrument::XRayLine* primary = nullptr;
    for (const auto& line : element.lines) {
      if (!primary || line.relative_weight > primary->relative_weight) {
        primary = &line;
      }
    }
    bool primary_matched = false;
    for (const auto& line : element.lines) {
      for (const auto& peak : peaks) {
        if (std::abs(peak.energy_kev - line.energy_kev) <= tolerance_kev) {
          m.score += peak.height * line.relative_weight;
          m.matched_kev.push_back(peak.energy_kev);
          if (&line == primary) primary_matched = true;
          break;  // a line matches at most one peak
        }
      }
    }
    if (primary_matched && m.score > 0) matches.push_back(std::move(m));
  }
  std::sort(matches.begin(), matches.end(),
            [](const ElementMatch& a, const ElementMatch& b) {
              return a.score > b.score;
            });
  double total = 0;
  for (const auto& m : matches) total += m.score;
  if (total > 0) {
    for (auto& m : matches) m.fraction = m.score / total;
  }
  return matches;
}

tensor::Tensor<double> element_map(const tensor::ConstView<double>& cube,
                                   const std::vector<double>& energy_axis,
                                   double line_kev,
                                   double window_half_width_kev) {
  assert(cube.rank() == 3 && energy_axis.size() == cube.dim(2));
  const size_t h = cube.dim(0), w = cube.dim(1), e = cube.dim(2);
  tensor::Tensor<double> out(tensor::Shape{h, w});
  // Channel window covering [line - hw, line + hw].
  size_t k_lo = e, k_hi = 0;
  for (size_t k = 0; k < e; ++k) {
    if (std::abs(energy_axis[k] - line_kev) <= window_half_width_kev) {
      k_lo = std::min(k_lo, k);
      k_hi = std::max(k_hi, k);
    }
  }
  if (k_lo > k_hi) return out;  // line outside the acquisition range
  for (size_t i = 0; i < h; ++i) {
    for (size_t j = 0; j < w; ++j) {
      double acc = 0;
      const double* p = &cube(i, j, 0);
      for (size_t k = k_lo; k <= k_hi; ++k) acc += p[k];
      out(i, j) = acc;
    }
  }
  return out;
}

util::Json HyperspectralAnalysis::to_json() const {
  util::Json peaks_json = util::Json::array();
  for (const auto& p : peaks) {
    peaks_json.push_back(util::Json::object({
        {"energy_kev", p.energy_kev},
        {"height", p.height},
    }));
  }
  util::Json elements_json = util::Json::array();
  for (const auto& e : elements) {
    elements_json.push_back(util::Json::object({
        {"symbol", e.symbol},
        {"score", e.score},
        {"fraction", e.fraction},
    }));
  }
  return util::Json::object({
      {"image_height", static_cast<int64_t>(intensity.rank() == 2 ? intensity.dim(0) : 0)},
      {"image_width", static_cast<int64_t>(intensity.rank() == 2 ? intensity.dim(1) : 0)},
      {"channels", static_cast<int64_t>(spectrum.size())},
      {"total_counts", tensor::sum_value(spectrum)},
      {"peaks", peaks_json},
      {"elements", elements_json},
  });
}

HyperspectralAnalysis analyze_hyperspectral(
    const tensor::ConstView<double>& cube,
    const std::vector<double>& energy_axis, const PeakFindConfig& config,
    util::ThreadPool* /*pool*/) {
  HyperspectralAnalysis out;
  IntensityAndSpectrum sums = intensity_and_spectrum(cube);
  out.intensity = std::move(sums.intensity);
  out.spectrum = std::move(sums.spectrum);
  out.peaks = find_peaks(out.spectrum, energy_axis, config);
  out.elements =
      identify_elements(out.peaks, instrument::XRayLineLibrary::standard());
  return out;
}

}  // namespace pico::analysis
