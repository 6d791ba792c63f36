#pragma once
// Hyperspectral analysis (paper Sec. 3.1 / Fig. 2): reduce an [H, W, E] cube
// to (A) a per-pixel intensity image by summing the spectral axis and (B) an
// aggregate spectrum by summing both pixel axes; then find spectral peaks and
// identify the elements they belong to (the "atomic composition" shown in the
// portal metadata pane).
#include <string>
#include <vector>

#include "instrument/xray_lines.hpp"
#include "tensor/tensor.hpp"
#include "util/json.hpp"
#include "util/threadpool.hpp"

namespace pico::analysis {

/// A: intensity image — sum along the spectral (last) axis of [H, W, E].
/// With a pool, the reduction fans out over it (bit-identical results).
tensor::Tensor<double> intensity_map(const tensor::Tensor<double>& cube,
                                     util::ThreadPool* pool = nullptr);

/// B: aggregate spectrum — sum over both pixel axes, keeping the energy axis.
tensor::Tensor<double> sum_spectrum(const tensor::Tensor<double>& cube,
                                    util::ThreadPool* pool = nullptr);

struct IntensityAndSpectrum {
  tensor::Tensor<double> intensity;  ///< [H, W]
  tensor::Tensor<double> spectrum;   ///< [E]
};

/// A and B in one pass over the cube: for each pixel's spectrum row,
/// intensity[px] = simd::sum_f64(row) and spectrum += row. Each output keeps
/// the association of its sequential twin (sum_axis3 / sum_keep_axis3), so
/// both are bit-identical to intensity_map and sum_spectrum.
IntensityAndSpectrum intensity_and_spectrum(
    const tensor::ConstView<double>& cube);

struct Peak {
  size_t channel = 0;
  double energy_kev = 0;
  double height = 0;       ///< counts above the local continuum estimate
  double prominence = 0;   ///< height relative to neighborhood median
};

struct PeakFindConfig {
  /// A channel is a peak when it exceeds the local median by this factor.
  double prominence_factor = 2.0;
  /// Half-width of the local median window, channels.
  size_t window = 25;
  /// Minimum absolute height (counts) to suppress noise peaks.
  double min_height = 0.0;
  size_t max_peaks = 32;
};

/// Local-maximum + median-prominence peak finder over a spectrum.
std::vector<Peak> find_peaks(const tensor::Tensor<double>& spectrum,
                             const std::vector<double>& energy_axis,
                             const PeakFindConfig& config = {});

struct ElementMatch {
  std::string symbol;
  double score = 0;                 ///< matched peak height sum
  /// Relative composition estimate: this element's matched peak mass as a
  /// fraction of all matched peak mass (the Fig. 2C "atomic composition").
  /// A first-order estimate — no ZAF/absorption correction.
  double fraction = 0;
  std::vector<double> matched_kev;  ///< peak energies attributed to it
};

/// Attribute peaks to elements whose characteristic lines fall within
/// `tolerance_kev`. Elements are reported strongest-first; an element must
/// match its strongest in-range line to be reported.
std::vector<ElementMatch> identify_elements(
    const std::vector<Peak>& peaks,
    const instrument::XRayLineLibrary& library, double tolerance_kev = 0.08);

/// Elemental map: per-pixel counts integrated over an energy window centered
/// on one of the element's matched lines (standard EDS elemental mapping —
/// "where in the sample is the gold?"). Window half-width defaults to twice
/// the detector peak sigma.
tensor::Tensor<double> element_map(const tensor::ConstView<double>& cube,
                                   const std::vector<double>& energy_axis,
                                   double line_kev,
                                   double window_half_width_kev = 0.15);

/// Complete Fig. 2 analysis product for one cube.
struct HyperspectralAnalysis {
  tensor::Tensor<double> intensity;       ///< [H, W]
  tensor::Tensor<double> spectrum;        ///< [E]
  std::vector<Peak> peaks;
  std::vector<ElementMatch> elements;
  util::Json to_json() const;             ///< summary for the search record
};

/// The cube is read once (intensity_and_spectrum). That pass is sequential:
/// splitting it over a pool would reassociate the spectrum's per-channel
/// sums, so `pool` is accepted for source compatibility and left unused.
HyperspectralAnalysis analyze_hyperspectral(
    const tensor::ConstView<double>& cube,
    const std::vector<double>& energy_axis, const PeakFindConfig& config = {},
    util::ThreadPool* pool = nullptr);

}  // namespace pico::analysis
