#pragma once
// Nanoparticle detector — the classical-CV stand-in for the paper's YOLOv8
// model (see DESIGN.md substitution table). Pipeline per frame: Gaussian
// blur -> Otsu threshold -> connected components -> area filter -> boxes with
// confidence scores. Produces the same artifact as the paper's model: a set
// of (box, confidence) detections per frame (Fig. 3).
#include <vector>

#include "util/geometry.hpp"
#include "vision/image.hpp"

namespace pico::vision {

struct Detection {
  util::Box box;
  double confidence = 0;  ///< in (0, 1]
};

struct DetectorConfig {
  double blur_sigma = 1.0;
  /// Components smaller than this are noise.
  size_t min_area_px = 6;
  /// Components larger than this fraction of the frame are background.
  double max_area_frac = 0.25;
  /// Core-box refinement: the reported box covers pixels above
  /// thr + core_level_frac * (component peak - thr). Soft PSF rims extend
  /// well past a particle's physical extent; boxing the bright core keeps
  /// IoU against physical ground truth high.
  double core_level_frac = 0.12;
  /// Dilate refined boxes by this many pixels on each side.
  double box_margin_px = 0.0;
  /// Frames whose smoothed maximum is below median + contrast_sigma *
  /// (1.4826 * MAD) are treated as empty (noise rejection: nothing blob-like
  /// present). Robust statistics keep large bright particles from masking
  /// themselves.
  double contrast_sigma = 6.0;
  /// Confidence saturates at this mean-intensity multiple over threshold.
  double confidence_scale = 2.0;
};

class BlobDetector {
 public:
  explicit BlobDetector(DetectorConfig config = {}) : config_(config) {}

  /// Detect bright blobs in one frame. Deterministic, no training required.
  std::vector<Detection> detect(const ImageF& frame) const;
  /// Same, on a frame view (e.g. one frame of a [T, H, W] stack, uncopied).
  /// Runs in per-thread scratch: no allocation beyond the returned vector
  /// once the thread has seen a frame this large.
  std::vector<Detection> detect(FrameView frame) const;

  const DetectorConfig& config() const { return config_; }

 private:
  DetectorConfig config_;
};

/// Count detections per frame — the "number of nanoparticles likely in the
/// sample" time series from Fig. 3's caption.
std::vector<size_t> count_per_frame(
    const std::vector<std::vector<Detection>>& detections);

}  // namespace pico::vision
