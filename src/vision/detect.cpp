#include "vision/detect.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "vision/kernels.hpp"

namespace pico::vision {
namespace {

/// Row-major [h, w] plane in per-thread scratch, indexed like a tensor.
template <typename T>
struct Plane {
  const T* data;
  size_t h, w;
  T operator()(size_t y, size_t x) const { return data[y * w + x]; }
};
using SmoothPlane = Plane<double>;
using MaskPlane = Plane<uint8_t>;

struct Peak {
  long y, x;
  double v;
};

struct Cluster {
  double peak_v = 0;
  long cy1, cx1, cy2, cx2;
  bool any = false;
};

/// Everything one detect() call needs besides its result, kept per thread
/// and grown to the largest frame (and component) seen: the pipeline then
/// runs with no allocation per frame beyond its result. `keys` serves the
/// median/MAD selection and then the labelling queue.
struct Scratch {
  std::vector<double> taps, pad, tmp, smooth;
  std::vector<const double*> rows;
  std::vector<uint16_t> digits;
  std::vector<uint64_t> keys;
  std::vector<uint32_t> hist;
  std::vector<uint8_t> mask;
  std::vector<Component> components;
  std::vector<Peak> peaks;
  std::vector<std::pair<long, long>> kept;
  std::vector<Cluster> clusters;
  std::vector<util::Box> boxes;

  template <typename T>
  static T* at_least(std::vector<T>& v, size_t n) {
    if (v.size() < n) v.resize(n);
    return v.data();
  }
};

Scratch& thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Tight box over the component's bright core: pixels within the component's
/// bounding region whose (smoothed) intensity clears
/// thr + core_level_frac * (local peak - thr). The soft PSF rim that the
/// Otsu mask includes is excluded, so the box tracks the particle's physical
/// extent rather than its glow.
util::Box refine_core_box(const SmoothPlane& smooth, const Component& comp,
                          double thr, double core_level_frac) {
  long y1 = static_cast<long>(comp.box.y);
  long x1 = static_cast<long>(comp.box.x);
  long y2 = static_cast<long>(comp.box.y2() - 1);
  long x2 = static_cast<long>(comp.box.x2() - 1);
  double peak = thr;
  for (long y = y1; y <= y2; ++y) {
    for (long x = x1; x <= x2; ++x) {
      peak = std::max(peak,
                      smooth(static_cast<size_t>(y), static_cast<size_t>(x)));
    }
  }
  double level = thr + core_level_frac * (peak - thr);
  long cy1 = y2 + 1, cx1 = x2 + 1, cy2 = y1 - 1, cx2 = x1 - 1;
  for (long y = y1; y <= y2; ++y) {
    for (long x = x1; x <= x2; ++x) {
      if (smooth(static_cast<size_t>(y), static_cast<size_t>(x)) >= level) {
        cy1 = std::min(cy1, y);
        cx1 = std::min(cx1, x);
        cy2 = std::max(cy2, y);
        cx2 = std::max(cx2, x);
      }
    }
  }
  if (cy2 < cy1 || cx2 < cx1) return comp.box;  // core empty: keep mask box
  return util::Box{static_cast<double>(cx1), static_cast<double>(cy1),
                   static_cast<double>(cx2 - cx1 + 1),
                   static_cast<double>(cy2 - cy1 + 1)};
}

/// Local maxima of the smoothed image within a component's bounding region,
/// at least `min_sep` pixels apart (stronger peak wins). Touching particles
/// merge into one Otsu component; its intensity surface still carries one
/// summit per particle, so peak count recovers the particle count.
void find_peaks_in_box(const SmoothPlane& smooth, const MaskPlane& mask,
                       const util::Box& box, double floor_level,
                       double min_sep, std::vector<Peak>& peaks,
                       std::vector<std::pair<long, long>>& kept) {
  long y1 = static_cast<long>(box.y);
  long x1 = static_cast<long>(box.x);
  long y2 = static_cast<long>(box.y2() - 1);
  long x2 = static_cast<long>(box.x2() - 1);
  const long h = static_cast<long>(smooth.h);
  const long w = static_cast<long>(smooth.w);

  peaks.clear();
  for (long y = y1; y <= y2; ++y) {
    for (long x = x1; x <= x2; ++x) {
      if (!mask(static_cast<size_t>(y), static_cast<size_t>(x))) continue;
      double v = smooth(static_cast<size_t>(y), static_cast<size_t>(x));
      if (v < floor_level) continue;
      bool is_max = true;
      for (long dy = -1; dy <= 1 && is_max; ++dy) {
        for (long dx = -1; dx <= 1; ++dx) {
          if (dy == 0 && dx == 0) continue;
          long ny = y + dy, nx = x + dx;
          if (ny < 0 || nx < 0 || ny >= h || nx >= w) continue;
          if (smooth(static_cast<size_t>(ny), static_cast<size_t>(nx)) > v) {
            is_max = false;
            break;
          }
        }
      }
      if (is_max) peaks.push_back(Peak{y, x, v});
    }
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.v > b.v; });

  // A candidate is a distinct summit only if it is far enough from every
  // kept peak AND the intensity dips into a genuine valley between them —
  // otherwise plateau noise on a single particle would fragment it.
  auto valley_between = [&](long ay, long ax, long by, long bx) {
    double lowest = std::numeric_limits<double>::infinity();
    int steps = static_cast<int>(std::max(std::labs(ay - by), std::labs(ax - bx)));
    for (int s = 0; s <= steps; ++s) {
      double f = steps == 0 ? 0.0 : static_cast<double>(s) / steps;
      long y = ay + static_cast<long>(std::lround(f * (by - ay)));
      long x = ax + static_cast<long>(std::lround(f * (bx - ax)));
      lowest = std::min(lowest,
                        smooth(static_cast<size_t>(y), static_cast<size_t>(x)));
    }
    return lowest;
  };

  kept.clear();
  for (const auto& p : peaks) {
    bool shadowed = false;
    for (const auto& [ky, kx] : kept) {
      double d = std::hypot(static_cast<double>(p.y - ky),
                            static_cast<double>(p.x - kx));
      if (d < min_sep) {
        shadowed = true;
        break;
      }
      double kept_v = smooth(static_cast<size_t>(ky), static_cast<size_t>(kx));
      double pair_min = std::min(p.v, kept_v);
      double valley = valley_between(p.y, p.x, ky, kx);
      // Valley must drop at least 35% of the way from the weaker summit
      // toward the floor for the two to count as separate particles.
      if (valley > floor_level + 0.65 * (pair_min - floor_level)) {
        shadowed = true;
        break;
      }
    }
    if (!shadowed) kept.emplace_back(p.y, p.x);
  }
}

/// Split a merged component into per-peak boxes: every mask pixel in the
/// region is assigned to its nearest peak, each cluster is core-refined
/// independently.
void split_by_peaks(const SmoothPlane& smooth, const MaskPlane& mask,
                    const Component& comp,
                    const std::vector<std::pair<long, long>>& peaks,
                    double thr, double core_level_frac,
                    std::vector<Cluster>& clusters,
                    std::vector<util::Box>& out) {
  long y1 = static_cast<long>(comp.box.y);
  long x1 = static_cast<long>(comp.box.x);
  long y2 = static_cast<long>(comp.box.y2() - 1);
  long x2 = static_cast<long>(comp.box.x2() - 1);

  clusters.assign(peaks.size(), Cluster{});
  for (size_t k = 0; k < peaks.size(); ++k) {
    clusters[k].peak_v = smooth(static_cast<size_t>(peaks[k].first),
                                static_cast<size_t>(peaks[k].second));
  }

  // First pass: per-cluster refinement level from its own peak.
  for (long y = y1; y <= y2; ++y) {
    for (long x = x1; x <= x2; ++x) {
      if (!mask(static_cast<size_t>(y), static_cast<size_t>(x))) continue;
      double v = smooth(static_cast<size_t>(y), static_cast<size_t>(x));
      size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t k = 0; k < peaks.size(); ++k) {
        double d = std::hypot(static_cast<double>(y - peaks[k].first),
                              static_cast<double>(x - peaks[k].second));
        if (d < best_d) {
          best_d = d;
          best = k;
        }
      }
      Cluster& c = clusters[best];
      double level = thr + core_level_frac * (c.peak_v - thr);
      if (v < level) continue;
      if (!c.any) {
        c.cy1 = c.cy2 = y;
        c.cx1 = c.cx2 = x;
        c.any = true;
      } else {
        c.cy1 = std::min(c.cy1, y);
        c.cx1 = std::min(c.cx1, x);
        c.cy2 = std::max(c.cy2, y);
        c.cx2 = std::max(c.cx2, x);
      }
    }
  }

  for (const auto& c : clusters) {
    if (!c.any) continue;
    out.push_back(util::Box{static_cast<double>(c.cx1),
                            static_cast<double>(c.cy1),
                            static_cast<double>(c.cx2 - c.cx1 + 1),
                            static_cast<double>(c.cy2 - c.cy1 + 1)});
  }
}

}  // namespace

std::vector<Detection> BlobDetector::detect(const ImageF& frame) const {
  if (frame.rank() != 2) return {};
  return detect(FrameView::of(frame));
}

std::vector<Detection> BlobDetector::detect(FrameView frame) const {
  std::vector<Detection> out;
  const size_t n = frame.size();
  if (n == 0) return out;
  const size_t fh = frame.height, fw = frame.width;
  Scratch& s = thread_scratch();

  // Blur into scratch, folding the smoothed frame's range into the vertical
  // pass (sigma <= 0 keeps the frame as is, like gaussian_blur).
  const double* smooth_data = frame.data;
  detail::Range range{std::numeric_limits<double>::infinity(),
                      -std::numeric_limits<double>::infinity()};
  if (config_.blur_sigma > 0) {
    detail::gaussian_taps(config_.blur_sigma, s.taps);
    double* tmp = Scratch::at_least(s.tmp, n);
    double* blurred = Scratch::at_least(s.smooth, n);
    detail::blur_horizontal(frame.data, fw, s.taps, tmp, 0, fh,
                            Scratch::at_least(s.pad, fw + s.taps.size() - 1));
    range = detail::blur_vertical(tmp, fh, fw, s.taps, blurred, 0, fh,
                                  Scratch::at_least(s.rows, s.taps.size()));
    smooth_data = blurred;
  } else {
    for (size_t i = 0; i < n; ++i) {
      const double v = frame.data[i];
      range.lo = v < range.lo ? v : range.lo;
      range.hi = v > range.hi ? v : range.hi;
    }
  }
  const SmoothPlane smooth{smooth_data, fh, fw};

  // Noise rejection: a frame with no blob-like structure has its maximum
  // within a few (robust) standard deviations of the background; Otsu would
  // still split it and hallucinate speckle detections. Median + MAD rather
  // than mean + stddev so bright particles covering a sizable area fraction
  // don't inflate the scale estimate and mask themselves.
  {
    const detail::RobustStats stats = detail::median_mad(
        smooth_data, n, range.lo, range.hi, Scratch::at_least(s.digits, n),
        Scratch::at_least(s.keys, n),
        Scratch::at_least(s.hist, detail::kHistBins));
    double robust_sigma = 1.4826 * stats.mad + 1e-12;
    double peak = range.hi;
    if (peak < stats.median + config_.contrast_sigma * robust_sigma) return out;
  }

  double thr = detail::otsu_threshold(smooth_data, n, range.lo, range.hi);
  uint8_t* mask_data = Scratch::at_least(s.mask, n);
  detail::frame_kernels().threshold_mask(smooth_data, n, thr, mask_data);
  std::vector<Component>& components = s.components;
  components.clear();
  detail::label_components(mask_data, smooth_data, fh, fw, s.keys.data(),
                           components);
  const MaskPlane mask{mask_data, fh, fw};

  const double frame_area = static_cast<double>(n);
  const double w = static_cast<double>(fw);
  const double h = static_cast<double>(fh);

  for (const auto& comp : components) {
    if (comp.area < config_.min_area_px) continue;
    if (static_cast<double>(comp.area) > config_.max_area_frac * frame_area) {
      continue;
    }

    // Confidence: how far the blob's mean intensity rises above threshold,
    // squashed into (0, 1]. Bright compact particles score near 1.
    double mean = comp.mass / static_cast<double>(comp.area);
    double lift = (mean - thr) / std::max(1e-9, std::abs(thr) * (config_.confidence_scale - 1.0) + 1e-9);
    double conf = std::clamp(1.0 - std::exp(-std::max(0.0, lift) - 0.15),
                             0.05, 1.0);

    // Touching particles merge into one component; split it at its
    // intensity summits (one per particle) before boxing.
    double peak_floor = thr + 0.35 * (std::max(mean, thr) - thr);
    find_peaks_in_box(
        smooth, mask, comp.box, peak_floor,
        std::max(2.5, std::sqrt(static_cast<double>(comp.area)) * 0.5),
        s.peaks, s.kept);

    std::vector<util::Box>& boxes = s.boxes;
    boxes.clear();
    if (s.kept.size() >= 2) {
      split_by_peaks(smooth, mask, comp, s.kept, thr, config_.core_level_frac,
                     s.clusters, boxes);
    }
    if (boxes.empty()) {
      boxes.push_back(
          refine_core_box(smooth, comp, thr, config_.core_level_frac));
    }
    for (util::Box box : boxes) {
      box.x -= config_.box_margin_px;
      box.y -= config_.box_margin_px;
      box.w += 2 * config_.box_margin_px;
      box.h += 2 * config_.box_margin_px;
      box = util::clip(box, w, h);
      out.push_back(Detection{box, conf});
    }
  }

  std::sort(out.begin(), out.end(), [](const Detection& a, const Detection& b) {
    return a.confidence > b.confidence;
  });
  return out;
}

std::vector<size_t> count_per_frame(
    const std::vector<std::vector<Detection>>& detections) {
  std::vector<size_t> out;
  out.reserve(detections.size());
  for (const auto& d : detections) out.push_back(d.size());
  return out;
}

}  // namespace pico::vision
