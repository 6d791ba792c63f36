// Verbatim copies of the original detector pipeline and RLE encoder (see
// reference_detect.hpp). Only the plumbing differs: no thread pool, a
// DetectPaths tally, free functions instead of members. Compiled with
// -ffp-contract=off like the library's vision sources, so the reference and
// the library agree on rounding on every target.
#include "reference_detect.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <limits>

#include "tensor/ops.hpp"

namespace pico::reference {

using vision::Component;
using vision::Detection;
using vision::DetectorConfig;
using vision::ImageF;
using vision::ImageU8;

ImageF gaussian_blur(const ImageF& image, double sigma) {
  assert(image.rank() == 2);
  if (sigma <= 0) return image;
  const size_t h = image.dim(0), w = image.dim(1);

  int radius = std::max(1, static_cast<int>(std::ceil(3 * sigma)));
  std::vector<double> kernel(static_cast<size_t>(2 * radius + 1));
  double sum = 0;
  for (int i = -radius; i <= radius; ++i) {
    double v = std::exp(-(i * i) / (2 * sigma * sigma));
    kernel[static_cast<size_t>(i + radius)] = v;
    sum += v;
  }
  for (double& v : kernel) v /= sum;

  auto reflect = [](long i, long n) {
    if (i < 0) i = -i - 1;
    if (i >= n) i = 2 * n - i - 1;
    return std::clamp(i, 0l, n - 1);
  };
  const size_t r = static_cast<size_t>(radius);
  const size_t taps = kernel.size();

  // Horizontal pass. Border pixels reflect; the interior fast path indexes
  // the row directly (no per-tap clamp) with the same tap order, so results
  // match the all-reflect loop bit for bit.
  const size_t x_left = std::min(w, r);
  const size_t x_interior_end = w > r ? w - r : 0;
  ImageF tmp(tensor::Shape{h, w});
  for (size_t y = 0; y < h; ++y) {
    {
      const double* row = &image(y, 0);
      auto edge = [&](size_t x) {
        double acc = 0;
        for (int k = -radius; k <= radius; ++k) {
          long xx = reflect(static_cast<long>(x) + k, static_cast<long>(w));
          acc += kernel[static_cast<size_t>(k + radius)] *
                 row[static_cast<size_t>(xx)];
        }
        tmp(y, x) = acc;
      };
      for (size_t x = 0; x < x_left; ++x) edge(x);
      for (size_t x = x_left; x < std::max(x_left, x_interior_end); ++x) {
        double acc = 0;
        const double* p = row + x - r;
        for (size_t k = 0; k < taps; ++k) acc += kernel[k] * p[k];
        tmp(y, x) = acc;
      }
      for (size_t x = std::max(x_left, x_interior_end); x < w; ++x) edge(x);
    }
  }

  // Vertical pass: same structure over rows of the output; a row is interior
  // when every tap lands inside the image.
  const size_t y_interior_end = h > r ? h - r : 0;
  ImageF out(tensor::Shape{h, w});
  for (size_t y = 0; y < h; ++y) {
    {
      if (y >= r && y < y_interior_end) {
        for (size_t x = 0; x < w; ++x) {
          double acc = 0;
          for (size_t k = 0; k < taps; ++k) acc += kernel[k] * tmp(y - r + k, x);
          out(y, x) = acc;
        }
      } else {
        for (size_t x = 0; x < w; ++x) {
          double acc = 0;
          for (int k = -radius; k <= radius; ++k) {
            long yy = reflect(static_cast<long>(y) + k, static_cast<long>(h));
            acc += kernel[static_cast<size_t>(k + radius)] *
                   tmp(static_cast<size_t>(yy), x);
          }
          out(y, x) = acc;
        }
      }
    }
  }
  return out;
}

double otsu_threshold(const ImageF& image) {
  assert(image.rank() == 2 && image.size() > 0);
  double lo = tensor::min_value(image), hi = tensor::max_value(image);
  if (hi <= lo) return lo;

  constexpr size_t kBins = 256;
  std::vector<size_t> hist(kBins, 0);
  double scale = (kBins - 1) / (hi - lo);
  for (double v : image.data()) {
    size_t bin = static_cast<size_t>((v - lo) * scale);
    hist[std::min(bin, kBins - 1)] += 1;
  }

  const double total = static_cast<double>(image.size());
  double sum_all = 0;
  for (size_t i = 0; i < kBins; ++i) sum_all += static_cast<double>(i) * static_cast<double>(hist[i]);

  double best_between = -1;
  size_t best_bin = 0;
  double w0 = 0, sum0 = 0;
  for (size_t t = 0; t < kBins; ++t) {
    w0 += static_cast<double>(hist[t]);
    if (w0 == 0) continue;
    double w1 = total - w0;
    if (w1 == 0) break;
    sum0 += static_cast<double>(t) * static_cast<double>(hist[t]);
    double mu0 = sum0 / w0;
    double mu1 = (sum_all - sum0) / w1;
    double between = w0 * w1 * (mu0 - mu1) * (mu0 - mu1);
    if (between > best_between) {
      best_between = between;
      best_bin = t;
    }
  }
  return lo + (static_cast<double>(best_bin) + 0.5) / scale;
}

ImageU8 threshold_mask(const ImageF& image, double threshold) {
  ImageU8 out(image.shape());
  auto src = image.data();
  auto dst = out.data();
  for (size_t i = 0; i < src.size(); ++i) dst[i] = src[i] > threshold ? 1 : 0;
  return out;
}

std::vector<Component> connected_components(const ImageU8& mask,
                                            const ImageF& intensity) {
  assert(mask.rank() == 2 && mask.shape() == intensity.shape());
  const long h = static_cast<long>(mask.dim(0));
  const long w = static_cast<long>(mask.dim(1));
  std::vector<uint8_t> visited(static_cast<size_t>(h * w), 0);
  std::vector<Component> out;

  // BFS flood fill, 8-connectivity.
  std::deque<std::pair<long, long>> frontier;
  for (long sy = 0; sy < h; ++sy) {
    for (long sx = 0; sx < w; ++sx) {
      size_t start = static_cast<size_t>(sy * w + sx);
      if (!mask[start] || visited[start]) continue;

      Component comp;
      double min_x = sx, max_x = sx, min_y = sy, max_y = sy;
      double mx = 0, my = 0;
      visited[start] = 1;
      frontier.clear();
      frontier.emplace_back(sy, sx);
      while (!frontier.empty()) {
        auto [y, x] = frontier.front();
        frontier.pop_front();
        double val = intensity(static_cast<size_t>(y), static_cast<size_t>(x));
        comp.area += 1;
        comp.mass += val;
        mx += val * static_cast<double>(x);
        my += val * static_cast<double>(y);
        min_x = std::min(min_x, static_cast<double>(x));
        max_x = std::max(max_x, static_cast<double>(x));
        min_y = std::min(min_y, static_cast<double>(y));
        max_y = std::max(max_y, static_cast<double>(y));
        for (long dy = -1; dy <= 1; ++dy) {
          for (long dx = -1; dx <= 1; ++dx) {
            if (dy == 0 && dx == 0) continue;
            long ny = y + dy, nx = x + dx;
            if (ny < 0 || nx < 0 || ny >= h || nx >= w) continue;
            size_t ni = static_cast<size_t>(ny * w + nx);
            if (mask[ni] && !visited[ni]) {
              visited[ni] = 1;
              frontier.emplace_back(ny, nx);
            }
          }
        }
      }
      if (comp.mass > 0) {
        comp.centroid_x = mx / comp.mass;
        comp.centroid_y = my / comp.mass;
      }
      // Box spans pixel extents inclusively.
      comp.box = util::Box{min_x, min_y, max_x - min_x + 1, max_y - min_y + 1};
      out.push_back(comp);
    }
  }
  return out;
}

namespace {

/// Tight box over the component's bright core: pixels within the component's
/// bounding region whose (smoothed) intensity clears
/// thr + core_level_frac * (local peak - thr). The soft PSF rim that the
/// Otsu mask includes is excluded, so the box tracks the particle's physical
/// extent rather than its glow.
util::Box refine_core_box(const ImageF& smooth, const Component& comp,
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
std::vector<std::pair<long, long>> find_peaks_in_box(const ImageF& smooth,
                                                     const ImageU8& mask,
                                                     const util::Box& box,
                                                     double floor_level,
                                                     double min_sep) {
  long y1 = static_cast<long>(box.y);
  long x1 = static_cast<long>(box.x);
  long y2 = static_cast<long>(box.y2() - 1);
  long x2 = static_cast<long>(box.x2() - 1);
  const long h = static_cast<long>(smooth.dim(0));
  const long w = static_cast<long>(smooth.dim(1));

  struct Peak {
    long y, x;
    double v;
  };
  std::vector<Peak> peaks;
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

  std::vector<std::pair<long, long>> kept;
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
  return kept;
}

/// Split a merged component into per-peak boxes: every mask pixel in the
/// region is assigned to its nearest peak, each cluster is core-refined
/// independently.
std::vector<util::Box> split_by_peaks(
    const ImageF& smooth, const ImageU8& mask, const Component& comp,
    const std::vector<std::pair<long, long>>& peaks, double thr,
    double core_level_frac) {
  long y1 = static_cast<long>(comp.box.y);
  long x1 = static_cast<long>(comp.box.x);
  long y2 = static_cast<long>(comp.box.y2() - 1);
  long x2 = static_cast<long>(comp.box.x2() - 1);

  struct Cluster {
    double peak_v = 0;
    long cy1, cx1, cy2, cx2;
    bool any = false;
  };
  std::vector<Cluster> clusters(peaks.size());
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

  std::vector<util::Box> out;
  for (const auto& c : clusters) {
    if (!c.any) continue;
    out.push_back(util::Box{static_cast<double>(c.cx1),
                            static_cast<double>(c.cy1),
                            static_cast<double>(c.cx2 - c.cx1 + 1),
                            static_cast<double>(c.cy2 - c.cy1 + 1)});
  }
  return out;
}

}  // namespace

std::vector<Detection> detect(const ImageF& frame, const DetectorConfig& config,
                              DetectPaths* paths) {
  if (paths) ++paths->frames;
  std::vector<Detection> out;
  if (frame.rank() != 2 || frame.size() == 0) return out;

  ImageF smooth = gaussian_blur(frame, config.blur_sigma);

  // Noise rejection: a frame with no blob-like structure has its maximum
  // within a few (robust) standard deviations of the background; Otsu would
  // still split it and hallucinate speckle detections. Median + MAD rather
  // than mean + stddev so bright particles covering a sizable area fraction
  // don't inflate the scale estimate and mask themselves.
  {
    std::vector<double> values(smooth.data().begin(), smooth.data().end());
    auto mid = values.begin() + static_cast<ptrdiff_t>(values.size() / 2);
    std::nth_element(values.begin(), mid, values.end());
    double median = *mid;
    for (double& v : values) v = std::abs(v - median);
    std::nth_element(values.begin(), mid, values.end());
    double robust_sigma = 1.4826 * *mid + 1e-12;
    double peak = tensor::max_value(smooth);
    if (peak < median + config.contrast_sigma * robust_sigma) {
      if (paths) ++paths->rejected_frames;
      return out;
    }
  }

  double thr = otsu_threshold(smooth);
  ImageU8 mask = threshold_mask(smooth, thr);
  auto components = connected_components(mask, smooth);

  const double frame_area = static_cast<double>(frame.size());
  const double w = static_cast<double>(frame.dim(1));
  const double h = static_cast<double>(frame.dim(0));

  for (const auto& comp : components) {
    if (comp.area < config.min_area_px) continue;
    if (static_cast<double>(comp.area) > config.max_area_frac * frame_area) {
      continue;
    }

    // Confidence: how far the blob's mean intensity rises above threshold,
    // squashed into (0, 1]. Bright compact particles score near 1.
    double mean = comp.mass / static_cast<double>(comp.area);
    double lift = (mean - thr) / std::max(1e-9, std::abs(thr) * (config.confidence_scale - 1.0) + 1e-9);
    double conf = std::clamp(1.0 - std::exp(-std::max(0.0, lift) - 0.15),
                             0.05, 1.0);

    // Touching particles merge into one component; split it at its
    // intensity summits (one per particle) before boxing.
    double peak_floor = thr + 0.35 * (std::max(mean, thr) - thr);
    auto peaks = find_peaks_in_box(
        smooth, mask, comp.box, peak_floor,
        std::max(2.5, std::sqrt(static_cast<double>(comp.area)) * 0.5));

    std::vector<util::Box> boxes;
    if (peaks.size() >= 2) {
      boxes = split_by_peaks(smooth, mask, comp, peaks, thr,
                             config.core_level_frac);
      if (paths && !boxes.empty()) ++paths->split_components;
    }
    if (boxes.empty()) {
      boxes.push_back(
          refine_core_box(smooth, comp, thr, config.core_level_frac));
    }
    for (util::Box box : boxes) {
      box.x -= config.box_margin_px;
      box.y -= config.box_margin_px;
      box.w += 2 * config.box_margin_px;
      box.h += 2 * config.box_margin_px;
      box = util::clip(box, w, h);
      out.push_back(Detection{box, conf});
    }
  }

  std::sort(out.begin(), out.end(), [](const Detection& a, const Detection& b) {
    return a.confidence > b.confidence;
  });
  return out;
}


// Format: sequence of (control, payload) records.
//   control 0x00..0x7F: literal run of (control+1) bytes follows
//   control 0x80..0xFF: repeat next byte (control-0x7F+1) times, i.e. runs of
//                       2..129 identical bytes
std::vector<uint8_t> rle_compress(std::span<const uint8_t> input) {
  std::vector<uint8_t> out;
  out.reserve(input.size() / 2 + 16);
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    // Measure the run starting at i (cap 129: control byte is 0x7F + run-1).
    size_t run = 1;
    while (i + run < n && input[i + run] == input[i] && run < 129) ++run;
    if (run >= 2) {
      out.push_back(static_cast<uint8_t>(0x7F + run - 1));
      out.push_back(input[i]);
      i += run;
      continue;
    }
    // Collect a literal stretch until the next run of >= 3 (short runs of 2
    // are cheaper as literals than breaking the literal record).
    size_t lit_start = i;
    while (i < n && (i - lit_start) < 128) {
      size_t r = 1;
      while (i + r < n && input[i + r] == input[i] && r < 3) ++r;
      if (r >= 3) break;
      ++i;
    }
    size_t lit_len = i - lit_start;
    if (lit_len == 0) {  // ended exactly on a run boundary
      continue;
    }
    out.push_back(static_cast<uint8_t>(lit_len - 1));
    out.insert(out.end(), input.data() + lit_start, input.data() + i);
  }
  return out;
}

}  // namespace pico::reference
