#include "vision/image.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/ops.hpp"
#include "vision/kernels.hpp"

namespace pico::vision {

namespace detail {
namespace {

/// Reflective border index (the blur's only boundary rule): -1 -> 0,
/// n -> n - 1, clamped for kernels wider than the image.
long reflect(long i, long n) {
  if (i < 0) i = -i - 1;
  if (i >= n) i = 2 * n - i - 1;
  return std::clamp(i, 0l, n - 1);
}

constexpr uint64_t kSignBit = uint64_t{1} << 63;

/// Order-preserving key: unsigned comparison of keys equals operator< on the
/// doubles. Adding +0.0 first maps -0.0 to +0.0, so the two zeros share one
/// key just as they share one rank under operator<.
uint64_t order_key(double v) {
  const uint64_t b = std::bit_cast<uint64_t>(v + 0.0);
  return b ^ (static_cast<uint64_t>(static_cast<int64_t>(b) >> 63) | kSignBit);
}

double from_order_key(uint64_t k) {
  return std::bit_cast<double>((k & kSignBit) ? (k ^ kSignBit) : ~k);
}

/// Pop the first bucket of hist[0, bins) whose cumulative count exceeds *k;
/// *k becomes the rank within that bucket.
size_t bucket_of_rank(const uint32_t* hist, size_t* k) {
  size_t b = 0;
  while (hist[b] <= *k) *k -= hist[b++];
  return b;
}

constexpr unsigned kDigitBits = std::countr_zero(kHistBins);
constexpr uint64_t kDigitMask = kHistBins - 1;

/// Shift that brings a key span down to at most kDigitBits bits.
unsigned digit_shift(uint64_t span) {
  const unsigned width = static_cast<unsigned>(std::bit_width(span));
  return width > kDigitBits ? width - kDigitBits : 0u;
}

/// min(base + 2^shift - 1, cap) for base <= cap, without overflow.
uint64_t last_in_bucket(uint64_t base, unsigned shift, uint64_t cap) {
  const uint64_t span = (uint64_t{1} << shift) - 1;
  return cap - base > span ? base + span : cap;
}

/// One selection by MSD radix on order-preserving keys: the k-th smallest
/// (0-based) of the keys key_of(values[i]), i < n, all within [kmin, kmax].
///
/// Level 1 buckets the whole sample by digit_of(v) = (key - floor) >>
/// shift, where keys below `floor` count as `floor` -- a non-decreasing map
/// of the key, so the bucket whose cumulative count passes k holds the
/// answer. The digits are computed in one branch-free (vectorisable) pass,
/// counted, and only the winning bucket's keys are gathered. Each further
/// level re-buckets the candidates' key interval 11 bits finer, until it
/// holds one key or few candidates remain for std::nth_element. digit_of
/// must mask its result into [0, kHistBins): a key outside [kmin, kmax]
/// (NaN input) then stays in bounds and only the result is meaningless.
template <typename DigitOf, typename KeyOf>
uint64_t select_kth(const double* values, size_t n, size_t k, uint64_t kmin,
                    uint64_t kmax, uint64_t floor, unsigned shift,
                    DigitOf&& digit_of, KeyOf&& key_of, uint16_t* digits,
                    uint64_t* cand, uint32_t* hist) {
  constexpr size_t kSortBelow = 32;
  if (kmin >= kmax) return kmin;

  for (size_t i = 0; i < n; ++i) digits[i] = digit_of(values[i]);
  std::fill(hist, hist + kHistBins, 0u);
  for (size_t i = 0; i < n; ++i) ++hist[digits[i]];
  size_t bucket = bucket_of_rank(hist, &k);
  // The winning bucket is sparse: test eight digits per vector compare and
  // visit a group only when one of them matches.
  typedef uint16_t Digits8 __attribute__((vector_size(16)));
  Digits8 want;
  for (size_t l = 0; l < 8; ++l) want[l] = static_cast<uint16_t>(bucket);
  size_t m = 0, i = 0;
  for (; i + 8 <= n; i += 8) {
    Digits8 group;
    std::memcpy(&group, digits + i, sizeof group);
    const Digits8 hit = group == want;
    uint64_t half[2];
    std::memcpy(half, &hit, sizeof half);
    if ((half[0] | half[1]) == 0) continue;
    for (size_t j = i; j < i + 8; ++j) {
      if (digits[j] == bucket) cand[m++] = key_of(values[j]);
    }
  }
  for (; i < n; ++i) {
    if (digits[i] == bucket) cand[m++] = key_of(values[i]);
  }
  // The bucket's key interval, clipped to kmax without overflowing (keys
  // near +inf sit at the top of the 64-bit range).
  const uint64_t base = floor + (uint64_t{bucket} << shift);
  uint64_t lo = bucket == 0 ? kmin : base;
  uint64_t hi = last_in_bucket(base, shift, kmax);

  while (lo < hi && m > kSortBelow) {
    shift = digit_shift(hi - lo);
    std::fill(hist, hist + ((hi - lo) >> shift) + 1, 0u);
    for (size_t j = 0; j < m; ++j) {
      ++hist[(std::clamp(cand[j], lo, hi) - lo) >> shift];
    }
    bucket = bucket_of_rank(hist, &k);
    size_t kept = 0;
    for (size_t j = 0; j < m; ++j) {
      const uint64_t key = cand[j];
      cand[kept] = key;
      kept += ((std::clamp(key, lo, hi) - lo) >> shift) == bucket;
    }
    m = kept;
    lo += uint64_t{bucket} << shift;
    hi = last_in_bucket(lo, shift, hi);
  }
  if (lo >= hi) return lo;  // one key left: every candidate carries it
  std::nth_element(cand, cand + k, cand + m);
  return cand[k];
}

/// Index of the first byte equal to 1 in state[i, n), or n. Labelling state
/// bytes are 0 (background), 1 (unvisited) or 2 (visited), so bit 0 alone
/// marks an unvisited pixel and eight bytes are tested per step.
size_t next_unvisited(const uint8_t* state, size_t i, size_t n) {
  constexpr uint64_t kBit0 = 0x0101010101010101ull;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, state + i, 8);
    word &= kBit0;
    if (word == 0) continue;
    const int bit = std::endian::native == std::endian::little
                        ? std::countr_zero(word)
                        : std::countl_zero(word);
    return i + static_cast<size_t>(bit) / 8;
  }
  while (i < n && state[i] != 1) ++i;
  return i;
}

}  // namespace

void gaussian_taps(double sigma, std::vector<double>& taps) {
  const int radius = std::max(1, static_cast<int>(std::ceil(3 * sigma)));
  taps.resize(static_cast<size_t>(2 * radius + 1));
  double sum = 0;
  for (int i = -radius; i <= radius; ++i) {
    double v = std::exp(-(i * i) / (2 * sigma * sigma));
    taps[static_cast<size_t>(i + radius)] = v;
    sum += v;
  }
  for (double& v : taps) v /= sum;
}

void blur_horizontal(const double* src, size_t w,
                     const std::vector<double>& taps, double* tmp, size_t yb,
                     size_t ye, double* pad) {
  const FrameKernels& k = frame_kernels();
  const long r = static_cast<long>(taps.size() / 2);
  const long lw = static_cast<long>(w);
  for (size_t y = yb; y < ye; ++y) {
    const double* row = src + y * w;
    // Reflect-padded copy of the row: the kernel then indexes it directly
    // with no per-tap border test, reading exactly the samples (in the same
    // tap order) that the reflecting loop would.
    for (long i = 0; i < r; ++i) pad[i] = row[reflect(i - r, lw)];
    std::memcpy(pad + r, row, w * sizeof(double));
    for (long i = 0; i < r; ++i) pad[r + lw + i] = row[reflect(lw + i, lw)];
    k.blur_horizontal_row(pad, taps.data(), taps.size(), tmp + y * w, w);
  }
}

Range blur_vertical(const double* tmp, size_t h, size_t w,
                    const std::vector<double>& taps, double* out, size_t yb,
                    size_t ye, const double** rows) {
  const FrameKernels& k = frame_kernels();
  const long r = static_cast<long>(taps.size() / 2);
  Range range{std::numeric_limits<double>::infinity(),
              -std::numeric_limits<double>::infinity()};
  for (size_t y = yb; y < ye; ++y) {
    for (size_t j = 0; j < taps.size(); ++j) {
      const long yy = reflect(static_cast<long>(y) - r + static_cast<long>(j),
                              static_cast<long>(h));
      rows[j] = tmp + static_cast<size_t>(yy) * w;
    }
    k.blur_vertical_row(rows, taps.data(), taps.size(), out + y * w, w,
                        &range);
  }
  return range;
}

RobustStats median_mad(const double* values, size_t n, double lo, double hi,
                       uint16_t* digits, uint64_t* keys, uint32_t* hist) {
  if (n == 0) return {};
  const size_t mid = n / 2;

  const uint64_t kmin = order_key(lo), kmax = order_key(hi);
  const unsigned shift = digit_shift(kmax - kmin);
  const double median = from_order_key(select_kth(
      values, n, mid, kmin, kmax, kmin, shift,
      [=](double v) {
        return static_cast<uint16_t>(((order_key(v) - kmin) >> shift) &
                                     kDigitMask);
      },
      order_key, digits, keys, hist));

  // |v - median| >= +0.0, whose bit patterns already sort as unsigned
  // integers; the largest deviation sits at one end of the range. The
  // deviations reach down to 0 (the median's own), so level 1 buckets only
  // the 16 binades below the largest and counts anything smaller as the
  // floor (a max() on the double, which preserves order).
  const double dmax = std::max(std::abs(hi - median), std::abs(lo - median));
  const uint64_t dkmax = std::bit_cast<uint64_t>(dmax);
  constexpr uint64_t k16Binades = uint64_t{16} << 52;
  const uint64_t dkfloor = dkmax > k16Binades ? dkmax - k16Binades : 0;
  const double dfloor = std::bit_cast<double>(dkfloor);
  const unsigned dshift = digit_shift(dkmax - dkfloor);
  auto deviation_key = [median](double v) {
    return std::bit_cast<uint64_t>(std::abs(v - median));
  };
  const double mad = std::bit_cast<double>(select_kth(
      values, n, mid, 0, dkmax, dkfloor, dshift,
      [=](double v) {
        const double d = std::max(std::abs(v - median), dfloor);
        return static_cast<uint16_t>(
            ((std::bit_cast<uint64_t>(d) - dkfloor) >> dshift) & kDigitMask);
      },
      deviation_key, digits, keys, hist));
  return {median, mad};
}

double otsu_threshold(const double* values, size_t n, double lo, double hi) {
  if (hi <= lo) return lo;

  // Four interleaved sub-histograms: runs of equal bins (flat background)
  // would otherwise serialise on one counter's store-to-load latency.
  constexpr size_t kBins = 256;
  const double scale = (kBins - 1) / (hi - lo);
  auto bin_of = [&](double v) {
    return std::min(static_cast<size_t>((v - lo) * scale), kBins - 1);
  };
  uint32_t sub[4][kBins] = {};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ++sub[0][bin_of(values[i])];
    ++sub[1][bin_of(values[i + 1])];
    ++sub[2][bin_of(values[i + 2])];
    ++sub[3][bin_of(values[i + 3])];
  }
  for (; i < n; ++i) ++sub[0][bin_of(values[i])];
  size_t hist[kBins];
  for (size_t b = 0; b < kBins; ++b) {
    hist[b] = size_t{sub[0][b]} + sub[1][b] + sub[2][b] + sub[3][b];
  }

  const double total = static_cast<double>(n);
  double sum_all = 0;
  for (size_t b = 0; b < kBins; ++b) sum_all += static_cast<double>(b) * static_cast<double>(hist[b]);

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

void label_components(uint8_t* state, const double* intensity, size_t h,
                      size_t w, uint64_t* queue, std::vector<Component>& out) {
  const size_t n = h * w;
  for (size_t start = next_unvisited(state, 0, n); start < n;
       start = next_unvisited(state, start + 1, n)) {
    Component comp;
    size_t min_x = start % w, max_x = min_x, min_y = start / w, max_y = min_y;
    double mx = 0, my = 0;

    // BFS flood fill, 8-connectivity, over a flat FIFO of (y << 32 | x).
    // The visit order (and with it the order in which mass and the centroid
    // sums accumulate) is the original deque BFS's: pop the front, push the
    // unvisited neighbours row by row.
    size_t head = 0, tail = 0;
    auto push = [&](size_t i, size_t y, size_t x) {
      if (state[i] != 1) return;
      state[i] = 2;
      queue[tail++] = (static_cast<uint64_t>(y) << 32) | x;
    };
    push(start, min_y, min_x);
    while (head < tail) {
      const uint64_t e = queue[head++];
      const size_t y = static_cast<size_t>(e >> 32);
      const size_t x = static_cast<size_t>(e & 0xFFFFFFFFu);
      const size_t c = y * w + x;
      const double val = intensity[c];
      comp.area += 1;
      comp.mass += val;
      mx += val * static_cast<double>(x);
      my += val * static_cast<double>(y);
      min_x = std::min(min_x, x);
      max_x = std::max(max_x, x);
      min_y = std::min(min_y, y);
      max_y = std::max(max_y, y);
      if (y > 0 && y + 1 < h && x > 0 && x + 1 < w) {
        push(c - w - 1, y - 1, x - 1);
        push(c - w, y - 1, x);
        push(c - w + 1, y - 1, x + 1);
        push(c - 1, y, x - 1);
        push(c + 1, y, x + 1);
        push(c + w - 1, y + 1, x - 1);
        push(c + w, y + 1, x);
        push(c + w + 1, y + 1, x + 1);
        continue;
      }
      for (long dy = -1; dy <= 1; ++dy) {
        for (long dx = -1; dx <= 1; ++dx) {
          if (dy == 0 && dx == 0) continue;
          const long ny = static_cast<long>(y) + dy;
          const long nx = static_cast<long>(x) + dx;
          if (ny < 0 || nx < 0 || ny >= static_cast<long>(h) ||
              nx >= static_cast<long>(w)) {
            continue;
          }
          push(static_cast<size_t>(ny) * w + static_cast<size_t>(nx),
               static_cast<size_t>(ny), static_cast<size_t>(nx));
        }
      }
    }
    if (comp.mass > 0) {
      comp.centroid_x = mx / comp.mass;
      comp.centroid_y = my / comp.mass;
    }
    // Box spans pixel extents inclusively.
    comp.box = util::Box{static_cast<double>(min_x), static_cast<double>(min_y),
                         static_cast<double>(max_x - min_x + 1),
                         static_cast<double>(max_y - min_y + 1)};
    out.push_back(comp);
  }
}

}  // namespace detail

namespace {

/// Distribute rows [0, rows) over the pool, or run inline without one.
void for_rows(util::ThreadPool* pool, size_t rows,
              const std::function<void(size_t, size_t)>& body) {
  if (pool == nullptr) {
    body(0, rows);
    return;
  }
  size_t grain = std::max<size_t>(1, rows / (4 * pool->thread_count()));
  pool->parallel_chunks(rows, grain, body);
}

}  // namespace

ImageF gaussian_blur(const ImageF& image, double sigma,
                     util::ThreadPool* pool) {
  assert(image.rank() == 2);
  if (sigma <= 0) return image;
  const size_t h = image.dim(0), w = image.dim(1);
  std::vector<double> taps;
  detail::gaussian_taps(sigma, taps);

  // Rows of each pass are independent, so any partition over the pool gives
  // the sequential result bit for bit.
  ImageF tmp(tensor::Shape{h, w});
  for_rows(pool, h, [&](size_t yb, size_t ye) {
    std::vector<double> pad(w + taps.size() - 1);
    detail::blur_horizontal(image.data().data(), w, taps, tmp.data().data(),
                            yb, ye, pad.data());
  });
  ImageF out(tensor::Shape{h, w});
  for_rows(pool, h, [&](size_t yb, size_t ye) {
    std::vector<const double*> rows(taps.size());
    detail::blur_vertical(tmp.data().data(), h, w, taps, out.data().data(), yb,
                          ye, rows.data());
  });
  return out;
}

double otsu_threshold(const ImageF& image) {
  assert(image.rank() == 2 && image.size() > 0);
  return detail::otsu_threshold(image.data().data(), image.size(),
                                tensor::min_value(image),
                                tensor::max_value(image));
}

ImageU8 threshold_mask(const ImageF& image, double threshold) {
  ImageU8 out(image.shape());
  detail::frame_kernels().threshold_mask(image.data().data(), image.size(),
                                         threshold, out.data().data());
  return out;
}

std::vector<Component> connected_components(const ImageU8& mask,
                                            const ImageF& intensity) {
  assert(mask.rank() == 2 && mask.shape() == intensity.shape());
  std::vector<uint8_t> state(mask.size());
  for (size_t i = 0; i < state.size(); ++i) state[i] = mask[i] != 0 ? 1 : 0;
  std::vector<uint64_t> queue(mask.size());
  std::vector<Component> out;
  detail::label_components(state.data(), intensity.data().data(), mask.dim(0),
                           mask.dim(1), queue.data(), out);
  return out;
}

}  // namespace pico::vision
