// Data-plane kernel trajectory bench: times every hot kernel of the real-byte
// plane (fp64->uint8 conversion, axis reductions and their fused
// hyperspectral pass, normalization, separable blur, blob detection, MPK
// encoding, CRC-64, LZ compression) in its naive / sequential / parallel
// variants at pool widths {1, 4, hardware} (clamped to the host's hardware
// threads; `oversubscribed` records when a requested width was cut), verifies
// the parallel outputs
// are byte-identical to their sequential twins, and emits a pico.bench.v2
// document (default BENCH_dataplane.json) with the pool telemetry beside it
// as .prom. Gates: per-kernel parity, the sequential-throughput ratchet and
// the parallel-speedup floors (full mode; the speedup floors also need more
// than one hardware thread). `--smoke` shrinks every problem so CI can
// assert the emitter works in milliseconds; full mode uses the paper-scale
// problems from the acceptance criteria (256x256x1024 hyperspectral cube,
// 600x512x512 spatiotemporal stack).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/hyperspectral.hpp"
#include "compress/codec.hpp"
#include "harness.hpp"
#include "instrument/spatiotemporal_gen.hpp"
#include "telemetry/metrics.hpp"
#include "tensor/ops.hpp"
#include "util/bytes.hpp"
#include "util/crc64.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "vision/detect.hpp"
#include "vision/image.hpp"
#include "video/convert.hpp"
#include "video/mpk.hpp"

using namespace pico;
using bench::now_s;
using bench::When;
using util::Json;

namespace {

// Sequential-throughput ratchet (GB/s, full mode only). The convert/normalize
// floors are 2x the 1.9 GB/s scalar baseline recorded before the SIMD layer
// landed; the sums are ratcheted well under their ~10-11 GB/s measurements.
// The CRC kernels fold with carry-less multiply where the CPU has PCLMULQDQ.
// On the 256 MB DRAM-resident buffer below (4-vCPU AVX-512 host), crc64
// measures ~6.1-6.6 GB/s and crc64_copy, which also writes every byte,
// ~4.4-5.6 GB/s; slicing-by-8 runs ~1.3 GB/s for both. Floors of 5 and 3 GB/s sit well above that fallback, so a silent
// fall-back fails the gate. On every kernel a regression to scalar code
// paths fails while run-to-run noise on a shared host does not.
//
// detect (BlobDetector over 244 frames of 128x128 fp64) measures
// 0.83 GB/s on that host with the allocation-free detector (0.48-0.59
// under load from neighbours), against 0.14 GB/s for the original
// allocate-per-frame pipeline; mpk_encode (MpkVideo::to_bytes,
// word-at-a-time RLE straight into the output, page faults on the fresh
// 4 MB result included) 1.26 GB/s (0.77-0.84 under load) against
// 0.30 GB/s. Their floors sit at about half the quiet measurement, which
// the old code does not reach.
//
// hyperspectral_fused (intensity and spectrum in one sequential pass over
// the 537 MB cube) measures 7.9-10.9 GB/s on that host over seven full
// runs, where the two sequential reductions it replaces take 4.7-7.3 GB/s
// of cube together. Its floor, about half the measurement, catches a fall
// to scalar code; parity with the two reductions is gated separately.
const std::map<std::string, double> kSeqGbpsFloor = {
    {"convert_fp64_u8", 3.8},     {"to_u8_normalized", 3.8},
    {"sum_axis3_spectral", 5.0},  {"sum_keep_axis3_spectrum", 5.0},
    {"hyperspectral_fused", 5.0}, {"crc64", 5.0},
    {"crc64_copy", 3.0},          {"detect", 0.4},
    {"mpk_encode", 0.6},
};

// Parallel-speedup floor at the widest pool (full mode, multi-core hosts).
// The SIMD kernels must actually gain from extra threads: the false-sharing
// regression in sum_keep_axis3 showed up as 0.32x at 4 threads. The rest
// must not fall below 0.7x of sequential (chunking overhead aside, they are
// embarrassingly parallel).
const std::map<std::string, std::pair<const char*, double>> kSpeedupFloor = {
    {"convert_fp64_u8", {">", 1.0}},    {"to_u8_normalized", {">", 1.0}},
    {"sum_axis3_spectral", {">", 1.0}}, {"sum_keep_axis3_spectrum", {">", 1.0}},
    {"gaussian_blur", {">=", 0.7}},     {"lz_compress", {">=", 0.7}},
};

/// Best-of-`reps` wall-clock of fn().
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    double t0 = now_s();
    fn();
    best = std::min(best, now_s() - t0);
  }
  return best;
}

tensor::Tensor<double> random_tensor(tensor::Shape shape, uint64_t seed) {
  tensor::Tensor<double> t(std::move(shape));
  util::Rng rng(seed);
  for (double& v : t.data()) v = rng.uniform(0.0, 4096.0);
  return t;
}

/// Compressible payload: byte-shuffled smooth f64 ramp plus sparse noise —
/// the texture of a real EMD detector-count buffer.
std::vector<uint8_t> compressible_payload(size_t n, uint64_t seed) {
  std::vector<uint8_t> out(n);
  util::Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>((i / 977) & 0xFF);
    if (rng.chance(0.02)) out[i] = static_cast<uint8_t>(rng.next_u64());
  }
  return out;
}

/// Pool widths requested for the sweep: {1, 4, hardware}.
std::vector<size_t> requested_widths(size_t hw) { return {1, 4, hw}; }

/// Widths actually run: requested widths clamped to the host's hardware
/// threads (an oversubscribed pool only measures scheduler thrash, not
/// kernel scaling), deduped and sorted.
std::vector<size_t> pool_widths(size_t hw) {
  std::vector<size_t> widths;
  for (size_t w : requested_widths(hw)) widths.push_back(std::min(w, hw));
  std::sort(widths.begin(), widths.end());
  widths.erase(std::unique(widths.begin(), widths.end()), widths.end());
  return widths;
}

struct KernelReport {
  std::string name;
  size_t bytes = 0;
  double naive_s = -1;       ///< < 0 when the kernel has no naive variant
  size_t naive_bytes = 0;    ///< naive may run on a reduced problem
  double sequential_s = 0;
  std::vector<std::pair<size_t, double>> parallel_s;  ///< (threads, seconds)
  bool parity = true;        ///< parallel outputs byte-identical to sequential

  Json to_json() const {
    Json par = Json::array();
    for (auto& [threads, secs] : parallel_s) {
      par.push_back(Json::object({
          {"threads", static_cast<int64_t>(threads)},
          {"seconds", secs},
          {"speedup_vs_sequential", secs > 0 ? sequential_s / secs : 0.0},
      }));
    }
    Json j = Json::object({
        {"bytes", static_cast<int64_t>(bytes)},
        {"sequential_s", sequential_s},
        {"sequential_gbps",
         sequential_s > 0 ? static_cast<double>(bytes) / 1e9 / sequential_s
                          : 0.0},
        {"parallel", par},
        {"parity", parity ? 1 : 0},
    });
    if (!parallel_s.empty() && parallel_s.back().second > 0) {
      j["widest_speedup"] = sequential_s / parallel_s.back().second;
    }
    if (naive_s >= 0) {
      j["naive_s"] = naive_s;
      j["naive_bytes"] = static_cast<int64_t>(naive_bytes);
    }
    return j;
  }

  void print() const {
    std::printf("%-22s %8.1f MB  seq %9.3f ms", name.c_str(),
                static_cast<double>(bytes) / 1e6, sequential_s * 1e3);
    for (auto& [threads, secs] : parallel_s) {
      std::printf("  | %zu thr %9.3f ms (%4.2fx)", threads, secs * 1e3,
                  secs > 0 ? sequential_s / secs : 0.0);
    }
    std::printf("  %s\n", parity ? "parity-ok" : "PARITY MISMATCH!");
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("dataplane", argc, argv);
  const bool smoke = h.smoke();
  const int reps = smoke ? 1 : 2;
  const size_t hw_threads = h.hardware_threads();
  const auto widths = pool_widths(hw_threads);
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  for (size_t w : widths) pools.push_back(std::make_unique<util::ThreadPool>(w));

  std::printf("data-plane kernel bench (%s, %zu hardware threads)\n\n",
              smoke ? "smoke" : "full", hw_threads);

  std::vector<KernelReport> reports;

  // ---- fp64 -> uint8 conversion (the paper's headline compute cost) -------
  {
    const size_t T = smoke ? 6 : 600, H = smoke ? 32 : 512,
                 W = smoke ? 32 : 512;
    auto stack = random_tensor({T, H, W}, 0xC0417);
    KernelReport r;
    r.name = "convert_fp64_u8";
    r.bytes = stack.size() * sizeof(double);

    // The naive path rescans the whole stack per frame (O(frames x size)):
    // measured on a reduced stack so full mode finishes this century.
    const size_t nT = smoke ? T : 30, nH = smoke ? H : 128, nW = smoke ? W : 128;
    auto naive_stack = random_tensor({nT, nH, nW}, 0xC0418);
    r.naive_bytes = naive_stack.size() * sizeof(double);
    r.naive_s = time_best(reps, [&] { video::convert_naive(naive_stack); });

    // Steady-state timing: the streaming path reuses pooled destination
    // buffers, so the _into twins with preallocated outputs are what the
    // pipeline actually pays per stack (a fresh Tensor per rep would charge
    // the kernel for zero-fill page faults it never sees in production).
    tensor::Tensor<uint8_t> seq(stack.shape());
    r.sequential_s =
        time_best(reps, [&] { video::convert_fast_into(stack, seq); });
    for (size_t i = 0; i < widths.size(); ++i) {
      tensor::Tensor<uint8_t> par(stack.shape());
      double secs = time_best(
          reps, [&] { video::convert_parallel_into(stack, par, *pools[i]); });
      r.parallel_s.emplace_back(widths[i], secs);
      r.parity = r.parity && par.storage() == seq.storage();
    }
    r.print();
    reports.push_back(std::move(r));
  }

  // ---- normalization of the hyperspectral cube ----------------------------
  const size_t cH = smoke ? 8 : 256, cW = smoke ? 8 : 256,
               cE = smoke ? 32 : 1024;
  auto cube = random_tensor({cH, cW, cE}, 0xCBE);
  {
    KernelReport r;
    r.name = "to_u8_normalized";
    r.bytes = cube.size() * sizeof(double);
    tensor::Tensor<uint8_t> seq(cube.shape());
    r.sequential_s =
        time_best(reps, [&] { tensor::to_u8_normalized_into(cube, seq); });
    for (size_t i = 0; i < widths.size(); ++i) {
      tensor::Tensor<uint8_t> par(cube.shape());
      double secs = time_best(reps, [&] {
        tensor::to_u8_normalized_into(cube, par, *pools[i]);
      });
      r.parallel_s.emplace_back(widths[i], secs);
      r.parity = r.parity && par.storage() == seq.storage();
    }
    r.print();
    reports.push_back(std::move(r));
  }

  // ---- spectral-axis reductions (Fig. 2A / 2B) ----------------------------
  {
    KernelReport r;
    r.name = "sum_axis3_spectral";
    r.bytes = cube.size() * sizeof(double);
    tensor::Tensor<double> seq;
    r.sequential_s = time_best(reps, [&] { seq = tensor::sum_axis3(cube, 2); });
    for (size_t i = 0; i < widths.size(); ++i) {
      tensor::Tensor<double> par;
      double secs =
          time_best(reps, [&] { par = tensor::sum_axis3(cube, 2, *pools[i]); });
      r.parallel_s.emplace_back(widths[i], secs);
      r.parity = r.parity && par.storage() == seq.storage();
    }
    r.print();
    reports.push_back(std::move(r));
  }
  {
    KernelReport r;
    r.name = "sum_keep_axis3_spectrum";
    r.bytes = cube.size() * sizeof(double);
    tensor::Tensor<double> seq;
    r.sequential_s =
        time_best(reps, [&] { seq = tensor::sum_keep_axis3(cube, 2); });
    for (size_t i = 0; i < widths.size(); ++i) {
      tensor::Tensor<double> par;
      double secs = time_best(
          reps, [&] { par = tensor::sum_keep_axis3(cube, 2, *pools[i]); });
      r.parallel_s.emplace_back(widths[i], secs);
      r.parity = r.parity && par.storage() == seq.storage();
    }
    r.print();
    reports.push_back(std::move(r));
  }

  // ---- both spectral reductions in one pass (the facility's body) --------
  {
    // Sequential only: splitting the fused pass would reassociate the
    // spectrum. Parity here is against the two-kernel result it replaces.
    KernelReport r;
    r.name = "hyperspectral_fused";
    r.bytes = cube.size() * sizeof(double);
    analysis::IntensityAndSpectrum fused;
    r.sequential_s = time_best(
        reps, [&] { fused = analysis::intensity_and_spectrum(cube); });
    r.parity =
        fused.intensity.storage() == tensor::sum_axis3(cube, 2).storage() &&
        fused.spectrum.storage() == tensor::sum_keep_axis3(cube, 2).storage();
    r.print();
    reports.push_back(std::move(r));
  }

  // ---- separable Gaussian blur (detector front-end) -----------------------
  {
    const size_t bH = smoke ? 32 : 512, bW = smoke ? 32 : 512;
    auto img = random_tensor({bH, bW}, 0xB1);
    const double sigma = 2.0;
    KernelReport r;
    r.name = "gaussian_blur";
    r.bytes = img.size() * sizeof(double);
    vision::ImageF seq;
    r.sequential_s =
        time_best(reps, [&] { seq = vision::gaussian_blur(img, sigma); });
    for (size_t i = 0; i < widths.size(); ++i) {
      vision::ImageF par;
      double secs = time_best(
          reps, [&] { par = vision::gaussian_blur(img, sigma, pools[i].get()); });
      r.parallel_s.emplace_back(widths[i], secs);
      r.parity = r.parity && par.storage() == seq.storage();
    }
    r.print();
    reports.push_back(std::move(r));
  }

  // ---- blob detection and MPK encoding (the spatiotemporal flow) ---------
  // The spatio-real payload's texture: 128x128 fp64 frames of drifting
  // nanoparticles on a noisy background.
  instrument::SpatiotemporalConfig gen;
  gen.height = gen.width = smoke ? 32 : 128;
  gen.frames = smoke ? 8 : 244;
  gen.particle_count = smoke ? 2 : 6;
  gen.seed = 20230408;
  const auto sample = instrument::generate_spatiotemporal(gen);
  {
    KernelReport r;
    r.name = "detect";
    r.bytes = sample.stack.size() * sizeof(double);
    const vision::BlobDetector detector;
    using Frames = std::vector<std::vector<vision::Detection>>;
    auto same = [](const Frames& a, const Frames& b) {
      if (a.size() != b.size()) return false;
      for (size_t t = 0; t < a.size(); ++t) {
        if (a[t].size() != b[t].size()) return false;
        for (size_t i = 0; i < a[t].size(); ++i) {
          const auto& p = a[t][i];
          const auto& q = b[t][i];
          if (std::memcmp(&p.box, &q.box, sizeof p.box) != 0 ||
              std::memcmp(&p.confidence, &q.confidence, sizeof(double)) != 0) {
            return false;
          }
        }
      }
      return true;
    };
    Frames seq(gen.frames);
    r.sequential_s = time_best(reps, [&] {
      for (size_t t = 0; t < gen.frames; ++t) {
        seq[t] = detector.detect(vision::FrameView::of_stack(sample.stack, t));
      }
    });
    for (size_t i = 0; i < widths.size(); ++i) {
      Frames par(gen.frames);
      double secs = time_best(reps, [&] {
        pools[i]->parallel_for(gen.frames, [&](size_t t) {
          par[t] = detector.detect(vision::FrameView::of_stack(sample.stack, t));
        });
      });
      r.parallel_s.emplace_back(widths[i], secs);
      r.parity = r.parity && same(par, seq);
    }
    r.print();
    reports.push_back(std::move(r));
  }
  {
    KernelReport r;
    r.name = "mpk_encode";
    const video::MpkVideo video =
        video::MpkVideo::from_stack(video::convert_fast(sample.stack));
    r.bytes = video.frame_count() * video.height() * video.width();
    std::vector<uint8_t> encoded;
    r.sequential_s = time_best(reps, [&] { encoded = video.to_bytes(); });
    // Sequential only (frames of one video encode in order); parity is
    // the lossless round trip.
    auto back = video::MpkVideo::from_bytes(encoded);
    r.parity = back && back.value().frame_count() == video.frame_count();
    for (size_t t = 0; r.parity && t < video.frame_count(); ++t) {
      r.parity = back.value().frame(t).storage() == video.frame(t).storage();
    }
    r.print();
    reports.push_back(std::move(r));
  }

  // ---- CRC-64 (transfer checksum verification) ----------------------------
  {
    const size_t n = smoke ? (1u << 16) : (256u << 20);
    auto payload = compressible_payload(n, 0xCC);
    KernelReport r;
    r.name = "crc64";
    r.bytes = n;
    r.naive_bytes = n;
    uint64_t bytewise = 0, fast = 0;
    r.naive_s = time_best(
        reps, [&] { bytewise = util::crc64_bytewise(payload.data(), n); });
    r.sequential_s =
        time_best(reps, [&] { fast = util::crc64(payload.data(), n); });
    r.parity = bytewise == fast;
    r.print();
    reports.push_back(std::move(r));

    // Fused copy+checksum: the one-traversal landing primitive. Naive twin is
    // the land-then-scan it replaces (memcpy pass + crc64 pass).
    KernelReport rc;
    rc.name = "crc64_copy";
    rc.bytes = n;
    rc.naive_bytes = n;
    std::vector<uint8_t> dst(n);
    uint64_t scanned = 0, fused = 0;
    rc.naive_s = time_best(reps, [&] {
      std::memcpy(dst.data(), payload.data(), n);
      scanned = util::crc64(dst.data(), n);
    });
    rc.sequential_s = time_best(
        reps, [&] { fused = util::crc64_copy(dst.data(), payload.data(), n); });
    rc.parity = scanned == fused && dst == payload;
    rc.print();
    reports.push_back(std::move(rc));
  }

  // ---- LZ compression (A3 transfer codec) ---------------------------------
  {
    const size_t n = smoke ? (1u << 18) : (24u << 20);
    auto payload = compressible_payload(n, 0x12F);
    KernelReport r;
    r.name = "lz_compress";
    r.bytes = n;
    r.naive_bytes = n;
    compress::LzCodec lz;
    compress::Bytes seq;
    r.naive_s = time_best(reps, [&] { seq = lz.compress(payload); });
    r.sequential_s = r.naive_s;  // the single-stream codec IS the sequential twin
    compress::Bytes first_par;
    for (size_t i = 0; i < widths.size(); ++i) {
      compress::BlockLzCodec block(compress::BlockLzCodec::kDefaultBlockSize,
                                   pools[i].get());
      compress::Bytes par;
      double secs = time_best(reps, [&] { par = block.compress(payload); });
      r.parallel_s.emplace_back(widths[i], secs);
      // Parallel output must round-trip and be identical across widths (the
      // blocked stream legitimately differs from the single-stream bytes).
      if (first_par.empty()) first_par = par;
      auto rt = block.decompress(par);
      r.parity = r.parity && par == first_par && rt && rt.value() == payload;
    }
    r.print();
    reports.push_back(std::move(r));
  }

  // ---- pool telemetry: publish the ThreadPool profiling counters ----------
  // One series per pool width, exported both as Prometheus text beside the
  // output (validated by tools/check_telemetry.py --prom) and in the results.
  telemetry::MetricsRegistry registry;
  Json pool_stats = Json::array();
  for (size_t i = 0; i < widths.size(); ++i) {
    const util::PoolStats s = pools[i]->stats();
    telemetry::Labels labels{{"threads", std::to_string(widths[i])}};
    registry
        .counter("pool_tasks_submitted_total", "Tasks enqueued via submit()",
                 labels)
        .inc(static_cast<double>(s.tasks_submitted));
    registry
        .counter("pool_batches_total", "parallel_chunks invocations", labels)
        .inc(static_cast<double>(s.batches));
    registry
        .counter("pool_chunks_executed_total",
                 "Work chunks drained across all threads", labels)
        .inc(static_cast<double>(s.chunks_executed));
    registry
        .counter("pool_caller_chunks_total",
                 "Chunks drained inline by the submitting thread", labels)
        .inc(static_cast<double>(s.caller_chunks));
    registry
        .counter("pool_chunk_time_seconds_total",
                 "Wall time spent inside chunk bodies, summed over threads",
                 labels)
        .inc(static_cast<double>(s.chunk_time_ns) * 1e-9);
    registry
        .gauge("pool_max_queue_depth", "Peak pending-task backlog observed",
               labels)
        .set(static_cast<double>(s.max_queue_depth));
    pool_stats.push_back(Json::object({
        {"threads", static_cast<int64_t>(widths[i])},
        {"tasks_submitted", static_cast<int64_t>(s.tasks_submitted)},
        {"batches", static_cast<int64_t>(s.batches)},
        {"chunks_executed", static_cast<int64_t>(s.chunks_executed)},
        {"caller_chunks", static_cast<int64_t>(s.caller_chunks)},
        {"chunk_time_s", static_cast<double>(s.chunk_time_ns) * 1e-9},
        {"max_queue_depth", static_cast<int64_t>(s.max_queue_depth)},
    }));
  }
  std::string prom_path = h.out_path();
  if (prom_path.ends_with(".json")) prom_path.resize(prom_path.size() - 5);
  prom_path += ".prom";
  util::write_file(prom_path, registry.to_prometheus());
  std::printf("wrote %s (%zu metric families)\n", prom_path.c_str(),
              registry.family_count());

  // ---- results and gates ---------------------------------------------------
  Json kernels = Json::object();
  for (const auto& r : reports) {
    kernels[r.name] = r.to_json();
    h.gate("parity." + r.name, "kernels." + r.name + ".parity", "==", 1);
  }
  for (const auto& [kernel, floor] : kSeqGbpsFloor) {
    h.gate("seq_gbps." + kernel, "kernels." + kernel + ".sequential_gbps",
           ">=", floor, When::Full);
  }
  for (const auto& [kernel, floor] : kSpeedupFloor) {
    h.gate("speedup." + kernel, "kernels." + kernel + ".widest_speedup",
           floor.first, floor.second, When::FullParallel);
  }
  auto widths_json = [](const std::vector<size_t>& ws) {
    Json a = Json::array();
    for (size_t w : ws) a.push_back(static_cast<int64_t>(w));
    return a;
  };
  const auto requested = requested_widths(hw_threads);
  int64_t over_hw = 0, oversubscribed = 0;
  for (size_t w : widths) over_hw += w > hw_threads;
  for (size_t w : requested) oversubscribed += w > hw_threads;
  h.results = Json::object({
      {"pool_widths", widths_json(widths)},
      {"requested_widths", widths_json(requested)},
      {"oversubscribed", oversubscribed > 0},
      {"pool_widths_over_hw", over_hw},
      {"kernels", std::move(kernels)},
      {"pools", std::move(pool_stats)},
  });
  // The sweep is clamped to the host: an oversubscribed pool only measures
  // scheduler thrash, not kernel scaling.
  h.gate("pool_widths_clamped", "pool_widths_over_hw", "==", 0);
  return h.finish();
}
