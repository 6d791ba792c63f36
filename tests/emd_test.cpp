// EMD-lite format tests: round-trips, metadata-only reads, corruption
// detection, schema conventions, fuzz robustness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "emd/file.hpp"
#include "emd/schema.hpp"
#include "emd_layout.hpp"
#include "storage/store.hpp"
#include "tensor/tensor.hpp"
#include "util/bytes.hpp"
#include "util/crc64.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace pico::emd {
namespace {

File sample_file() {
  File f;
  f.root.attrs["format"] = "EMD-lite";
  Group& g = f.root.ensure_group("data/signal0");
  g.attrs["signal_kind"] = "hyperspectral";

  tensor::Tensor<double> cube(tensor::Shape{2, 3, 4});
  for (size_t i = 0; i < cube.size(); ++i) cube[i] = static_cast<double>(i) * 0.5;
  g.datasets.emplace("data", Dataset::from_tensor(cube));

  tensor::Tensor<uint16_t> aux(tensor::Shape{5});
  for (size_t i = 0; i < 5; ++i) aux[i] = static_cast<uint16_t>(i * 100);
  f.root.ensure_group("calibration").datasets.emplace("gains",
                                                      Dataset::from_tensor(aux));
  return f;
}

TEST(EmdFile, RoundTripPreservesTree) {
  File f = sample_file();
  auto bytes = f.to_bytes();
  auto re = File::from_bytes(bytes);
  ASSERT_TRUE(re);
  const File& g = re.value();

  EXPECT_EQ(g.root.attrs.at("format").as_string(), "EMD-lite");
  const Dataset* ds = g.root.find_dataset("data/signal0/data");
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->dtype(), tensor::DType::F64);
  EXPECT_EQ(ds->shape(), (tensor::Shape{2, 3, 4}));
  auto cube = ds->as<double>();
  ASSERT_TRUE(cube);
  EXPECT_DOUBLE_EQ(cube.value()(1, 2, 3), 23 * 0.5);

  const Dataset* aux = g.root.find_dataset("calibration/gains");
  ASSERT_NE(aux, nullptr);
  auto gains = aux->as<uint16_t>();
  ASSERT_TRUE(gains);
  EXPECT_EQ(gains.value()(4), 400);
}

TEST(EmdFile, MetadataOnlyReadSkipsPayloads) {
  File f = sample_file();
  auto bytes = f.to_bytes();
  auto re = File::from_bytes(bytes, /*with_payload=*/false);
  ASSERT_TRUE(re);
  const Dataset* ds = re.value().root.find_dataset("data/signal0/data");
  ASSERT_NE(ds, nullptr);
  EXPECT_FALSE(ds->payload_loaded());
  EXPECT_EQ(ds->shape(), (tensor::Shape{2, 3, 4}));
  EXPECT_EQ(ds->nbytes(), 2u * 3 * 4 * 8);
  EXPECT_FALSE(ds->as<double>());  // payload absent
  // Total payload accounting still works from metadata.
  EXPECT_EQ(re.value().payload_bytes(), f.payload_bytes());
}

TEST(EmdFile, DetectsPayloadCorruption) {
  File f = sample_file();
  auto bytes = f.to_bytes();
  bytes[bytes.size() - 3] ^= 0xFF;  // flip payload byte
  auto re = File::from_bytes(bytes);
  ASSERT_FALSE(re);
  EXPECT_EQ(re.error().code, "corrupt");
}

TEST(EmdFile, RejectsBadMagicAndTruncation) {
  File f = sample_file();
  auto bytes = f.to_bytes();
  {
    auto bad = bytes;
    bad[0] = 'X';
    EXPECT_FALSE(File::from_bytes(bad));
  }
  for (size_t cut : {0UL, 3UL, 10UL, bytes.size() / 2}) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(File::from_bytes(truncated)) << "cut=" << cut;
  }
}

TEST(EmdFile, FuzzedInputNeverCrashes) {
  util::Rng rng(0xF022);
  File f = sample_file();
  auto bytes = f.to_bytes();
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = bytes;
    int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < flips; ++i) {
      size_t pos = static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(mutated.size() - 1)));
      mutated[pos] ^= static_cast<uint8_t>(rng.uniform_int(1, 255));
    }
    auto re = File::from_bytes(mutated);  // must not crash; may fail or pass
    (void)re;
  }
}

TEST(EmdFile, SaveAndLoad) {
  std::string path = testing::TempDir() + "/emd_test_roundtrip.emd";
  File f = sample_file();
  ASSERT_TRUE(f.save(path));
  auto re = File::load(path);
  ASSERT_TRUE(re);
  EXPECT_EQ(re.value().payload_bytes(), f.payload_bytes());
  EXPECT_FALSE(File::load(path + ".missing"));
}

TEST(EmdFile, DatasetTypeMismatchIsError) {
  File f = sample_file();
  const Dataset* ds = f.root.find_dataset("data/signal0/data");
  ASSERT_NE(ds, nullptr);
  EXPECT_FALSE(ds->as<float>());
  EXPECT_TRUE(ds->as<double>());
}

TEST(EmdFile, EmptyFileRoundTrips) {
  File f;
  auto re = File::from_bytes(f.to_bytes());
  ASSERT_TRUE(re);
  EXPECT_TRUE(re.value().root.groups.empty());
  EXPECT_EQ(re.value().payload_bytes(), 0u);
}

TEST(EmdFile, GroupPathHelpers) {
  File f;
  Group& g = f.root.ensure_group("a/b/c");
  g.attrs["x"] = 1;
  EXPECT_NE(f.root.find_group("a/b/c"), nullptr);
  EXPECT_EQ(f.root.find_group("a/b/c")->attrs.at("x").as_int(), 1);
  EXPECT_EQ(f.root.find_group("a/missing"), nullptr);
  EXPECT_EQ(f.root.find_dataset("a/b/c/nothing"), nullptr);
  // ensure_group is idempotent.
  EXPECT_EQ(&f.root.ensure_group("a/b/c"), &g);
}

TEST(EmdFile, ZeroElementDatasetSupported) {
  File f;
  tensor::Tensor<double> empty(tensor::Shape{0, 4});
  f.root.ensure_group("data/empty").datasets.emplace(
      "data", Dataset::from_tensor(empty));
  auto re = File::from_bytes(f.to_bytes());
  ASSERT_TRUE(re);
  const Dataset* ds = re.value().root.find_dataset("data/empty/data");
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->element_count(), 0u);
}

// ---- schema conventions ----

TEST(EmdSchema, MicroscopeSettingsRoundTrip) {
  MicroscopeSettings s;
  s.beam_energy_kv = 120;
  s.stage_x_um = 1.5;
  s.environment = "cryogenic";
  MicroscopeSettings t = MicroscopeSettings::from_json(s.to_json());
  EXPECT_DOUBLE_EQ(t.beam_energy_kv, 120);
  EXPECT_DOUBLE_EQ(t.stage_x_um, 1.5);
  EXPECT_EQ(t.environment, "cryogenic");
  EXPECT_EQ(t.detector, s.detector);
}

TEST(EmdSchema, StandardMetadataAndSignals) {
  File f;
  MicroscopeSettings scope;
  write_standard_metadata(f, scope, "2023-04-07T10:00:00Z", "gold on carbon",
                          "operator@anl.gov");

  tensor::Tensor<double> stack(tensor::Shape{3, 4, 4});
  add_signal(f, "movie", SignalKind::Spatiotemporal,
             Dataset::from_tensor(stack), {"time", "height", "width"});

  auto name = first_signal_name(f);
  ASSERT_TRUE(name);
  EXPECT_EQ(name.value(), "movie");
  auto kind = signal_kind(f, "movie");
  ASSERT_TRUE(kind);
  EXPECT_EQ(kind.value(), SignalKind::Spatiotemporal);
  EXPECT_FALSE(signal_kind(f, "nope"));

  // Round trip keeps the conventions intact.
  auto re = File::from_bytes(f.to_bytes());
  ASSERT_TRUE(re);
  EXPECT_EQ(re.value().root.attrs.at("acquired").as_string(),
            "2023-04-07T10:00:00Z");
  auto kind2 = signal_kind(re.value(), "movie");
  ASSERT_TRUE(kind2);
  EXPECT_EQ(kind2.value(), SignalKind::Spatiotemporal);
}

TEST(EmdSchema, FirstSignalOnEmptyFileIsError) {
  File f;
  EXPECT_FALSE(first_signal_name(f));
}

}  // namespace
}  // namespace pico::emd

// ----------------------------------------------------------------- HMSA ----
#include "emd/hmsa.hpp"

namespace pico::emd {
namespace {

File hmsa_sample() {
  File f;
  MicroscopeSettings scope;
  scope.beam_energy_kv = 200;
  write_standard_metadata(f, scope, "2023-04-07T08:00:00Z",
                          "hmsa round trip sample", "operator@anl.gov");
  tensor::Tensor<double> cube(tensor::Shape{4, 5, 6});
  for (size_t i = 0; i < cube.size(); ++i) cube[i] = std::sqrt(static_cast<double>(i));
  add_signal(f, "hyperspectral", SignalKind::Hyperspectral,
             Dataset::from_tensor(cube), {"height", "width", "energy"},
             util::Json::object({{"energy_min_kev", 0.0},
                                 {"energy_max_kev", 20.0}}));
  tensor::Tensor<uint8_t> frames(tensor::Shape{2, 3, 3});
  frames(1, 2, 2) = 99;
  add_signal(f, "movie", SignalKind::Spatiotemporal,
             Dataset::from_tensor(frames), {"time", "height", "width"});
  return f;
}

TEST(Hmsa, RoundTripPreservesSignalsAndMetadata) {
  File original = hmsa_sample();
  auto pair = to_hmsa(original);
  ASSERT_TRUE(pair);
  EXPECT_NE(pair.value().xml.find("MSAHyperDimensionalDataFile"),
            std::string::npos);
  EXPECT_EQ(pair.value().binary.size(), original.payload_bytes());

  auto back = from_hmsa(pair.value());
  ASSERT_TRUE(back);
  const File& f = back.value();
  // Header attributes survive.
  EXPECT_EQ(f.root.attrs.at("acquired").as_string(), "2023-04-07T08:00:00Z");
  // Microscope settings survive with numeric types intact.
  const Group* mic = f.root.find_group(Paths::kMicroscope);
  ASSERT_NE(mic, nullptr);
  EXPECT_DOUBLE_EQ(
      mic->attrs.at("settings").at("beam_energy_kv").as_double(), 200.0);
  // Datasets bit-exact.
  const Dataset* cube = f.root.find_dataset("data/hyperspectral/data");
  ASSERT_NE(cube, nullptr);
  EXPECT_EQ(cube->shape(), (tensor::Shape{4, 5, 6}));
  auto t = cube->as<double>();
  ASSERT_TRUE(t);
  EXPECT_DOUBLE_EQ(t.value()(3, 4, 5), std::sqrt(119.0));
  const Dataset* movie = f.root.find_dataset("data/movie/data");
  ASSERT_NE(movie, nullptr);
  EXPECT_EQ(movie->as<uint8_t>().value()(1, 2, 2), 99);
  // Signal kind attributes survive -> EMD helpers keep working.
  auto kind = signal_kind(f, "movie");
  ASSERT_TRUE(kind);
  EXPECT_EQ(kind.value(), SignalKind::Spatiotemporal);
}

TEST(Hmsa, DetectsBinaryCorruption) {
  auto pair = to_hmsa(hmsa_sample());
  ASSERT_TRUE(pair);
  pair.value().binary[10] ^= 0xFF;
  auto back = from_hmsa(pair.value());
  ASSERT_FALSE(back);
  EXPECT_EQ(back.error().code, "corrupt");
}

TEST(Hmsa, DetectsTruncatedBinary) {
  auto pair = to_hmsa(hmsa_sample());
  ASSERT_TRUE(pair);
  pair.value().binary.resize(pair.value().binary.size() / 2);
  EXPECT_FALSE(from_hmsa(pair.value()));
}

TEST(Hmsa, RejectsWrongRootElement) {
  HmsaPair pair;
  pair.xml = "<NotHmsa/>";
  EXPECT_FALSE(from_hmsa(pair));
  pair.xml = "definitely not xml";
  EXPECT_FALSE(from_hmsa(pair));
}

TEST(Hmsa, SaveLoadFilePair) {
  std::string base = testing::TempDir() + "/hmsa_pair_test";
  File original = hmsa_sample();
  ASSERT_TRUE(save_hmsa(original, base));
  auto back = load_hmsa(base);
  ASSERT_TRUE(back);
  EXPECT_EQ(back.value().payload_bytes(), original.payload_bytes());
  EXPECT_FALSE(load_hmsa(base + "-missing"));
}

TEST(Hmsa, MetadataOnlyFileHasEmptyBlob) {
  File f;
  f.root.attrs["format"] = "EMD-lite";
  auto pair = to_hmsa(f);
  ASSERT_TRUE(pair);
  EXPECT_TRUE(pair.value().binary.empty());
  auto back = from_hmsa(pair.value());
  ASSERT_TRUE(back);
  EXPECT_EQ(back.value().root.attrs.at("format").as_string(), "EMD-lite");
}

// ------------------------------------------------------- zero-copy loads ----

TEST(EmdMapped, LoadMappedEqualsHeapLoad) {
  File f = sample_file();
  std::string path = testing::TempDir() + "/pico_emd_mapped.emd";
  ASSERT_TRUE(f.save(path));

  auto heap = File::from_bytes(util::read_file(path).value());
  auto mapped = File::load_mapped(path);
  ASSERT_TRUE(heap);
  ASSERT_TRUE(mapped);

  const Dataset* hd = heap.value().root.find_dataset("data/signal0/data");
  const Dataset* md = mapped.value().root.find_dataset("data/signal0/data");
  ASSERT_NE(hd, nullptr);
  ASSERT_NE(md, nullptr);
  // A from_bytes parse owns its payload bytes; the mapped load aliases the
  // mapping.
  EXPECT_TRUE(hd->payload_owned());
  EXPECT_FALSE(md->payload_owned());
  auto hraw = hd->raw();
  auto mraw = md->raw();
  ASSERT_EQ(hraw.size(), mraw.size());
  EXPECT_TRUE(std::equal(hraw.begin(), hraw.end(), mraw.begin()));
  // Typed reads copy out of the view transparently.
  auto cube = md->as<double>();
  ASSERT_TRUE(cube);
  EXPECT_DOUBLE_EQ(cube.value()[3], 1.5);
  // Round-trip serialization from views matches the original bytes.
  EXPECT_EQ(mapped.value().to_bytes(), f.to_bytes());
}

TEST(EmdMapped, ViewsOutliveTheFileObject) {
  File f = sample_file();
  std::string path = testing::TempDir() + "/pico_emd_mapped_life.emd";
  ASSERT_TRUE(f.save(path));

  Dataset stolen;
  {
    auto mapped = File::load_mapped(path);
    ASSERT_TRUE(mapped);
    auto it = mapped.value().root.find_group("calibration");
    ASSERT_NE(it, nullptr);
    stolen = it->datasets.at("gains");  // copies the view + co-owns mapping
  }  // File (and its other datasets) destroyed; mapping must stay alive
  auto raw = stolen.raw();
  ASSERT_EQ(raw.size(), 5 * sizeof(uint16_t));
  auto gains = stolen.as<uint16_t>();
  ASSERT_TRUE(gains);
  EXPECT_EQ(gains.value()[4], 400);
}

// ------------------------------------------------ shared-buffer parses ----

std::shared_ptr<const std::vector<uint8_t>> shared_sample() {
  return std::make_shared<const std::vector<uint8_t>>(sample_file().to_bytes());
}

TEST(EmdShared, DatasetsViewTheSharedBuffer) {
  const auto bytes = shared_sample();
  auto shared = File::from_shared(bytes);
  auto copied = File::from_bytes(*bytes);
  ASSERT_TRUE(shared);
  ASSERT_TRUE(copied);
  for (const char* name : {"data/signal0/data", "calibration/gains"}) {
    const Dataset* sd = shared.value().root.find_dataset(name);
    const Dataset* cd = copied.value().root.find_dataset(name);
    ASSERT_NE(sd, nullptr);
    ASSERT_NE(cd, nullptr);
    EXPECT_FALSE(sd->payload_owned()) << name;
    EXPECT_TRUE(cd->payload_owned()) << name;
    auto raw = sd->raw();
    EXPECT_GE(raw.data(), bytes->data()) << name;
    EXPECT_LE(raw.data() + raw.size(), bytes->data() + bytes->size()) << name;
    EXPECT_TRUE(std::equal(raw.begin(), raw.end(), cd->raw().begin())) << name;
  }
  EXPECT_EQ(shared.value().to_bytes(), *bytes);
}

TEST(EmdShared, FlippedPayloadByteFailsCorrupt) {
  auto bytes = sample_file().to_bytes();
  bytes[bytes.size() - 3] ^= 0xFF;
  auto re = File::from_shared(
      std::make_shared<const std::vector<uint8_t>>(std::move(bytes)));
  ASSERT_FALSE(re);
  EXPECT_EQ(re.error().code, "corrupt");
}

TEST(EmdShared, ParsedFileOutlivesStoreRemove) {
  storage::Store store("eagle", 1 << 20);
  ASSERT_TRUE(store.put("exp/a.emd", shared_sample(), sim::SimTime{}));
  auto file = File::from_shared(store.get("exp/a.emd").value()->content);
  ASSERT_TRUE(file);
  ASSERT_TRUE(store.remove("exp/a.emd"));
  const Dataset* ds = file.value().root.find_dataset("data/signal0/data");
  ASSERT_NE(ds, nullptr);
  auto cube = ds->as<double>();
  ASSERT_TRUE(cube);
  EXPECT_DOUBLE_EQ(cube.value()(1, 2, 3), 23 * 0.5);
}

TEST(EmdShared, LoadParsesTheReadBufferInPlace) {
  File f = sample_file();
  std::string path = testing::TempDir() + "/pico_emd_shared_load.emd";
  ASSERT_TRUE(f.save(path));
  auto re = File::load(path);
  ASSERT_TRUE(re);
  const Dataset* ds = re.value().root.find_dataset("calibration/gains");
  ASSERT_NE(ds, nullptr);
  EXPECT_FALSE(ds->payload_owned());
  auto gains = ds->as<uint16_t>();
  ASSERT_TRUE(gains);
  EXPECT_EQ(gains.value()[4], 400);
  EXPECT_EQ(re.value().to_bytes(), f.to_bytes());
}

TEST(EmdMapped, HeaderOnlyMappedRead) {
  File f = sample_file();
  std::string path = testing::TempDir() + "/pico_emd_mapped_hdr.emd";
  ASSERT_TRUE(f.save(path));
  auto mapped = File::load_mapped(path, /*with_payload=*/false);
  ASSERT_TRUE(mapped);
  const Dataset* ds = mapped.value().root.find_dataset("data/signal0/data");
  ASSERT_NE(ds, nullptr);
  EXPECT_FALSE(ds->payload_loaded());
  EXPECT_EQ(ds->shape(), (tensor::Shape{2, 3, 4}));
  EXPECT_NE(ds->crc(), 0u);
}

TEST(EmdMapped, DetectsCorruptionThroughTheView) {
  File f = sample_file();
  auto bytes = f.to_bytes();
  bytes.back() ^= 0xFF;  // flip a payload byte
  std::string path = testing::TempDir() + "/pico_emd_mapped_bad.emd";
  ASSERT_TRUE(util::write_file(path, bytes));
  auto mapped = File::load_mapped(path);
  ASSERT_FALSE(mapped);
  EXPECT_EQ(mapped.error().code, "corrupt");
}

TEST(EmdMapped, MissingFileIsError) {
  EXPECT_FALSE(File::load_mapped(testing::TempDir() + "/pico_no_such.emd"));
}

// ------------------------------------------ payload layout and typed views ----

using util::Json;

/// Bytes of a file laid out by hand: `datasets` is the root's dataset table
/// (offsets relative to `blob`), the header is not padded.
std::vector<uint8_t> hand_built(const Json& datasets,
                                const std::vector<uint8_t>& blob) {
  const std::string text =
      Json::object({{"attrs", Json::object()},
                    {"datasets", datasets},
                    {"groups", Json::object()}})
          .dump();
  std::vector<uint8_t> out;
  util::ByteWriter w(&out);
  w.bytes(File::kMagic, 4);
  w.u32(File::kVersion);
  w.u64(text.size());
  w.bytes(text.data(), text.size());
  w.bytes(blob.data(), blob.size());
  return out;
}

Json dataset_entry(const char* dtype, Json shape, int64_t offset,
                   int64_t nbytes, uint64_t crc) {
  return Json::object({{"dtype", dtype},
                       {"shape", std::move(shape)},
                       {"offset", offset},
                       {"nbytes", nbytes},
                       {"crc64", util::to_hex_u64(crc)}});
}

void collect_offsets(const Json& group, std::vector<int64_t>* out) {
  for (const auto& [name, meta] : group.at("datasets").as_object()) {
    out->push_back(meta.at("offset").as_int());
  }
  for (const auto& [name, child] : group.at("groups").as_object()) {
    collect_offsets(child, out);
  }
}

TEST(EmdLayout, WriterAlignsTheBlobAndEveryPayloadTo64) {
  File f = sample_file();
  // Odd sizes, so unpadded offsets would land anywhere.
  tensor::Tensor<uint8_t> odd(tensor::Shape{3});
  f.root.ensure_group("aux").datasets.emplace("odd", Dataset::from_tensor(odd));
  tensor::Tensor<double> after(tensor::Shape{5});
  f.root.ensure_group("aux").datasets.emplace("zz",
                                              Dataset::from_tensor(after));
  const auto bytes =
      std::make_shared<const std::vector<uint8_t>>(f.to_bytes());

  EXPECT_EQ((test::kEmdPreamble + test::emd_header_len(*bytes)) % 64, 0u);
  std::vector<int64_t> offsets;
  collect_offsets(test::emd_header(*bytes), &offsets);
  ASSERT_EQ(offsets.size(), 4u);
  for (int64_t off : offsets) EXPECT_EQ(off % 64, 0) << off;

  auto re = File::from_shared(bytes);
  ASSERT_TRUE(re);
  for (const char* name : {"data/signal0/data", "calibration/gains",
                           "aux/odd", "aux/zz"}) {
    const Dataset* ds = re.value().root.find_dataset(name);
    ASSERT_NE(ds, nullptr) << name;
    EXPECT_EQ((ds->raw().data() - bytes->data()) % 64, 0) << name;
  }
  // Re-serializing a parsed file reproduces the same aligned bytes.
  EXPECT_EQ(re.value().to_bytes(), *bytes);
}

TEST(EmdLayout, UnpaddedOldLayoutStillParses) {
  // The layout written before payloads were aligned: header unpadded,
  // payloads packed back to back from blob offset 0.
  std::vector<double> cube(24);
  for (size_t i = 0; i < cube.size(); ++i) {
    cube[i] = static_cast<double>(i) * 0.5;
  }
  const uint16_t gains[5] = {0, 100, 200, 300, 400};
  std::vector<uint8_t> blob(cube.size() * 8 + sizeof(gains));
  std::memcpy(blob.data(), cube.data(), cube.size() * 8);
  std::memcpy(blob.data() + cube.size() * 8, gains, sizeof(gains));
  Json datasets = Json::object(
      {{"cube", dataset_entry("f64", Json::array({2, 3, 4}), 0, 192,
                              util::crc64(blob.data(), 192))},
       {"gains", dataset_entry("u16", Json::array({5}), 192, 10,
                               util::crc64(blob.data() + 192, 10))}});
  const auto bytes = std::make_shared<const std::vector<uint8_t>>(
      hand_built(datasets, blob));

  for (bool shared : {false, true}) {
    auto re = shared ? File::from_shared(bytes) : File::from_bytes(*bytes);
    ASSERT_TRUE(re) << re.error().message;
    auto view = re.value().root.find_dataset("cube")->view<double>();
    ASSERT_TRUE(view);
    EXPECT_EQ(view.value().shape(), (tensor::Shape{2, 3, 4}));
    EXPECT_DOUBLE_EQ(view.value()(1, 2, 3), 23 * 0.5);
    auto g = re.value().root.find_dataset("gains")->view<uint16_t>();
    ASSERT_TRUE(g);
    EXPECT_EQ(g.value()[4], 400);
  }
}

TEST(EmdView, AlignedPayloadIsReadInPlace) {
  const auto bytes =
      std::make_shared<const std::vector<uint8_t>>(sample_file().to_bytes());
  auto re = File::from_shared(bytes);
  ASSERT_TRUE(re);
  const Dataset* ds = re.value().root.find_dataset("data/signal0/data");
  auto view = ds->view<double>();
  ASSERT_TRUE(view);
  EXPECT_FALSE(view.value().owns());
  EXPECT_EQ(static_cast<const void*>(view.value().data().data()),
            static_cast<const void*>(ds->raw().data()));
  EXPECT_EQ(view.value().shape(), (tensor::Shape{2, 3, 4}));
  EXPECT_DOUBLE_EQ(view.value()(1, 2, 3), 23 * 0.5);
}

TEST(EmdView, MisalignedPayloadIsCopiedOnceAndShared) {
  // Four spaces more header put the f64 payload 4 bytes off alignment.
  const auto bytes = std::make_shared<const std::vector<uint8_t>>(
      test::with_header_padding(sample_file().to_bytes(), 4));
  auto re = File::from_shared(bytes);
  ASSERT_TRUE(re);
  const Dataset* ds = re.value().root.find_dataset("data/signal0/data");
  ASSERT_NE(reinterpret_cast<uintptr_t>(ds->raw().data()) % alignof(double),
            0u);
  auto view = ds->view<double>();
  ASSERT_TRUE(view);
  EXPECT_TRUE(view.value().owns());
  EXPECT_NE(static_cast<const void*>(view.value().data().data()),
            static_cast<const void*>(ds->raw().data()));
  for (size_t i = 0; i < 24; ++i) {
    EXPECT_DOUBLE_EQ(view.value()[i], static_cast<double>(i) * 0.5);
  }
  // Copies of the view share its one copy, which outlives the original.
  tensor::ConstView<double> copy = view.value();
  EXPECT_EQ(copy.data().data(), view.value().data().data());
  view = decltype(view)::err("dropped");
  EXPECT_DOUBLE_EQ(copy(1, 2, 3), 23 * 0.5);
  // A u16 view needs only 2-byte alignment: still in place.
  auto gains =
      re.value().root.find_dataset("calibration/gains")->view<uint16_t>();
  ASSERT_TRUE(gains);
  EXPECT_FALSE(gains.value().owns());
}

TEST(EmdView, DtypeMismatchAndMissingPayloadAreErrors) {
  File f = sample_file();
  const Dataset* ds = f.root.find_dataset("data/signal0/data");
  auto wrong = ds->view<float>();
  ASSERT_FALSE(wrong);
  EXPECT_EQ(wrong.error().code, "type");

  auto header_only = File::from_bytes(f.to_bytes(), /*with_payload=*/false);
  ASSERT_TRUE(header_only);
  const Dataset* absent_ds =
      header_only.value().root.find_dataset("data/signal0/data");
  auto absent = absent_ds->view<double>();
  ASSERT_FALSE(absent);
  EXPECT_EQ(absent.error().code, "state");
}

TEST(EmdView, TensorConvertsToAView) {
  tensor::Tensor<double> t(tensor::Shape{2, 2, 3});
  for (size_t i = 0; i < t.size(); ++i) t[i] = static_cast<double>(i);
  const tensor::ConstView<double> v = t;
  EXPECT_FALSE(v.owns());
  EXPECT_EQ(v.data().data(), t.data().data());
  EXPECT_EQ(v.size(), 12u);
  EXPECT_EQ(v.dim(2), 3u);
  EXPECT_EQ(v(1, 1, 2), t(1, 1, 2));
}

// ---- crafted headers: every range check holds without wrapping ----

TEST(EmdCrafted, NegativeOffsetIsRejected) {
  // 64x64 f64 with offset -20000: as an unsigned sum, offset + nbytes
  // wraps to 12768 and passes a `> blob_size` check.
  std::vector<uint8_t> blob(64 * 64 * 8, 0);
  const uint64_t crc = util::crc64(blob);
  for (int64_t offset : {int64_t{-20000}, int64_t{-1}}) {
    auto bytes = hand_built(
        Json::object({{"data", dataset_entry("f64", Json::array({64, 64}),
                                             offset, 32768, crc)}}),
        blob);
    auto re = File::from_bytes(bytes);
    ASSERT_FALSE(re) << offset;
    EXPECT_EQ(re.error().code, "parse");
  }
}

TEST(EmdCrafted, OffsetPastTheBlobIsRejected) {
  std::vector<uint8_t> blob(128, 0);
  const uint64_t crc = util::crc64(blob.data(), 64);
  for (int64_t offset : {int64_t{65}, int64_t{129},
                         std::numeric_limits<int64_t>::max() - 8}) {
    auto bytes = hand_built(
        Json::object({{"data", dataset_entry("f64", Json::array({8}), offset,
                                             64, crc)}}),
        blob);
    auto re = File::from_bytes(bytes);
    ASSERT_FALSE(re) << offset;
    EXPECT_EQ(re.error().code, "parse");
  }
}

TEST(EmdCrafted, OverflowingShapeIsRejected) {
  // 2^61 + 1 rows of 16: the element count wraps to 16, so 128 bytes would
  // match nbytes and a view would index far past the payload.
  std::vector<uint8_t> blob(128, 0);
  auto bytes = hand_built(
      Json::object(
          {{"data",
            dataset_entry("f64",
                          Json::array({int64_t{2305843009213693953}, 16}), 0,
                          128, util::crc64(blob))}}),
      blob);
  for (bool with_payload : {true, false}) {
    auto re = File::from_bytes(bytes, with_payload);
    ASSERT_FALSE(re) << with_payload;
    EXPECT_EQ(re.error().code, "parse");
  }
  // An out-of-range double is not an offset either.
  Json entry = dataset_entry("f64", Json::array({16}), 0, 128,
                             util::crc64(blob));
  entry["offset"] = 1e300;
  EXPECT_FALSE(File::from_bytes(hand_built(Json::object({{"data", entry}}),
                                           blob)));
}

TEST(EmdCrafted, HmsaOffsetThatWrapsIsRejected) {
  auto pair = to_hmsa(hmsa_sample());
  ASSERT_TRUE(pair);
  // The first array sits at offset 0; 2^64 - 8 plus its byte count wraps
  // to a small number inside the binary.
  const std::string from = "Offset=\"0\"";
  const size_t at = pair.value().xml.find(from);
  ASSERT_NE(at, std::string::npos);
  pair.value().xml.replace(at, from.size(),
                           "Offset=\"18446744073709551608\"");
  auto back = from_hmsa(pair.value());
  ASSERT_FALSE(back);
  EXPECT_EQ(back.error().code, "corrupt");
}

}  // namespace
}  // namespace pico::emd
