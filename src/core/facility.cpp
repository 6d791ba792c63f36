#include "core/facility.hpp"

#include "analysis/hyperspectral.hpp"
#include "analysis/metadata.hpp"
#include "analysis/plot.hpp"
#include "emd/schema.hpp"
#include "search/schema.hpp"
#include "tensor/ops.hpp"
#include "util/bytes.hpp"
#include "util/threadpool.hpp"
#include "util/crc64.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "video/convert.hpp"
#include "video/mpk.hpp"
#include "vision/detect.hpp"
#include "vision/track.hpp"

namespace pico::core {

using util::Json;

Facility::Facility(FacilityConfig config)
    : config_(std::move(config)),
      user_store_("picoprobe-staging", config_.user_store_capacity),
      eagle_("eagle", config_.eagle_capacity),
      node_memory_("polaris-nodemem", config_.node_memory_capacity),
      index_("picoprobe-experiments"),
      cost_rng_(config_.seed ^ 0xC057ull) {
  build_topology();
  network_ = std::make_unique<net::Network>(&engine_, &topo_);

  transfer::TransferConfig tcfg;
  tcfg.setup_mean_s = config_.cost.transfer_setup_mean_s;
  tcfg.setup_jitter_s = config_.cost.transfer_setup_jitter_s;
  tcfg.per_file_overhead_s = config_.cost.transfer_per_file_s;
  tcfg.max_retries = config_.transfer_max_retries;
  tcfg.per_flow_rate_cap_bps = config_.cost.per_flow_rate_cap_bps;
  transfer_ = std::make_unique<transfer::TransferService>(
      &engine_, network_.get(), &auth_, tcfg, config_.seed ^ 0x7F1);
  transfer_->register_endpoint(kUserEndpoint, user_node_, &user_store_);
  transfer_->register_endpoint(kEagleEndpoint, eagle_node_, &eagle_);

  // Direct detector→compute streaming: frames leave the user workstation and
  // land in Polaris node memory; spills and whole-flow fallbacks reuse the
  // verified Eagle landing path (DESIGN.md §13).
  transfer::StreamService::Wiring wiring;
  wiring.src_node = user_node_;
  wiring.src_store = &user_store_;
  wiring.dst_node = polaris_node_;
  wiring.dst_store = &node_memory_;
  wiring.store_node = eagle_node_;
  wiring.src_endpoint = kUserEndpoint;
  wiring.store_endpoint = kEagleEndpoint;
  stream_ = std::make_unique<transfer::StreamService>(
      &engine_, network_.get(), &auth_, transfer_.get(), config_.stream,
      wiring, config_.seed ^ 0x57A3);

  hpcsim::ClusterConfig ccfg;
  ccfg.name = "polaris";
  ccfg.node_count = config_.polaris_nodes;
  ccfg.provision_delay_s = config_.cost.provision_delay_s;
  ccfg.provision_jitter_s = config_.cost.provision_jitter_s;
  pbs_ = std::make_unique<hpcsim::PbsScheduler>(&engine_, ccfg,
                                                config_.seed ^ 0x9B5);

  compute_ = std::make_unique<compute::ComputeService>(
      &engine_, &auth_, config_.seed ^ 0xC03);
  compute::EndpointConfig ecfg;
  ecfg.name = "polaris";
  ecfg.scheduler = pbs_.get();
  ecfg.max_blocks = config_.compute_max_blocks;
  ecfg.env_warmup_s = config_.cost.env_warmup_s;
  ecfg.env_warmup_jitter_s = config_.cost.env_warmup_jitter_s;
  ecfg.warm_idle_timeout_s = config_.cost.warm_idle_timeout_s;
  polaris_ep_ = compute_->register_endpoint(ecfg);

  flows_ = std::make_unique<flow::FlowService>(
      &engine_, &auth_, config_.flow, config_.seed ^ 0xF70);
  transfer_provider_ = std::make_unique<TransferProvider>(transfer_.get());
  stream_provider_ = std::make_unique<StreamProvider>(stream_.get());
  compute_provider_ = std::make_unique<ComputeProvider>(compute_.get());
  search_provider_ = std::make_unique<SearchIngestProvider>(
      &engine_, &auth_, &index_, config_.cost.publication_s,
      config_.cost.publication_jitter_s, config_.seed ^ 0x5E4);
  flows_->register_provider(transfer_provider_.get());
  flows_->register_provider(stream_provider_.get());
  flows_->register_provider(compute_provider_.get());
  flows_->register_provider(search_provider_.get());

  // Thread telemetry through every instrumented service: one tracer (sinking
  // into trace_) and one metrics registry for the whole facility.
  transfer_->set_telemetry(&telemetry_);
  stream_->set_telemetry(&telemetry_);
  compute_->set_telemetry(&telemetry_);
  flows_->set_telemetry(&telemetry_);
  search_provider_->set_telemetry(&telemetry_);

  // Health plane: flight-ring sizing comes from the config; the periodic
  // monitor is armed here but only ticks once someone calls
  // health().start(horizon). The link probe reads this facility's topology
  // and network — the telemetry library itself cannot depend on net/.
  telemetry_.flight.configure(config_.health.flight);
  health_ = std::make_unique<telemetry::health::HealthMonitor>(
      engine_, telemetry_, config_.health);
  // Links are only ever added, so each probe entry's name is built once.
  health_->set_link_probe(
      [this](std::vector<telemetry::health::LinkProbe>& probes) {
        const auto links = static_cast<net::LinkId>(topo_.link_count());
        for (auto lid = static_cast<net::LinkId>(probes.size()); lid < links;
             ++lid) {
          const net::Link& l = topo_.link(lid);
          telemetry::health::LinkProbe p;
          p.link = l.name.empty()
                       ? util::format("link-%u", static_cast<unsigned>(lid))
                       : l.name;
          probes.push_back(std::move(p));
        }
        for (net::LinkId lid = 0; lid < links; ++lid) {
          probes[lid].up = topo_.link(lid).up;
          probes[lid].utilization = network_->average_utilization(lid);
        }
      });

  user_identity_ = "operator@anl.gov";
  user_token_ = auth_.issue(
      user_identity_, {"transfer", "compute", "search.ingest", "flows"});

  register_functions();
}

void Facility::build_topology() {
  // userpc --1Gbps-- site switch --1Gbps uplink-- backbone --200Gbps-- eagle.
  // The switch and its uplink share the same 1 Gbps class; both appear so
  // contention can arise on either side.
  user_node_ = topo_.add_node("userpc");
  net::NodeId sw = topo_.add_node("site-switch");
  net::NodeId backbone = topo_.add_node("anl-backbone");
  eagle_node_ = topo_.add_node("eagle");
  polaris_node_ = topo_.add_node("polaris");

  user_switch_link_ =
      topo_.add_link(user_node_, sw, config_.user_switch_bps,
                     sim::Duration::from_millis(0.2), "user-switch");
  net::LinkId uplink =
      topo_.add_link(sw, backbone, config_.user_switch_bps,
                     sim::Duration::from_millis(0.3), "switch-uplink");
  backbone_link_ =
      topo_.add_link(backbone, eagle_node_, config_.backbone_bps,
                     sim::Duration::from_millis(0.5), "backbone-eagle");
  // Polaris compute hangs off the same backbone: direct-streamed frames and
  // Eagle→node backfills both cross this link.
  topo_.add_link(backbone, polaris_node_, config_.backbone_bps,
                 sim::Duration::from_millis(0.5), "backbone-polaris");
  (void)uplink;
}

const auth::Token& Facility::refresh_user_token() {
  // A still-valid credential is kept: revoking it here would strand every
  // concurrent run that captured it at launch, turning one resubmit into a
  // facility-wide failure cascade. A replacement is minted only once the
  // current token no longer validates (chaos token_expiry, revocation).
  if (auth_.validate(user_token_, "flows")) return user_token_;
  user_token_ = auth_.issue(
      user_identity_, {"transfer", "compute", "search.ingest", "flows"});
  return user_token_;
}

util::Result<fault::FaultInjector*> Facility::install_faults(
    const fault::FaultSchedule& schedule) {
  using R = util::Result<fault::FaultInjector*>;
  fault::FaultInjector::Services services;
  services.engine = &engine_;
  services.topology = &topo_;
  services.network = network_.get();
  services.transfer = transfer_.get();
  services.stream = stream_.get();
  services.compute = compute_.get();
  services.pbs = pbs_.get();
  services.auth = &auth_;
  services.expire_token = [this] { auth_.revoke(user_token_); };
  services.flows = flows_.get();
  services.default_endpoint = polaris_ep_;
  services.stores[user_store_.name()] = &user_store_;
  services.stores[eagle_.name()] = &eagle_;
  services.stores[node_memory_.name()] = &node_memory_;
  services.default_store = eagle_.name();
  services.storage_seed = config_.seed ^ 0x5C0FFull;
  injector_ = std::make_unique<fault::FaultInjector>(std::move(services));
  injector_->set_telemetry(&telemetry_);
  auto installed = injector_->install(schedule);
  if (!installed) {
    injector_.reset();
    return R::err(installed.error());
  }
  return R::ok(injector_.get());
}

storage::Scrubber& Facility::start_scrubber(
    const storage::ScrubberConfig& config) {
  scrubber_ =
      std::make_unique<storage::Scrubber>(&engine_, &eagle_, config,
                                          &telemetry_);
  scrubber_->set_repair([this](const std::string& path) {
    auto task =
        transfer_->repair(kEagleEndpoint, path, refresh_user_token());
    if (!task) {
      util::Logger("facility").warn("scrub repair of %s failed: %s",
                                    path.c_str(),
                                    task.error().message.c_str());
    }
  });
  scrubber_->start();
  return *scrubber_;
}

util::Status Facility::stage_virtual_file(const std::string& path,
                                          int64_t bytes) {
  // Synthetic checksum: derived from the path so transfer verification has a
  // stable value to compare.
  uint64_t crc = util::crc64(path);
  return user_store_.put_virtual(path, bytes, crc, engine_.now());
}

util::Status Facility::stage_real_file(const std::string& path,
                                       std::vector<uint8_t> bytes) {
  return user_store_.put(path, std::move(bytes), engine_.now());
}

util::Status Facility::stage_real_file(const std::string& path,
                                       storage::SharedBytes bytes) {
  return user_store_.put(path, std::move(bytes), engine_.now());
}

util::Result<const storage::Object*> Facility::data_object(
    const std::string& path) const {
  // Store-mediated flows land inputs on Eagle; direct-streamed flows
  // materialize them in node memory. Eagle wins when both hold the path so
  // the verified landing copy is preferred.
  auto obj = eagle_.get(path);
  if (obj) return obj;
  return node_memory_.get(path);
}

// ---- analysis function bodies (real data-plane work) -----------------------

namespace {

/// Shared virtual-file fallback: a schema-valid record for size-only objects.
Json virtual_record(const Json& args, const storage::Object& obj,
                    const std::string& resource_type) {
  search::RecordInputs in;
  in.title = args.at("title").as_string();
  if (in.title.empty()) in.title = "PicoProbe acquisition";
  in.creators = {"Dynamic PicoProbe"};
  in.created_iso8601 = args.at("acquired").as_string("2023-04-07T12:00:00Z");
  in.resource_type = resource_type;
  in.subjects = {resource_type};
  in.instrument_metadata = Json::object({
      {"virtual", true},
      {"payload_bytes", obj.size},
  });
  in.analysis = Json::object({{"virtual", true}});
  Json record = search::build_record(in);
  return Json::object({{"record", record}, {"artifacts", Json::array()}});
}

}  // namespace

util::Result<Json> Facility::run_hyperspectral_analysis(const Json& args) {
  using R = util::Result<Json>;
  const std::string path = args.at("path").as_string();
  auto obj = data_object(path);
  if (!obj) return R::err(obj.error());

  if (!obj.value()->has_content()) {
    return R::ok(virtual_record(args, *obj.value(), "hyperspectral"));
  }

  // Real path: parse EMD once, extract metadata + analyze (the paper fuses
  // both into a single Globus Compute function to avoid reading twice). The
  // parse verifies every dataset CRC over views of the landed bytes.
  auto file = emd::File::from_shared(obj.value()->content);
  if (!file) return R::err(file.error());
  auto metadata = analysis::extract_metadata(file.value());
  if (!metadata) return R::err(metadata.error());

  auto signal = emd::first_signal_name(file.value());
  if (!signal) return R::err(signal.error());
  const emd::Group* group =
      file.value().root.find_group(std::string(emd::Paths::kData) + "/" +
                                   signal.value());
  const emd::Dataset* ds = group->datasets.count("data")
                               ? &group->datasets.at("data")
                               : nullptr;
  if (!ds) return R::err("signal has no data dataset", "schema");
  auto cube = ds->as<double>();
  if (!cube) return R::err(cube.error());

  // Energy axis from signal attributes.
  double e_min = group->attrs.count("energy_min_kev")
                     ? group->attrs.at("energy_min_kev").as_double(0.0)
                     : 0.0;
  double e_max = group->attrs.count("energy_max_kev")
                     ? group->attrs.at("energy_max_kev").as_double(20.0)
                     : 20.0;
  size_t channels = cube.value().dim(2);
  std::vector<double> energy_axis(channels);
  for (size_t k = 0; k < channels; ++k) {
    energy_axis[k] = e_min + (e_max - e_min) * (static_cast<double>(k) + 0.5) /
                                 static_cast<double>(channels);
  }

  analysis::HyperspectralAnalysis result = analysis::analyze_hyperspectral(
      cube.value(), energy_axis, {}, &util::shared_pool());

  // Artifacts: intensity map (Fig. 2A) + spectrum with element markers
  // (Fig. 2B), written to the real filesystem for the portal.
  std::string prefix = args.at("artifact_prefix").as_string("hyper");
  std::string base = config_.artifact_dir + "/" + prefix;
  std::vector<std::string> artifacts;

  std::string pgm_path = base + "_intensity.pgm";
  if (auto st = analysis::write_pgm(pgm_path, result.intensity); st) {
    artifacts.push_back(pgm_path);
  }

  // Elemental maps for the identified non-matrix elements ("where is the
  // gold?") — standard EDS products alongside the intensity map.
  for (const auto& el : result.elements) {
    if (el.symbol == "C" || el.symbol == "N" || el.symbol == "O") continue;
    if (el.matched_kev.empty()) continue;
    auto map = analysis::element_map(cube.value(), energy_axis,
                                     el.matched_kev.front());
    std::string map_path = base + "_map_" + el.symbol + ".pgm";
    if (auto st = analysis::write_pgm(map_path, map); st) {
      artifacts.push_back(map_path);
    }
  }

  analysis::LinePlotConfig plot;
  plot.title = "Aggregate spectrum";
  plot.x_label = "Energy (keV)";
  plot.y_label = "Counts";
  for (const auto& el : result.elements) {
    for (double kev : el.matched_kev) plot.annotations.emplace_back(kev, el.symbol);
  }
  std::vector<double> counts(result.spectrum.data().begin(),
                             result.spectrum.data().end());
  std::string svg_path = base + "_spectrum.svg";
  if (util::write_file(svg_path,
                       analysis::render_line_svg(energy_axis, counts, plot))) {
    artifacts.push_back(svg_path);
  }

  std::vector<std::string> subjects;
  for (const auto& el : result.elements) subjects.push_back(el.symbol);

  search::RecordInputs in;
  in.title = args.at("title").as_string();
  if (in.title.empty()) in.title = "Hyperspectral acquisition";
  in.creators = {"Dynamic PicoProbe"};
  in.created_iso8601 =
      metadata.value().at("acquired").as_string("2023-04-07T12:00:00Z");
  in.resource_type = "hyperspectral";
  in.subjects = subjects;
  in.instrument_metadata = metadata.value();
  in.analysis = result.to_json();
  in.artifact_paths = artifacts;
  Json record = search::build_record(in);

  Json artifacts_json = Json::array();
  for (const auto& a : artifacts) artifacts_json.push_back(a);
  return R::ok(Json::object({
      {"record", record},
      {"artifacts", artifacts_json},
      {"elements", record.at("subjects")},
  }));
}

util::Result<Json> Facility::run_spatiotemporal_analysis(const Json& args) {
  using R = util::Result<Json>;
  const std::string path = args.at("path").as_string();
  auto obj = data_object(path);
  if (!obj) return R::err(obj.error());

  if (!obj.value()->has_content()) {
    return R::ok(virtual_record(args, *obj.value(), "spatiotemporal"));
  }

  auto file = emd::File::from_shared(obj.value()->content);
  if (!file) return R::err(file.error());
  auto metadata = analysis::extract_metadata(file.value());
  if (!metadata) return R::err(metadata.error());

  auto signal = emd::first_signal_name(file.value());
  if (!signal) return R::err(signal.error());
  const emd::Group* group = file.value().root.find_group(
      std::string(emd::Paths::kData) + "/" + signal.value());
  const emd::Dataset* ds = group->datasets.count("data")
                               ? &group->datasets.at("data")
                               : nullptr;
  if (!ds) return R::err("signal has no data dataset", "schema");
  auto stack = ds->as<double>();
  if (!stack) return R::err(stack.error());

  // EMD -> video conversion (the paper's fp64 -> uint8 bottleneck), then
  // per-frame detection, tracking, and annotation burn-in. The parallel
  // conversion is bit-identical to convert_fast (its sequential reference
  // twin); convert_naive stays untouched as the A4 pessimal baseline.
  bool naive = args.at("naive_convert").as_bool(false);
  tensor::Tensor<uint8_t> frames_u8 =
      naive ? video::convert_naive(stack.value())
            : video::convert_parallel(stack.value(), util::shared_pool());
  video::MpkVideo mpk = video::MpkVideo::from_stack(frames_u8);

  // Per-frame detection fans out across the whole node (the paper's compute
  // functions own a full Polaris node); tracking is inherently sequential.
  vision::BlobDetector detector;
  const size_t frame_count = stack.value().dim(0);
  std::vector<std::vector<vision::Detection>> detections(frame_count);
  util::shared_pool().parallel_for(frame_count, [&](size_t t) {
    detections[t] =
        detector.detect(vision::FrameView::of_stack(stack.value(), t));
  });
  vision::GreedyIoUTracker tracker;
  size_t total_detections = 0;
  for (const auto& dets : detections) {
    tracker.update(dets);
    total_detections += dets.size();
  }
  video::MpkVideo annotated = video::annotate(mpk, detections);

  std::string prefix = args.at("artifact_prefix").as_string("spatio");
  std::string base = config_.artifact_dir + "/" + prefix;
  std::vector<std::string> artifacts;

  std::string mpk_path = base + "_annotated.mpk";
  if (annotated.save(mpk_path)) artifacts.push_back(mpk_path);

  // Particle count vs time (the Fig. 3 caption's count series).
  std::vector<double> t_axis, counts;
  for (size_t t = 0; t < detections.size(); ++t) {
    t_axis.push_back(static_cast<double>(t));
    counts.push_back(static_cast<double>(detections[t].size()));
  }
  analysis::LinePlotConfig plot;
  plot.title = "Detected nanoparticles per frame";
  plot.x_label = "Frame";
  plot.y_label = "Count";
  std::string svg_path = base + "_counts.svg";
  if (util::write_file(svg_path,
                       analysis::render_line_svg(t_axis, counts, plot))) {
    artifacts.push_back(svg_path);
  }

  Json analysis_json = Json::object({
      {"frames", static_cast<int64_t>(detections.size())},
      {"total_detections", static_cast<int64_t>(total_detections)},
      {"mean_count_per_frame",
       detections.empty()
           ? 0.0
           : static_cast<double>(total_detections) /
                 static_cast<double>(detections.size())},
      {"tracks", static_cast<int64_t>(tracker.total_tracks_created())},
      {"conversion", naive ? "naive" : "fast"},
  });

  search::RecordInputs in;
  in.title = args.at("title").as_string();
  if (in.title.empty()) in.title = "Spatiotemporal acquisition";
  in.creators = {"Dynamic PicoProbe"};
  in.created_iso8601 =
      metadata.value().at("acquired").as_string("2023-04-07T12:00:00Z");
  in.resource_type = "spatiotemporal";
  in.subjects = {"gold-nanoparticle", "tracking"};
  in.instrument_metadata = metadata.value();
  in.analysis = analysis_json;
  in.artifact_paths = artifacts;
  Json record = search::build_record(in);

  Json artifacts_json = Json::array();
  for (const auto& a : artifacts) artifacts_json.push_back(a);
  return R::ok(Json::object({
      {"record", record},
      {"artifacts", artifacts_json},
      {"detections", analysis_json},
  }));
}

void Facility::register_functions() {
  // Cost closures look up the staged object's size so virtual campaign files
  // are charged like real ones.
  auto size_of = [this](const Json& args) -> int64_t {
    auto obj = data_object(args.at("path").as_string());
    return obj ? obj.value()->size : 0;
  };

  // Lognormal jitter reproduces run-to-run analysis time variability
  // (filesystem contention, Python import noise, GPU clocks).
  auto jitter = [this] {
    return cost_rng_.lognormal(0.0, config_.cost.cost_jitter_sigma);
  };

  compute::FunctionSpec hyper;
  hyper.name = "hyperspectral_analysis";
  hyper.body = [this](const Json& args) { return run_hyperspectral_analysis(args); };
  hyper.cost = [this, size_of, jitter](const Json& args) {
    return config_.cost.hyper_analysis_cost(size_of(args)) * jitter();
  };
  // Streamable = the per-byte scan, which can chase the arriving chunks in a
  // cut-through flow. The fixed base (imports, plot rendering) cannot.
  // Deterministic on purpose: no rng draw, so enabling streaming never
  // perturbs the shared cost/jitter sequences.
  hyper.streamable = [this, size_of](const Json& args) {
    return config_.cost.hyper_analysis_s_per_mb *
           (static_cast<double>(size_of(args)) / 1e6);
  };
  hyper_fn_ = compute_->register_function(std::move(hyper));

  compute::FunctionSpec spatio;
  spatio.name = "spatiotemporal_analysis";
  spatio.body = [this](const Json& args) { return run_spatiotemporal_analysis(args); };
  spatio.cost = [this, size_of, jitter](const Json& args) {
    int64_t frames = args.at("frames").as_int(600);
    bool naive = args.at("naive_convert").as_bool(false);
    bool parallel = args.at("parallel_convert").as_bool(false);
    return config_.cost.spatiotemporal_analysis_cost(size_of(args), frames,
                                                     naive, parallel) *
           jitter();
  };
  // fp64 -> uint8 conversion and per-frame inference both proceed frame by
  // frame, so they can overlap with the tail of a chunked transfer; only the
  // annotation/encode epilogue needs the full stack resident.
  spatio.streamable = [this, size_of](const Json& args) {
    int64_t frames = args.at("frames").as_int(600);
    bool naive = args.at("naive_convert").as_bool(false);
    bool parallel = args.at("parallel_convert").as_bool(false);
    return config_.cost.convert_cost(size_of(args), naive, parallel) +
           config_.cost.inference_s_per_frame * static_cast<double>(frames);
  };
  spatio_fn_ = compute_->register_function(std::move(spatio));
}

}  // namespace pico::core
