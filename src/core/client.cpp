#include "core/client.hpp"

#include <filesystem>

#include "util/bytes.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pico::core {
namespace {
util::Logger& logger() {
  static util::Logger kLogger("client");
  return kLogger;
}

watcher::WatcherConfig make_watcher_config(const ClientConfig& config) {
  watcher::WatcherConfig wcfg;
  wcfg.directory = config.watch_dir;
  wcfg.stable_scans = config.stable_scans;
  return wcfg;
}
}  // namespace

TransferClient::TransferClient(Facility* facility, ClientConfig config)
    : facility_(facility),
      config_(std::move(config)),
      checkpoint_(config_.checkpoint_path.empty()
                      ? config_.watch_dir + "/.picoflow-checkpoint"
                      : config_.checkpoint_path),
      watcher_(make_watcher_config(config_), &checkpoint_) {}

util::Status TransferClient::init() { return checkpoint_.load(); }

util::Result<LaunchedFlow> TransferClient::launch_for_file(
    const watcher::FileEvent& event) {
  using R = util::Result<LaunchedFlow>;
  auto bytes = util::read_file(event.path);
  if (!bytes) return R::err(bytes.error());

  // Header-only classification (the cheap catalog scan).
  auto header = emd::File::from_bytes(bytes.value(), /*with_payload=*/false);
  if (!header) {
    return R::err("not an EMD file: " + header.error().message, "parse");
  }
  auto signal = emd::first_signal_name(header.value());
  if (!signal) return R::err(signal.error());
  auto kind = emd::signal_kind(header.value(), signal.value());
  if (!kind) return R::err(kind.error());

  std::string base = std::filesystem::path(event.path).stem().string();
  std::string tag = util::format("%s-%04d", base.c_str(), sequence_++);
  std::string staged = config_.staging_prefix + tag + ".emd";
  if (auto st = facility_->stage_real_file(staged, std::move(bytes).value());
      !st) {
    return R::err(st.error());
  }

  FlowInput input;
  input.file = staged;
  input.dest = config_.eagle_prefix + tag + ".emd";
  input.artifact_prefix = tag;
  input.title = "Acquisition " + base;
  input.subject = tag;
  input.owner = config_.owner;
  auto acquired = header.value().root.attrs.find("acquired");
  if (acquired != header.value().root.attrs.end()) {
    input.acquired = acquired->second.as_string(input.acquired);
  }

  // One shared definition per kind: every launch reuses it (and the flow
  // service's dispatch plan compiled from it) instead of copying it.
  const bool hyper = kind.value() == emd::SignalKind::Hyperspectral;
  std::shared_ptr<const flow::FlowDefinition>& definition =
      hyper ? hyperspectral_definition_ : spatiotemporal_definition_;
  if (!definition) {
    definition = std::make_shared<const flow::FlowDefinition>(
        hyper ? hyperspectral_flow(*facility_)
              : spatiotemporal_flow(*facility_));
  }
  auto run = facility_->flows().start(definition, input.to_json(),
                                      facility_->user_token(), tag);
  if (!run) return R::err(run.error());

  LaunchedFlow launched;
  launched.run = run.value();
  launched.subject = tag;
  launched.source_path = event.path;
  launched.kind = kind.value();
  return R::ok(std::move(launched));
}

std::vector<LaunchedFlow> TransferClient::poll_once() {
  std::vector<LaunchedFlow> launched;
  for (const auto& event : watcher_.scan_once()) {
    auto result = launch_for_file(event);
    if (!result) {
      std::string msg = event.path + ": " + result.error().message;
      logger().warn("%s", msg.c_str());
      errors_.push_back(std::move(msg));
      continue;
    }
    logger().info("launched %s for %s", result.value().run.c_str(),
                  event.path.c_str());
    launched.push_back(std::move(result).value());
  }
  return launched;
}

}  // namespace pico::core
