#pragma once
// Runs the facility's hyperspectral compute body once, outside any flow, on
// the real payload a `hyper-real` campaign stages (core::synthesize_payload
// at 8 MB). Shared by the allocation gate and the output pin.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/facility.hpp"
#include "storage/store.hpp"

namespace pico::test {

/// The campaign's 8 MB hyperspectral EMD bytes, synthesized once per binary.
inline const storage::SharedBytes& hyper_payload() {
  static const storage::SharedBytes bytes = [] {
    core::CampaignConfig config;
    config.use_case = core::UseCase::Hyperspectral;
    config.file_bytes = 8 * 1000 * 1000;
    return std::make_shared<const std::vector<uint8_t>>(
        core::synthesize_payload(config));
  }();
  return bytes;
}

/// A facility whose Eagle store holds `payload` at `path`; artifacts go to
/// `artifact_dir` (relative, so the record's artifact paths are too).
inline std::unique_ptr<core::Facility> facility_with_landed(
    const std::string& artifact_dir, const std::string& path,
    const storage::SharedBytes& payload) {
  core::FacilityConfig config;
  config.artifact_dir = artifact_dir;
  auto facility = std::make_unique<core::Facility>(config);
  EXPECT_TRUE(facility->eagle().put(path, payload, facility->engine().now()));
  return facility;
}

/// Submit the hyperspectral function on `path` (as the flow's Analyze step
/// does) and run the engine until the task settles; returns its result.
inline util::Result<util::Json> run_hyper_body(core::Facility& facility,
                                               const std::string& path,
                                               const std::string& prefix) {
  auto task = facility.compute().submit(
      facility.polaris_endpoint(), facility.hyperspectral_fn(),
      util::Json::object({{"path", path},
                          {"artifact_prefix", prefix},
                          {"title", "Hyperspectral pin"},
                          {"acquired", "2023-04-07T09:00:00Z"}}),
      facility.user_token());
  if (!task) return util::Result<util::Json>::err(task.error());
  facility.engine().run();
  return facility.compute().result(task.value());
}

}  // namespace pico::test
