#pragma once
// The instrument-side client application (paper Sec. 2.2.1): watches the
// user workstation's transfer directory, classifies each new EMD file from
// its header (hyperspectral vs spatiotemporal), stages it, and launches the
// matching flow — with the crash-safe checkpoint that prevents duplicate
// flows after a reboot. This is the reusable core behind the live_watcher
// example; it runs against the real filesystem while the facility executes
// in virtual time.
#include <memory>
#include <string>
#include <vector>

#include "core/facility.hpp"
#include "core/flows.hpp"
#include "emd/schema.hpp"
#include "watcher/watcher.hpp"

namespace pico::core {

struct ClientConfig {
  std::string watch_dir;
  std::string checkpoint_path;  ///< defaults to <watch_dir>/.picoflow-checkpoint
  int stable_scans = 2;
  /// Destination prefixes for staged/transferred objects.
  std::string staging_prefix = "staging/";
  std::string eagle_prefix = "eagle/";
  /// Record owner; empty = public records.
  std::string owner;
};

/// Outcome of one launched flow.
struct LaunchedFlow {
  flow::RunId run;
  std::string subject;
  std::string source_path;
  emd::SignalKind kind = emd::SignalKind::Hyperspectral;
};

class TransferClient {
 public:
  TransferClient(Facility* facility, ClientConfig config);

  /// Load the checkpoint journal. Call once before polling.
  util::Status init();

  /// One watcher pass: every new stable .emd file is classified, staged and
  /// launched. Unreadable or unclassifiable files are recorded in errors()
  /// and skipped (they stay checkpointed, so one poisoned file cannot wedge
  /// the campaign — the paper's fault-tolerance goal).
  std::vector<LaunchedFlow> poll_once();

  /// Drain the facility's virtual time (convenience for callers that want
  /// each poll's flows to settle before the next).
  void drain() { facility_->engine().run(); }

  size_t processed_count() const { return checkpoint_.size(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  util::Result<LaunchedFlow> launch_for_file(const watcher::FileEvent& event);

  Facility* facility_;
  ClientConfig config_;
  watcher::Checkpoint checkpoint_;
  watcher::DirectoryWatcher watcher_;
  std::vector<std::string> errors_;
  int sequence_ = 0;
  /// Built on first launch of each kind, then shared by every launch.
  std::shared_ptr<const flow::FlowDefinition> hyperspectral_definition_;
  std::shared_ptr<const flow::FlowDefinition> spatiotemporal_definition_;
};

}  // namespace pico::core
