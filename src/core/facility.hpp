#pragma once
// The simulated facility: everything between the Dynamic PicoProbe user
// workstation and the ALCF portal, wired together. Owns the discrete-event
// engine, the site network (user PC -> 1 Gbps switch -> 200 Gbps backbone ->
// Eagle), the stores, Globus-like auth/transfer/compute/search services, the
// Polaris PBS cluster, the flow orchestrator, and the registered analysis
// functions that do real data-plane work.
#include <memory>
#include <string>

#include "auth/auth.hpp"
#include "compute/service.hpp"
#include "core/cost_model.hpp"
#include "core/providers.hpp"
#include "fault/injector.hpp"
#include "flow/service.hpp"
#include "hpcsim/pbs.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "portal/portal.hpp"
#include "search/index.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "storage/scrubber.hpp"
#include "storage/store.hpp"
#include "telemetry/health/monitor.hpp"
#include "telemetry/telemetry.hpp"
#include "transfer/service.hpp"
#include "transfer/stream.hpp"

namespace pico::core {

struct FacilityConfig {
  CostModel cost;
  double user_switch_bps = 1e9;     ///< the paper's 1 Gbps user switch
  double backbone_bps = 200e9;      ///< ANL backbone
  int polaris_nodes = 16;
  int compute_max_blocks = 4;
  flow::FlowServiceConfig flow;     ///< backoff defaults to the paper policy
  int transfer_max_retries = 3;
  /// Real-filesystem directory where analysis functions write plot artifacts.
  std::string artifact_dir = "picoflow-artifacts";
  int64_t user_store_capacity = static_cast<int64_t>(10e12);   // 10 TB
  int64_t eagle_capacity = static_cast<int64_t>(100e15);       // O(100 PB)
  /// Aggregate node-memory budget for direct-streamed acquisitions.
  int64_t node_memory_capacity = static_cast<int64_t>(2e12);   // 2 TB
  /// Direct detector→compute streaming knobs (DESIGN.md §13).
  transfer::StreamConfig stream;
  /// Live health plane: flight-recorder ring sizing, SLO windows, watchdogs,
  /// anomaly thresholds (DESIGN.md §15). The monitor itself only runs once
  /// the campaign (or an experiment) calls health().start(horizon).
  telemetry::health::HealthConfig health;
  uint64_t seed = 42;
};

class Facility {
 public:
  explicit Facility(FacilityConfig config);

  // Well-known endpoint names.
  static constexpr const char* kUserEndpoint = "picoprobe-user";
  static constexpr const char* kEagleEndpoint = "alcf-eagle";

  sim::Engine& engine() { return engine_; }
  sim::Trace& trace() { return trace_; }
  /// Facility-wide telemetry: causal tracer (sinking into trace()) plus the
  /// metrics registry every service reports into.
  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }
  /// Live health plane over the telemetry bundle: SLO burn, watchdogs,
  /// anomaly detection, provider/link scores (DESIGN.md §15).
  telemetry::health::HealthMonitor& health() { return *health_; }
  const telemetry::health::HealthMonitor& health() const { return *health_; }
  net::Topology& topology() { return topo_; }
  net::Network& network() { return *network_; }
  storage::Store& user_store() { return user_store_; }
  storage::Store& eagle() { return eagle_; }
  /// Compute-node memory where direct-streamed acquisitions materialize.
  storage::Store& node_memory() { return node_memory_; }
  auth::AuthService& auth() { return auth_; }
  transfer::TransferService& transfer() { return *transfer_; }
  transfer::StreamService& stream() { return *stream_; }
  hpcsim::PbsScheduler& pbs() { return *pbs_; }
  compute::ComputeService& compute() { return *compute_; }
  search::Index& index() { return index_; }
  flow::FlowService& flows() { return *flows_; }
  const FacilityConfig& config() const { return config_; }
  const CostModel& cost() const { return config_.cost; }

  /// Token of the experiment operator (all required scopes).
  const auth::Token& user_token() const { return user_token_; }
  const auth::Identity& user_identity() const { return user_identity_; }

  /// Ensure the operator token is usable, minting a replacement with the
  /// same scopes if the current one no longer validates (mid-run token
  /// expiry recovery; the campaign driver calls this before resubmitting a
  /// flow that died to an auth failure). A still-valid token is returned
  /// unchanged so concurrent runs holding it are not stranded.
  const auth::Token& refresh_user_token();

  /// Install a chaos schedule against this facility's services. Call before
  /// engine().run(). Returns the injector for fault-log inspection; it stays
  /// owned by the facility. Site-level kinds (site_outage, site_partition,
  /// site_brownout) are refused: they belong to the federated driver.
  util::Result<fault::FaultInjector*> install_faults(
      const fault::FaultSchedule& schedule);
  fault::FaultInjector* injector() { return injector_.get(); }

  /// Start a periodic at-rest integrity scrubber over Eagle: corrupt objects
  /// are quarantined and re-transferred from the surviving user-store copy
  /// via the transfer service's delivery provenance. Call before
  /// engine().run(); replaces any previously started scrubber.
  storage::Scrubber& start_scrubber(const storage::ScrubberConfig& config);
  storage::Scrubber* scrubber() { return scrubber_.get(); }

  /// Registered compute function / endpoint ids.
  const compute::EndpointId& polaris_endpoint() const { return polaris_ep_; }
  const compute::FunctionId& hyperspectral_fn() const { return hyper_fn_; }
  const compute::FunctionId& spatiotemporal_fn() const { return spatio_fn_; }

  /// Network link ids for experiments that vary capacities (A2 bench).
  net::LinkId user_switch_link() const { return user_switch_link_; }
  net::LinkId backbone_link() const { return backbone_link_; }

  /// Put a size-only file on the user workstation (campaign drops).
  util::Status stage_virtual_file(const std::string& path, int64_t bytes);
  /// Put a real EMD payload on the user workstation.
  util::Status stage_real_file(const std::string& path,
                               std::vector<uint8_t> bytes);
  /// stage_real_file by reference: the staged object shares `bytes`, so a
  /// payload staged every cycle is never copied, and takes their checksum
  /// (`crc64` of `*bytes`) from the caller that made them, so it is not
  /// rescanned either.
  util::Status stage_real_file(const std::string& path,
                               storage::SharedBytes bytes, uint64_t crc64);

 private:
  void build_topology();
  void register_functions();
  /// Resolve an analysis input object: the Eagle landing store first, then
  /// compute-node memory (where direct-streamed acquisitions materialize).
  util::Result<const storage::Object*> data_object(
      const std::string& path) const;
  util::Result<util::Json> run_hyperspectral_analysis(const util::Json& args);
  util::Result<util::Json> run_spatiotemporal_analysis(const util::Json& args);

  FacilityConfig config_;
  sim::Engine engine_;
  sim::Trace trace_;
  telemetry::Telemetry telemetry_{&trace_};
  net::Topology topo_;
  net::NodeId user_node_ = 0, eagle_node_ = 0, polaris_node_ = 0;
  net::LinkId user_switch_link_ = 0, backbone_link_ = 0;
  std::unique_ptr<net::Network> network_;
  storage::Store user_store_;
  storage::Store eagle_;
  storage::Store node_memory_;
  auth::AuthService auth_;
  std::unique_ptr<transfer::TransferService> transfer_;
  std::unique_ptr<transfer::StreamService> stream_;
  std::unique_ptr<hpcsim::PbsScheduler> pbs_;
  std::unique_ptr<compute::ComputeService> compute_;
  search::Index index_;
  std::unique_ptr<flow::FlowService> flows_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<storage::Scrubber> scrubber_;
  std::unique_ptr<telemetry::health::HealthMonitor> health_;
  std::unique_ptr<TransferProvider> transfer_provider_;
  std::unique_ptr<StreamProvider> stream_provider_;
  std::unique_ptr<ComputeProvider> compute_provider_;
  std::unique_ptr<SearchIngestProvider> search_provider_;
  auth::Identity user_identity_;
  auth::Token user_token_;
  compute::EndpointId polaris_ep_;
  compute::FunctionId hyper_fn_;
  compute::FunctionId spatio_fn_;
  util::Rng cost_rng_;  ///< run-to-run analysis cost variability (seeded)
};

}  // namespace pico::core
