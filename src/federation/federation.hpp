#pragma once
// Federated multi-facility brokering: route each flow to the best of N
// replicated facilities by live telemetry, admission-control the door with
// weighted fair-share quotas, fail in-flight flows over to a peer when a
// whole site goes dark, and shed load gracefully (optional steps first, then
// reject-with-retry-after) instead of letting any queue collapse.
//
// The broker is deliberately a peer OF the facilities, not a layer inside
// one: it holds raw pointers to each site's FlowService / TransferService
// (all driven by one shared sim::Engine so virtual clocks agree) and makes
// every decision from the same observable surface a real cross-facility
// broker would have — queue depths, breaker snapshots, site fault state —
// never from simulator internals.
//
// Failover contract (the robustness tentpole): when a site dies mid-flow the
// broker checkpoints the run's portable inter-step state (completed-step
// outputs + input), mirrors the failed site's transfer chunk manifests to the
// survivor so partially-landed bytes resume instead of restarting, and
// relaunches via FlowService::resume at the best surviving peer. The resumed
// attempt gets a fresh epoch, fresh backoff salt, and the peer's own breakers
// — none of the failed site's retry/backoff/breaker state crosses the
// boundary (federation_test.cpp pins this).
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "auth/auth.hpp"
#include "fault/schedule.hpp"
#include "federation/quota.hpp"
#include "flow/service.hpp"
#include "sim/engine.hpp"
#include "transfer/service.hpp"
#include "util/json.hpp"

namespace pico::federation {

/// One facility as the broker sees it. `flows` and `engine` are required;
/// `transfer` (manifest mirroring) is optional and simply drops its failover
/// contribution when null.
/// All sites must share one engine — the broker asserts nothing but virtual
/// time only makes sense on a common clock.
struct Site {
  std::string name;
  sim::Engine* engine = nullptr;
  flow::FlowService* flows = nullptr;
  transfer::TransferService* transfer = nullptr;
  auth::Token token;      ///< credential the broker launches runs with
  double capacity = 1.0;  ///< relative size; normalizes queue-depth penalty
};

struct BrokerConfig {
  QuotaConfig quota;
  /// Global load fraction (quota inflight / max) at which the broker enters
  /// brownout: optional steps are stripped from new submissions before any
  /// admission is rejected — the shedding ladder drops quality before work.
  double brownout_enter_frac = 0.85;
  /// Base retry-after for rejected submissions; the broker spreads actual
  /// hints deterministically over [1x, 2x) to avoid a thundering herd.
  double reject_retry_after_s = 15.0;
  /// Max launches per flow (first attempt + failovers) before the broker
  /// gives up and fails the flow outright.
  size_t failover_max_attempts = 3;
  // ---- Routing-score weights (score starts at 100 per site) --------------
  double queue_penalty = 40.0;     ///< x site load fraction
  double breaker_penalty = 25.0;   ///< per def provider with an open breaker
  double brownout_penalty = 60.0;  ///< x site brownout severity
};

/// Synchronous verdict for one submission.
struct SubmitOutcome {
  bool admitted = false;
  std::string site;        ///< routed site (admitted only)
  flow::RunId run;         ///< initial run id at that site (admitted only)
  double retry_after_s = 0;  ///< back-pressure hint (rejected only)
  std::string reason;      ///< "quota" / "no-site" / start error (rejected)
};

struct BrokerStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  uint64_t failovers = 0;        ///< relaunches at a peer (incl. resume)
  uint64_t resumed = 0;          ///< failovers that skipped >=1 done step
  uint64_t reconciled = 0;       ///< completions surfaced at partition heal
  uint64_t optional_dropped = 0; ///< steps shed by brownout stripping
  uint64_t parked = 0;           ///< flows that waited for any site to heal
  size_t inflight = 0;
  double recovery_s = 0;  ///< worst outage onset -> last stranded flow settled
};

class Broker {
 public:
  explicit Broker(BrokerConfig config);

  /// Register a facility. Order is the deterministic routing tie-break.
  void add_site(Site site);
  size_t sites() const { return sites_.size(); }

  /// Per-user fair-share weight (defaults to quota.default_weight).
  void set_user_weight(const std::string& user, double weight) {
    quotas_.set_weight(user, weight);
  }

  /// Submit one federated flow. Synchronously admission-checks, routes, and
  /// launches; `on_done(success)` fires in virtual time at final settle
  /// (after any failovers). Rejected submissions never invoke on_done — the
  /// caller owns the retry (resubmit after outcome.retry_after_s).
  SubmitOutcome submit(std::shared_ptr<const flow::FlowDefinition> def,
                       util::Json input, const std::string& user,
                       const std::string& label = "",
                       std::function<void(bool success)> on_done = nullptr);

  /// Site-level chaos entry point: wire a FaultInjector's site_hook (or a
  /// Facility's site fault handler) here. Outage begin cancels + fails over
  /// every in-flight flow at the site; partition begin defers that site's
  /// completions until heal; brownout begin derates routing and strips
  /// optional steps by `severity`.
  void apply_site_fault(fault::FaultKind kind, const std::string& site,
                        double severity, bool begin);

  /// Telemetry-routed score for `site_idx` (higher is better;
  /// -infinity = ineligible). Exposed for tests and the portal page.
  double route_score(size_t site_idx, const flow::FlowDefinition& def) const;

  BrokerStats stats() const;
  const FairShareQuotas& quotas() const { return quotas_; }
  util::Json report() const;

 private:
  struct SiteState {
    Site site;
    bool outage = false;
    bool partitioned = false;
    double brownout = 0;  ///< 0 = none, else severity in (0, 1]
    uint64_t launches = 0;
    uint64_t faults_seen = 0;
  };

  /// One federated flow across its whole life (initial launch + failovers).
  struct Ticket {
    std::string user;
    std::string label;
    std::shared_ptr<const flow::FlowDefinition> def;  ///< as launched
    util::Json input;   ///< retained for restart-from-zero fallback
    size_t site_idx = 0;
    flow::RunId run;
    size_t attempts = 1;
    bool done = false;
    bool success = false;
    bool stranded = false;           ///< cancelled by an outage, not settled
    bool reconcile_pending = false;  ///< settled behind a partition
    bool reconcile_success = false;
    bool parked = false;             ///< waiting for any eligible site
    flow::RunCheckpoint checkpoint;  ///< last captured inter-step state
    bool has_checkpoint = false;
    std::function<void(bool)> on_done;
  };

  sim::SimTime now() const;
  int pick_site(const flow::FlowDefinition& def) const;
  /// Launch (or resume) ticket `idx` at `site_idx`; registers the finished
  /// callback. Returns false when the start itself was refused.
  bool launch(size_t idx, size_t site_idx);
  void on_run_finished(size_t idx, const flow::RunInfo& info);
  void settle(size_t idx, bool success);
  /// Failure path: checkpoint, mirror manifests, relaunch at the best peer,
  /// or park / give up.
  void relaunch_or_fail(size_t idx);
  void drain_parked();
  void reconcile_site(size_t site_idx);
  /// Brownout shedding: definition with optional steps stripped (cached;
  /// returns the original when nothing is optional).
  std::shared_ptr<const flow::FlowDefinition> strip_optional(
      const std::shared_ptr<const flow::FlowDefinition>& def);

  BrokerConfig config_;
  FairShareQuotas quotas_;
  std::vector<SiteState> sites_;
  std::map<std::string, size_t> site_index_;
  double total_capacity_ = 0;
  std::deque<Ticket> tickets_;  ///< deque: stable refs for event captures
  std::vector<size_t> parked_;
  std::map<const flow::FlowDefinition*,
           std::shared_ptr<const flow::FlowDefinition>>
      stripped_;
  // Outage-recovery bookkeeping: one episode spans from the first stranding
  // outage until every stranded flow reaches final settle.
  sim::SimTime episode_onset_;
  size_t stranded_open_ = 0;
  double recovery_s_ = 0;
  uint64_t submitted_ = 0, completed_ = 0, failed_ = 0, rejected_ = 0,
           failovers_ = 0, resumed_ = 0, reconciled_ = 0, optional_dropped_ = 0,
           parked_total_ = 0;
};

}  // namespace pico::federation
