#pragma once
// Globus-Compute-like (funcX) federated function-as-a-service. Users register
// functions; endpoints on remote clusters execute them; the service routes
// tasks and returns results. The endpoint provisions batch nodes through the
// PBS scheduler, keeps warm nodes for reuse (the paper's "subsequent flows
// are able to reuse nodes already provisioned"), and charges a one-time
// environment warm-up per fresh node (library caching).
//
// Functions do REAL work: the registered C++ callable runs on real data
// (EMD parsing, reductions, detection). Its *virtual* duration comes from a
// per-function cost model, so campaign timing is calibrated and fast.
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "auth/auth.hpp"
#include "hpcsim/pbs.hpp"
#include "sim/engine.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace pico::compute {

using FunctionId = std::string;
using EndpointId = std::string;
using TaskId = std::string;

enum class TaskState { Pending, Queued, Running, Succeeded, Failed };

std::string task_state_name(TaskState s);

/// The registered callable: JSON in, JSON out (funcX-style payloads).
using FunctionBody = std::function<util::Result<util::Json>(const util::Json&)>;

/// Virtual execution time of a call, given its arguments.
using FunctionCost = std::function<double(const util::Json&)>;

struct FunctionSpec {
  std::string name;
  FunctionBody body;
  FunctionCost cost;  ///< seconds of virtual node time
  /// Seconds of `cost` that can proceed concurrently with the upstream input
  /// still arriving (e.g. per-chunk fp64->uint8 conversion + reduction of a
  /// spatiotemporal stack). A held task released after its node sat ready for
  /// H seconds is charged cost - min(streamable, H). Unset = nothing
  /// overlaps (the whole input is needed before any work starts).
  FunctionCost streamable;
};

struct EndpointConfig {
  std::string name;
  hpcsim::PbsScheduler* scheduler = nullptr;
  int max_blocks = 4;          ///< max concurrent PBS node allocations
  double block_walltime_s = 3600.0;
  /// First-task-on-node penalty: container start + Python library caching.
  double env_warmup_s = 25.0;
  double env_warmup_jitter_s = 5.0;
  /// Idle warm nodes are released back to PBS after this long.
  double warm_idle_timeout_s = 300.0;
  /// Service-side dispatch latency per task (cloud hop).
  double dispatch_latency_s = 0.5;
  /// Fault injection: probability a node dies mid-task. The task fails, the
  /// node leaves the warm pool (its PBS allocation is released), and
  /// retrying work provisions a fresh node — the recovery path flows
  /// exercise via their per-step retry budget.
  double node_failure_prob = 0.0;
};

struct TaskInfo {
  TaskState state = TaskState::Pending;
  std::string error;
  sim::SimTime submitted, started, completed;
  bool cold_start = false;  ///< true if this task had to provision a node
};

class ComputeService {
 public:
  ComputeService(sim::Engine* engine, auth::AuthService* auth,
                 uint64_t seed = 0xFC4ull);

  /// Register a function; returns its id.
  FunctionId register_function(FunctionSpec spec);

  /// Register an endpoint backed by a PBS scheduler.
  EndpointId register_endpoint(EndpointConfig config);

  /// Attach facility telemetry: task spans join the causal tree (parented to
  /// the submitting flow attempt via tracer context), node failures become
  /// span events, and compute_* metrics are maintained.
  void set_telemetry(telemetry::Telemetry* telemetry) {
    telemetry_ = telemetry;
  }

  /// Submit fn(args) to an endpoint. Requires scope "compute". With
  /// held = true the task queues and claims a node normally (environment
  /// warm-up charged on pickup), but its function cost is not charged until
  /// release() — cut-through streaming pre-dispatch uses this to overlap
  /// node provisioning and the streamable prefix of the work with an
  /// upstream transfer still in flight.
  util::Result<TaskId> submit(const EndpointId& endpoint,
                              const FunctionId& function,
                              util::Json args, const auth::Token& token,
                              bool held = false);

  /// Release a held task: begin charging its function cost, crediting
  /// min(streamable, seconds the node sat ready) of overlap already done.
  /// Releasing before the node is ready degrades to a normal full-cost
  /// execution. No-op for unknown, non-held, or already-released tasks.
  void release(const TaskId& id);

  /// Completion hook (fired in virtual time when the task settles, on every
  /// terminal path including node failure). Fires immediately if already
  /// settled.
  void on_settled(const TaskId& id, std::function<void(const TaskInfo&)> cb);

  /// Poll task state (the flow engine's view).
  TaskInfo status(const TaskId& id) const;

  /// Retrieve the function's JSON result after success.
  util::Result<util::Json> result(const TaskId& id) const;

  /// Warm nodes currently held by an endpoint (tests/diagnostics).
  size_t warm_node_count(const EndpointId& endpoint) const;

  /// Fault injection: while unavailable, submit() is rejected with code
  /// "unavailable". Already-queued and running tasks continue (an endpoint
  /// web-service outage does not kill batch jobs on the cluster).
  void set_available(bool available);
  bool available() const { return available_; }
  /// Fault injection: override an endpoint's mid-task node death probability
  /// (windowed fault-rate campaigns). No-op for unknown endpoints.
  void set_node_failure_prob(const EndpointId& endpoint, double prob);
  double node_failure_prob(const EndpointId& endpoint) const;

 private:
  struct Function {
    FunctionSpec spec;
  };
  struct WarmNode {
    hpcsim::JobId job;
    bool busy = false;
    bool warmed = false;
    sim::EventHandle idle_release;
  };
  struct Endpoint {
    EndpointConfig config;
    std::vector<WarmNode> nodes;
    std::deque<TaskId> queue;
    int pending_blocks = 0;  ///< PBS jobs requested but not yet granted
  };
  struct Task {
    EndpointId endpoint;
    FunctionId function;
    util::Json args;
    TaskInfo info;
    std::optional<util::Json> output;
    /// Open telemetry span (0 = none); it inherits the owning flow run as
    /// its flight subject.
    uint64_t span = 0;
    /// Held-start (cut-through) state.
    bool held = false;
    bool released = false;
    bool node_ready = false;    ///< node claimed + warmed, awaiting release
    sim::SimTime ready_at;
    hpcsim::JobId node_job;     ///< node claimed by a held task
    std::function<void(const TaskInfo&)> settled_cb;
  };

  void pump_endpoint(const EndpointId& eid);
  void run_task_on_node(const EndpointId& eid, size_t node_index,
                        const TaskId& tid);
  /// Charge the execution (warm-up already handled by the caller): compute
  /// the virtual duration, run the real body, schedule settlement. With
  /// credit_overlap the streamable overlap credit replaces the warm-up base.
  void begin_execution(const EndpointId& eid, const TaskId& tid,
                       const hpcsim::JobId& job, double warmup_s,
                       bool credit_overlap);
  void maybe_grow(const EndpointId& eid);
  void schedule_idle_release(const EndpointId& eid, size_t node_index);

  sim::Engine* engine_;
  auth::AuthService* auth_;
  util::Rng rng_;
  telemetry::Telemetry* telemetry_ = nullptr;
  std::map<FunctionId, Function> functions_;
  std::map<EndpointId, Endpoint> endpoints_;
  std::map<TaskId, Task> tasks_;
  uint64_t next_task_ = 1;
  bool available_ = true;
};

}  // namespace pico::compute
