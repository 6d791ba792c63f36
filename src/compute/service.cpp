#include "compute/service.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace pico::compute {
namespace {
util::Logger& logger() {
  static util::Logger kLogger("compute");
  return kLogger;
}
}  // namespace

std::string task_state_name(TaskState s) {
  switch (s) {
    case TaskState::Pending: return "PENDING";
    case TaskState::Queued: return "QUEUED";
    case TaskState::Running: return "RUNNING";
    case TaskState::Succeeded: return "SUCCEEDED";
    case TaskState::Failed: return "FAILED";
  }
  return "?";
}

ComputeService::ComputeService(sim::Engine* engine, auth::AuthService* auth,
                               uint64_t seed)
    : engine_(engine), auth_(auth), rng_(seed) {}

FunctionId ComputeService::register_function(FunctionSpec spec) {
  FunctionId id = "fn-" + spec.name;
  functions_[id] = Function{std::move(spec)};
  return id;
}

EndpointId ComputeService::register_endpoint(EndpointConfig config) {
  assert(config.scheduler != nullptr);
  EndpointId id = "ep-" + config.name;
  Endpoint ep;
  ep.config = std::move(config);
  endpoints_[id] = std::move(ep);
  return id;
}

util::Result<TaskId> ComputeService::submit(const EndpointId& endpoint,
                                            const FunctionId& function,
                                            util::Json args,
                                            const auth::Token& token,
                                            bool held) {
  using R = util::Result<TaskId>;
  if (!available_) {
    return R::err("compute service unavailable", "unavailable");
  }
  auto who = auth_->validate(token, "compute");
  if (!who) return R::err(who.error());
  if (!endpoints_.count(endpoint)) {
    return R::err("unknown endpoint: " + endpoint, "not_found");
  }
  if (!functions_.count(function)) {
    return R::err("unknown function: " + function, "not_found");
  }

  TaskId id = util::format("ctask-%06llu",
                           static_cast<unsigned long long>(next_task_++));
  Task task;
  task.endpoint = endpoint;
  task.function = function;
  task.args = std::move(args);
  task.held = held;
  task.info.submitted = engine_->now();
  if (telemetry_) {
    // Parented to the context frame: the flow attempt scoped around
    // provider->start(), whose run the task's flight events belong to.
    task.span = telemetry_->tracer.open("compute", id);
    telemetry_->tracer.note(task.span, util::LogLevel::Info, "compute-submit",
                            engine_->now(),
                            util::Json::object({{"task", id},
                                                {"endpoint", endpoint},
                                                {"function", function},
                                                {"held", held}}));
  }
  tasks_[id] = std::move(task);

  // Cloud dispatch hop, then the task joins the endpoint queue.
  double latency = endpoints_.at(endpoint).config.dispatch_latency_s;
  engine_->schedule_after(sim::Duration::from_seconds(latency), [this, id] {
    auto it = tasks_.find(id);
    if (it == tasks_.end()) return;
    it->second.info.state = TaskState::Queued;
    endpoints_.at(it->second.endpoint).queue.push_back(id);
    pump_endpoint(it->second.endpoint);
  });
  return R::ok(id);
}

void ComputeService::pump_endpoint(const EndpointId& eid) {
  Endpoint& ep = endpoints_.at(eid);
  // Hand queued tasks to idle warm nodes.
  while (!ep.queue.empty()) {
    size_t idle = ep.nodes.size();
    for (size_t i = 0; i < ep.nodes.size(); ++i) {
      if (!ep.nodes[i].busy) {
        idle = i;
        break;
      }
    }
    if (idle == ep.nodes.size()) break;
    TaskId tid = ep.queue.front();
    ep.queue.pop_front();
    run_task_on_node(eid, idle, tid);
  }
  maybe_grow(eid);
}

void ComputeService::maybe_grow(const EndpointId& eid) {
  Endpoint& ep = endpoints_.at(eid);
  int held = static_cast<int>(ep.nodes.size()) + ep.pending_blocks;
  if (ep.queue.empty() || held >= ep.config.max_blocks) return;

  ep.pending_blocks += 1;
  hpcsim::JobRequest req;
  req.nodes = 1;
  req.walltime_s = ep.config.block_walltime_s;
  req.on_start = [this, eid](const hpcsim::JobId& job,
                             const std::vector<hpcsim::NodeId>&) {
    Endpoint& e = endpoints_.at(eid);
    e.pending_blocks -= 1;
    WarmNode node;
    node.job = job;
    e.nodes.push_back(std::move(node));
    logger().debug("%s: node granted (%s), warm pool now %zu", eid.c_str(),
                   job.c_str(), e.nodes.size());
    pump_endpoint(eid);
  };
  req.on_expire = [this, eid](const hpcsim::JobId& job) {
    Endpoint& e = endpoints_.at(eid);
    for (auto it = e.nodes.begin(); it != e.nodes.end(); ++it) {
      if (it->job == job && !it->busy) {
        e.nodes.erase(it);
        break;
      }
    }
  };
  ep.config.scheduler->submit(std::move(req));
}

void ComputeService::run_task_on_node(const EndpointId& eid, size_t node_index,
                                      const TaskId& tid) {
  Endpoint& ep = endpoints_.at(eid);
  WarmNode& node = ep.nodes[node_index];
  node.busy = true;
  node.idle_release.cancel();

  Task& task = tasks_.at(tid);
  task.info.state = TaskState::Running;
  task.info.started = engine_->now();
  task.info.cold_start = !node.warmed;

  // Environment warm-up charged on pickup (library caching), before either
  // execution path.
  double warmup = 0;
  if (!node.warmed) {
    warmup += std::max(0.0, rng_.normal(ep.config.env_warmup_s,
                                        ep.config.env_warmup_jitter_s));
  }

  if (task.held && !task.released) {
    // Held pickup: claim the node and charge the warm-up, then wait for
    // release() before charging the function cost.
    task.node_job = node.job;
    const TaskId tid_copy = tid;
    engine_->schedule_after(
        sim::Duration::from_seconds(warmup), [this, eid, tid_copy] {
          auto tit = tasks_.find(tid_copy);
          if (tit == tasks_.end()) return;
          Task& t = tit->second;
          t.node_ready = true;
          t.ready_at = engine_->now();
          if (t.released) {
            // release() arrived while the node was still warming: execute
            // now with no overlap credit.
            begin_execution(eid, tid_copy, t.node_job, 0.0, true);
          }
        });
    return;
  }

  begin_execution(eid, tid, node.job, warmup, false);
}

void ComputeService::begin_execution(const EndpointId& eid, const TaskId& tid,
                                     const hpcsim::JobId& job, double warmup_s,
                                     bool credit_overlap) {
  Endpoint& ep = endpoints_.at(eid);
  Task& task = tasks_.at(tid);
  const Function& fn = functions_.at(task.function);

  // Virtual duration: the warm-up base plus the function's cost, minus any
  // streamable overlap already performed while the task was held.
  double cost = std::max(0.0, fn.spec.cost ? fn.spec.cost(task.args) : 1.0);
  double duration = warmup_s + cost;
  if (credit_overlap) {
    double streamable =
        fn.spec.streamable ? fn.spec.streamable(task.args) : 0.0;
    streamable = std::min(std::max(0.0, streamable), cost);
    double held_s =
        std::max(0.0, (engine_->now() - task.ready_at).seconds());
    double credit = std::min(streamable, held_s);
    duration = warmup_s + cost - credit;
    if (telemetry_) {
      telemetry_->metrics
          .histogram("compute_streamed_credit_seconds",
                     "Function cost already covered by streamed overlap at "
                     "release time")
          .observe(credit);
    }
  }

  // Fault injection: the node dies partway through the task.
  bool node_died =
      ep.config.node_failure_prob > 0 && rng_.chance(ep.config.node_failure_prob);
  if (node_died) {
    duration *= rng_.uniform(0.1, 0.9);  // died somewhere mid-execution
  }

  // Execute the real function body now; expose its result at virtual
  // completion time. (Single-threaded engine: ordering is deterministic.)
  auto result = node_died
                    ? util::Result<util::Json>::err(
                          "node failure during execution", "node_failure")
                    : (fn.spec.body ? fn.spec.body(task.args)
                                    : util::Result<util::Json>::ok(util::Json()));

  const hpcsim::JobId job_for_log = job;
  engine_->schedule_after(
      sim::Duration::from_seconds(duration),
      [this, eid, tid, job_for_log, node_died, result = std::move(result)] {
        auto tit = tasks_.find(tid);
        if (tit == tasks_.end()) return;
        Task& t = tit->second;
        t.info.completed = engine_->now();
        if (result) {
          t.info.state = TaskState::Succeeded;
          t.output = result.value();
        } else {
          t.info.state = TaskState::Failed;
          t.info.error = result.error().message;
        }
        if (node_died) {
          // Drop the dead node: release its allocation and forget it.
          Endpoint& e = endpoints_.at(eid);
          for (auto it = e.nodes.begin(); it != e.nodes.end(); ++it) {
            if (it->job == job_for_log) {
              it->idle_release.cancel();
              e.config.scheduler->release(job_for_log);
              e.nodes.erase(it);
              break;
            }
          }
          logger().warn("%s: node %s failed mid-task", eid.c_str(),
                        job_for_log.c_str());
          if (telemetry_) {
            telemetry_->tracer.event(
                t.span, "node-failure", t.info.completed,
                util::Json::object({{"task", tid}, {"job", job_for_log}}),
                util::LogLevel::Warn);
            telemetry_->tracer.close(t.span, "node-failure", t.info.started,
                                     t.info.completed, {});
            t.span = 0;
            telemetry_->metrics
                .counter("compute_node_failures_total",
                         "Warm nodes lost to injected mid-task failures")
                .inc();
            telemetry_->metrics
                .counter("compute_tasks_total",
                         "Compute tasks by terminal state",
                         {{"state", "node_failure"}})
                .inc();
          }
          pump_endpoint(eid);
          if (t.settled_cb) t.settled_cb(t.info);
          return;
        }
        if (telemetry_) {
          telemetry_->tracer.close(
              t.span, result ? "active" : "failed", t.info.started,
              t.info.completed,
              util::Json::object({{"function", t.function},
                                  {"cold_start", t.info.cold_start}}));
          t.span = 0;
          telemetry_->metrics
              .counter("compute_tasks_total",
                       "Compute tasks by terminal state",
                       {{"state", result ? "succeeded" : "failed"}})
              .inc();
          if (t.info.cold_start) {
            telemetry_->metrics
                .counter("compute_cold_starts_total",
                         "Tasks that had to provision/warm a fresh node")
                .inc();
          }
          telemetry_->metrics
              .histogram("compute_task_active_seconds",
                         "Service-side execution time per compute task")
              .observe((t.info.completed - t.info.started).seconds());
        }

        // Free the node and mark it warmed (libraries now cached).
        Endpoint& e = endpoints_.at(eid);
        for (size_t i = 0; i < e.nodes.size(); ++i) {
          if (e.nodes[i].job == job_for_log) {
            e.nodes[i].busy = false;
            e.nodes[i].warmed = true;
            schedule_idle_release(eid, i);
            break;
          }
        }
        pump_endpoint(eid);
        if (t.settled_cb) t.settled_cb(t.info);
      });
}

void ComputeService::release(const TaskId& id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  Task& task = it->second;
  if (!task.held || task.released) return;
  task.released = true;
  if (task.info.state == TaskState::Succeeded ||
      task.info.state == TaskState::Failed) {
    return;
  }
  if (task.node_ready) {
    begin_execution(task.endpoint, id, task.node_job, 0.0, true);
  }
  // Not yet picked up (queued) or still warming: the pickup/warm-up path
  // sees released == true and begins execution itself.
}

void ComputeService::on_settled(const TaskId& id,
                                std::function<void(const TaskInfo&)> cb) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  if (it->second.info.state == TaskState::Succeeded ||
      it->second.info.state == TaskState::Failed) {
    cb(it->second.info);
  } else {
    it->second.settled_cb = std::move(cb);
  }
}

void ComputeService::schedule_idle_release(const EndpointId& eid,
                                           size_t node_index) {
  Endpoint& ep = endpoints_.at(eid);
  WarmNode& node = ep.nodes[node_index];
  const hpcsim::JobId job = node.job;
  node.idle_release = engine_->schedule_after(
      sim::Duration::from_seconds(ep.config.warm_idle_timeout_s),
      [this, eid, job] {
        Endpoint& e = endpoints_.at(eid);
        for (auto it = e.nodes.begin(); it != e.nodes.end(); ++it) {
          if (it->job == job) {
            if (it->busy) return;  // raced with a new task; keep it
            e.config.scheduler->release(job);
            e.nodes.erase(it);
            logger().debug("%s: released idle node %s", eid.c_str(),
                           job.c_str());
            return;
          }
        }
      });
}

TaskInfo ComputeService::status(const TaskId& id) const {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    TaskInfo info;
    info.state = TaskState::Failed;
    info.error = "unknown task";
    return info;
  }
  return it->second.info;
}

util::Result<util::Json> ComputeService::result(const TaskId& id) const {
  using R = util::Result<util::Json>;
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return R::err("unknown task " + id, "not_found");
  if (it->second.info.state == TaskState::Failed) {
    return R::err(it->second.info.error, "failed");
  }
  if (!it->second.output.has_value()) {
    return R::err("task " + id + " not finished", "state");
  }
  return R::ok(*it->second.output);
}

size_t ComputeService::warm_node_count(const EndpointId& endpoint) const {
  auto it = endpoints_.find(endpoint);
  return it == endpoints_.end() ? 0 : it->second.nodes.size();
}

void ComputeService::set_available(bool available) { available_ = available; }

void ComputeService::set_node_failure_prob(const EndpointId& endpoint,
                                           double prob) {
  auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) return;
  it->second.config.node_failure_prob = prob;
}

double ComputeService::node_failure_prob(const EndpointId& endpoint) const {
  auto it = endpoints_.find(endpoint);
  return it == endpoints_.end() ? 0.0 : it->second.config.node_failure_prob;
}

}  // namespace pico::compute
