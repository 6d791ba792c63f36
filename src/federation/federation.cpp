#include "federation/federation.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "federation/failover.hpp"

namespace pico::federation {

namespace {
constexpr double kIneligible = -std::numeric_limits<double>::infinity();
}

Broker::Broker(BrokerConfig config)
    : config_(config), quotas_(config.quota) {}

void Broker::add_site(Site site) {
  site_index_[site.name] = sites_.size();
  total_capacity_ += std::max(site.capacity, 0.0);
  SiteState ss;
  ss.site = std::move(site);
  sites_.push_back(std::move(ss));
}

sim::SimTime Broker::now() const {
  return sites_.empty() ? sim::SimTime{} : sites_[0].site.engine->now();
}

double Broker::route_score(size_t site_idx,
                           const flow::FlowDefinition& def) const {
  const SiteState& ss = sites_[site_idx];
  if (ss.outage || ss.partitioned) return kIneligible;
  double score = 100.0;
  // Queue depth, normalized to the site's slice of the federation ceiling so
  // a half-size site saturates at half the runs.
  double norm =
      config_.quota.max_inflight_total
          ? static_cast<double>(config_.quota.max_inflight_total) /
                std::max(total_capacity_, 1e-9)
          : 1000.0;
  double site_cap = std::max(ss.site.capacity, 1e-9) * norm;
  score -= config_.queue_penalty *
           (static_cast<double>(ss.site.flows->active_runs()) / site_cap);
  // Breaker state, per distinct provider the definition dispatches to: an
  // open breaker at this site must not be mistaken for a federation-wide
  // outage of the provider (breakers are site-qualified, see
  // BreakerSnapshot::site).
  std::set<std::string> seen;
  for (const auto& step : def.steps) {
    if (!seen.insert(step.provider).second) continue;
    if (ss.site.flows->breaker_retry_after_s(step.provider) > 0)
      score -= config_.breaker_penalty;
  }
  score -= config_.brownout_penalty * ss.brownout;
  return score;
}

int Broker::pick_site(const flow::FlowDefinition& def) const {
  int best = -1;
  double best_score = kIneligible;
  for (size_t i = 0; i < sites_.size(); ++i) {
    double s = route_score(i, def);
    if (s == kIneligible) continue;
    if (best < 0 || s > best_score) {  // first-wins tie-break: deterministic
      best = static_cast<int>(i);
      best_score = s;
    }
  }
  return best;
}

std::shared_ptr<const flow::FlowDefinition> Broker::strip_optional(
    const std::shared_ptr<const flow::FlowDefinition>& def) {
  auto it = stripped_.find(def.get());
  if (it != stripped_.end()) return it->second;
  auto copy = std::make_shared<flow::FlowDefinition>();
  copy->name = def->name;
  for (const auto& step : def->steps)
    if (!step.optional) copy->steps.push_back(step);
  std::shared_ptr<const flow::FlowDefinition> out =
      copy->steps.size() == def->steps.size()
          ? def
          : std::shared_ptr<const flow::FlowDefinition>(std::move(copy));
  stripped_[def.get()] = out;
  return out;
}

SubmitOutcome Broker::submit(std::shared_ptr<const flow::FlowDefinition> def,
                             util::Json input, const std::string& user,
                             const std::string& label,
                             std::function<void(bool)> on_done) {
  SubmitOutcome out;
  submitted_++;
  // Deterministic [1x, 2x) spread keeps rejected bursts from re-arriving as
  // one synchronized herd.
  double retry_after =
      config_.reject_retry_after_s *
      (1.0 + static_cast<double>(rejected_ % 97) / 97.0);
  if (!quotas_.admit(user)) {
    quotas_.on_rejected(user);
    rejected_++;
    out.reason = "quota";
    out.retry_after_s = retry_after;
    return out;
  }
  int target = sites_.empty() ? -1 : pick_site(*def);
  if (target < 0) {
    quotas_.on_rejected(user);
    rejected_++;
    out.reason = "no-site";
    out.retry_after_s = retry_after;
    return out;
  }
  // Brownout ladder rung 1: shed optional steps (per-site derate or global
  // load near the ceiling) before rung 2 (quota rejects) engages.
  auto launch_def = def;
  if (sites_[static_cast<size_t>(target)].brownout > 0 ||
      quotas_.load_frac() >= config_.brownout_enter_frac) {
    auto stripped = strip_optional(def);
    if (stripped != def) {
      optional_dropped_ += def->steps.size() - stripped->steps.size();
      launch_def = stripped;
    }
  }
  size_t idx = tickets_.size();
  tickets_.emplace_back();
  Ticket& t = tickets_.back();
  t.user = user;
  t.label = label;
  t.def = std::move(launch_def);
  t.input = std::move(input);
  t.on_done = std::move(on_done);
  quotas_.on_admitted(user);
  out.admitted = true;
  if (!launch(idx, static_cast<size_t>(target))) {
    // The start itself was refused (auth, unknown provider): walk the
    // failover ladder like any other failure.
    relaunch_or_fail(idx);
  }
  Ticket& placed = tickets_[idx];  // launch/failover may have moved it
  out.site = placed.done ? "" : sites_[placed.site_idx].site.name;
  out.run = placed.run;
  return out;
}

bool Broker::launch(size_t idx, size_t site_idx) {
  Ticket& t = tickets_[idx];
  SiteState& ss = sites_[site_idx];
  t.site_idx = site_idx;
  util::Result<flow::RunId> started =
      t.has_checkpoint
          ? resume_at(ss.site, t.def, t.checkpoint, t.label)
          : ss.site.flows->start(t.def, t.input, ss.site.token, t.label);
  if (!started) return false;
  t.run = std::move(started).value();
  t.parked = false;
  ss.launches++;
  ss.site.flows->on_finished(
      t.run, [this, idx](const flow::RunId&, const flow::RunInfo& info) {
        on_run_finished(idx, info);
      });
  return true;
}

void Broker::on_run_finished(size_t idx, const flow::RunInfo& info) {
  Ticket& t = tickets_[idx];
  if (t.done) return;
  bool success = info.state == flow::RunState::Succeeded;
  if (sites_[t.site_idx].partitioned) {
    // The site is alive but unreachable: the broker cannot observe this
    // settle until the partition heals. Quota stays held — the work is real.
    t.reconcile_pending = true;
    t.reconcile_success = success;
    return;
  }
  if (success) {
    settle(idx, true);
    return;
  }
  relaunch_or_fail(idx);
}

void Broker::settle(size_t idx, bool success) {
  Ticket& t = tickets_[idx];
  t.done = true;
  t.success = success;
  quotas_.on_released(t.user, success);
  if (success)
    completed_++;
  else
    failed_++;
  if (t.stranded) {
    t.stranded = false;
    if (stranded_open_ > 0 && --stranded_open_ == 0)
      recovery_s_ = std::max(recovery_s_, (now() - episode_onset_).seconds());
  }
  auto cb = std::move(t.on_done);
  t.on_done = nullptr;
  // Release the per-flow state a 10^5-ticket campaign would otherwise hold to
  // the end (the def stays shared; input/checkpoint are per-flow copies).
  t.input = util::Json();
  t.checkpoint = flow::RunCheckpoint{};
  if (cb) cb(success);
}

void Broker::relaunch_or_fail(size_t idx) {
  Ticket& t = tickets_[idx];
  // Capture the freshest inter-step state before leaving the site. The
  // checkpoint carries completed-step outputs only — never epochs, backoff
  // salts, retry counters, or breaker state.
  auto cp = capture_checkpoint(sites_[t.site_idx].site, t.run);
  if (cp) {
    t.checkpoint = std::move(cp).value();
    t.has_checkpoint = true;
  }
  if (t.attempts >= config_.failover_max_attempts) {
    settle(idx, false);
    return;
  }
  int target = pick_site(*t.def);
  if (target < 0) {
    // No eligible site anywhere: park until something heals rather than
    // burning the remaining attempts against a dead federation.
    if (!t.parked) {
      t.parked = true;
      parked_.push_back(idx);
      parked_total_++;
    }
    return;
  }
  t.attempts++;
  failovers_++;
  if (t.has_checkpoint && t.checkpoint.start_step > 0) resumed_++;
  mirror_manifests(sites_[t.site_idx].site,
                   sites_[static_cast<size_t>(target)].site);
  if (!launch(idx, static_cast<size_t>(target)) && !t.parked) {
    t.parked = true;
    parked_.push_back(idx);
    parked_total_++;
  }
}

void Broker::drain_parked() {
  std::vector<size_t> waiting;
  waiting.swap(parked_);
  for (size_t idx : waiting) {
    Ticket& t = tickets_[idx];
    if (t.done) continue;
    t.parked = false;
    int target = pick_site(*t.def);
    if (target < 0) {
      t.parked = true;
      parked_.push_back(idx);
      continue;
    }
    t.attempts++;
    failovers_++;
    if (t.has_checkpoint && t.checkpoint.start_step > 0) resumed_++;
    mirror_manifests(sites_[t.site_idx].site,
                     sites_[static_cast<size_t>(target)].site);
    if (!launch(idx, static_cast<size_t>(target))) {
      t.parked = true;
      parked_.push_back(idx);
    }
  }
}

void Broker::reconcile_site(size_t site_idx) {
  for (size_t i = 0; i < tickets_.size(); ++i) {
    Ticket& t = tickets_[i];
    if (!t.reconcile_pending || t.site_idx != site_idx) continue;
    t.reconcile_pending = false;
    if (t.reconcile_success) {
      reconciled_++;
      settle(i, true);
    } else {
      relaunch_or_fail(i);
    }
  }
}

void Broker::apply_site_fault(fault::FaultKind kind, const std::string& site,
                              double severity, bool begin) {
  auto it = site_index_.find(site);
  if (it == site_index_.end()) return;
  size_t si = it->second;
  SiteState& ss = sites_[si];
  if (begin) ss.faults_seen++;
  switch (kind) {
    case fault::FaultKind::SiteOutage: {
      ss.outage = begin;
      if (begin) {
        // Collect victims first: cancel() settles each run synchronously,
        // and the finished callback relaunches in-stack.
        std::vector<size_t> victims;
        for (size_t i = 0; i < tickets_.size(); ++i) {
          const Ticket& t = tickets_[i];
          if (!t.done && !t.parked && !t.reconcile_pending && t.site_idx == si)
            victims.push_back(i);
        }
        if (!victims.empty()) {
          if (stranded_open_ == 0) episode_onset_ = now();
          stranded_open_ += victims.size();
          for (size_t i : victims) tickets_[i].stranded = true;
          for (size_t i : victims) ss.site.flows->cancel(tickets_[i].run);
        }
      } else {
        drain_parked();
      }
      break;
    }
    case fault::FaultKind::SitePartition: {
      ss.partitioned = begin;
      if (!begin) {
        reconcile_site(si);
        drain_parked();
      }
      break;
    }
    case fault::FaultKind::SiteBrownout:
      ss.brownout = begin ? severity : 0;
      break;
    default:
      break;
  }
}

BrokerStats Broker::stats() const {
  BrokerStats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.failed = failed_;
  s.rejected = rejected_;
  s.failovers = failovers_;
  s.resumed = resumed_;
  s.reconciled = reconciled_;
  s.optional_dropped = optional_dropped_;
  s.parked = parked_total_;
  s.inflight = quotas_.inflight_total();
  s.recovery_s = recovery_s_;
  return s;
}

util::Json Broker::report() const {
  util::Json doc = util::Json::object();
  doc["schema"] = "pico.federation.broker.v1";
  BrokerStats s = stats();
  doc["submitted"] = static_cast<int64_t>(s.submitted);
  doc["completed"] = static_cast<int64_t>(s.completed);
  doc["failed"] = static_cast<int64_t>(s.failed);
  doc["rejected"] = static_cast<int64_t>(s.rejected);
  doc["failovers"] = static_cast<int64_t>(s.failovers);
  doc["resumed"] = static_cast<int64_t>(s.resumed);
  doc["reconciled"] = static_cast<int64_t>(s.reconciled);
  doc["optional_steps_dropped"] = static_cast<int64_t>(s.optional_dropped);
  doc["parked"] = static_cast<int64_t>(s.parked);
  doc["inflight"] = static_cast<int64_t>(s.inflight);
  doc["recovery_s"] = s.recovery_s;
  doc["quotas"] = quotas_.to_json();
  util::Json site_rows = util::Json::array();
  for (const auto& ss : sites_) {
    util::Json row = util::Json::object();
    row["name"] = ss.site.name;
    row["outage"] = ss.outage;
    row["partitioned"] = ss.partitioned;
    row["brownout"] = ss.brownout;
    row["capacity"] = ss.site.capacity;
    row["active_runs"] = static_cast<int64_t>(ss.site.flows->active_runs());
    row["launches"] = static_cast<int64_t>(ss.launches);
    row["faults_seen"] = static_cast<int64_t>(ss.faults_seen);
    row["engine_queue_depth"] =
        static_cast<int64_t>(ss.site.engine->queue_depth());
    site_rows.push_back(std::move(row));
  }
  doc["sites"] = std::move(site_rows);
  return doc;
}

}  // namespace pico::federation
