#include "flow/plan.hpp"

#include <algorithm>

#include "flow/service.hpp"
#include "util/strings.hpp"

namespace pico::flow {
namespace {

constexpr const char* kEpochKey = "flow_attempt_epoch";

bool is_reference(const util::Json& v) {
  if (!v.is_string()) return false;
  const std::string& s = v.as_string();
  return s == "$.input" || util::starts_with(s, "$.input.") ||
         util::starts_with(s, "$.steps.");
}

}  // namespace

ParamsTemplate::ParamsTemplate(const util::Json& params,
                               const std::vector<std::string>& step_names,
                               bool stamp_epoch)
    : stamp_epoch_(stamp_epoch) {
  // Stamping assigns through Json::operator[], which turns anything but an
  // object into {} — unless the root is a reference, whose resolved value
  // (an object or not) is only known at fill time.
  if (stamp_epoch && !params.is_object() && !is_reference(params)) {
    params_ = util::Json::object();
  } else {
    params_ = params;
  }
  if (stamp_epoch && params_.is_object()) {
    // Overwritten before collection: a reference under this key would be
    // replaced by the stamp anyway.
    epoch_ = &params_[kEpochKey];
    *epoch_ = util::Json(int64_t{0});
  }
  collect(params_, step_names);
}

void ParamsTemplate::collect(util::Json& node,
                             const std::vector<std::string>& step_names) {
  switch (node.type()) {
    case util::Json::Type::Array:
      for (util::Json& v : node.mutable_array()) collect(v, step_names);
      return;
    case util::Json::Type::Object:
      for (auto& [key, v] : node.mutable_object()) collect(v, step_names);
      return;
    case util::Json::Type::String:
      break;
    default:
      return;
  }
  if (!is_reference(node)) return;
  const std::string& s = node.as_string();
  Ref ref;
  ref.leaf = &node;
  if (util::starts_with(s, "$.input")) {
    ref.from_input = true;
    if (s.size() > 7) {
      ref.path = util::split(std::string_view(s).substr(8), '.');
    }
  } else {
    std::string_view rest = std::string_view(s).substr(8);
    size_t dot = rest.find('.');
    std::string_view name = rest.substr(0, dot);
    for (size_t i = 0; i < step_names.size(); ++i) {
      if (step_names[i] == name) {
        ref.steps.push_back(static_cast<uint32_t>(i));
      }
    }
    if (dot != std::string_view::npos) {
      ref.path = util::split(rest.substr(dot + 1), '.');
    }
  }
  refs_.push_back(std::move(ref));
}

const util::Json& ParamsTemplate::fill(const util::Json& input,
                                       const std::vector<util::Json>& outputs,
                                       size_t completed, uint64_t epoch) {
  static const util::Json kNull;
  const size_t have = std::min(completed, outputs.size());
  for (const Ref& ref : refs_) {
    const util::Json* src = &kNull;
    if (ref.from_input) {
      src = &input;
    } else {
      // Latest completed step with that name: steps complete in index
      // order, so this is the output a name-keyed map would hold.
      for (size_t i = ref.steps.size(); i-- > 0;) {
        if (ref.steps[i] < have) {
          src = &outputs[ref.steps[i]];
          break;
        }
      }
    }
    for (const std::string& key : ref.path) src = &src->at(key);
    *ref.leaf = *src;
  }
  if (stamp_epoch_) {
    util::Json stamp(static_cast<int64_t>(epoch));
    if (epoch_) {
      *epoch_ = stamp;
    } else {
      params_[kEpochKey] = stamp;
    }
  }
  return params_;
}

DispatchPlan::DispatchPlan(std::shared_ptr<const FlowDefinition> definition,
                           std::vector<uint16_t> provider_ids)
    : definition_(std::move(definition)) {
  const std::vector<ActionState>& steps = definition_->steps;
  step_names_.reserve(steps.size());
  for (const ActionState& step : steps) step_names_.push_back(step.name);
  steps_.resize(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    steps_[i].pid = provider_ids[i];
    steps_[i].params.push_back(
        std::make_unique<ParamsTemplate>(steps[i].params, step_names_, true));
  }
}

DispatchPlan::Params DispatchPlan::params(
    size_t step, const util::Json& input,
    const std::vector<util::Json>& outputs, size_t completed,
    uint64_t epoch) {
  std::vector<std::unique_ptr<ParamsTemplate>>& pool = steps_[step].params;
  ParamsTemplate* t = nullptr;
  for (const auto& candidate : pool) {
    if (!candidate->in_use_) {
      t = candidate.get();
      break;
    }
  }
  if (!t) {
    pool.push_back(std::make_unique<ParamsTemplate>(
        definition_->steps[step].params, step_names_, true));
    t = pool.back().get();
  }
  t->in_use_ = true;
  return Params(t, &t->fill(input, outputs, completed, epoch));
}

}  // namespace pico::flow
