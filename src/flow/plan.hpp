#pragma once
// Dispatch plans: a FlowDefinition compiled once per FlowService, so that
// dispatching a step does no string work and no allocation.
//
// A plan holds, per step, the interned provider id and a params template: a
// kept copy of the step's params in which every "$.input[.<path>]" and
// "$.steps.<Step>[.<path>]" reference is a leaf whose key path was split at
// compile time. Dispatch overwrites just those leaves (and the
// "flow_attempt_epoch" stamp) in place; the provider receives a Json
// byte-identical to resolving the params from scratch.
//
// Every run started from the same shared definition shares its plan. The
// plan owns that definition, so a cached plan can never outlive it.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace pico::flow {

struct FlowDefinition;

/// One params object compiled for in-place resolution.
class ParamsTemplate {
 public:
  /// `step_names[i]` names definition step i ("$.steps.X" resolves to the
  /// latest completed step called X). With `stamp_epoch` the filled params
  /// carry "flow_attempt_epoch" exactly as `params["flow_attempt_epoch"] =
  /// epoch` on the resolved Json would (non-object params become {}).
  ParamsTemplate(const util::Json& params,
                 const std::vector<std::string>& step_names, bool stamp_epoch);
  ParamsTemplate(const ParamsTemplate&) = delete;
  ParamsTemplate& operator=(const ParamsTemplate&) = delete;

  /// Resolve every reference against `input` and the outputs of steps
  /// [0, completed) (`outputs[i]` is step i's; missing entries read as null),
  /// stamp `epoch` when enabled, and return the filled params. The result is
  /// owned by the template and changes on the next fill.
  const util::Json& fill(const util::Json& input,
                         const std::vector<util::Json>& outputs,
                         size_t completed, uint64_t epoch);

 private:
  friend class DispatchPlan;
  struct Ref {
    util::Json* leaf = nullptr;      ///< node inside params_ to overwrite
    bool from_input = false;         ///< else from a step output
    std::vector<uint32_t> steps;     ///< ascending indices named by the ref
    std::vector<std::string> path;   ///< keys below the source; empty = all
  };
  void collect(util::Json& node, const std::vector<std::string>& step_names);

  util::Json params_;
  std::vector<Ref> refs_;
  bool stamp_epoch_ = false;
  /// The epoch leaf when params_ is an object; null when the root itself is
  /// a reference (its resolved type decides where the stamp goes).
  util::Json* epoch_ = nullptr;
  /// A provider call holding fill()'s result is still on the stack.
  bool in_use_ = false;
};

/// A shared FlowDefinition compiled against one FlowService's provider ids.
class DispatchPlan {
 public:
  DispatchPlan(std::shared_ptr<const FlowDefinition> definition,
               std::vector<uint16_t> provider_ids);

  const FlowDefinition& definition() const { return *definition_; }
  uint16_t provider_id(size_t step) const { return steps_[step].pid; }

  /// Step params resolved in place, held for one provider call. While held,
  /// no other dispatch writes them: a nested dispatch of the same step (a
  /// provider call that re-enters the engine) gets another template.
  class Params {
   public:
    Params(const Params&) = delete;
    Params& operator=(const Params&) = delete;
    ~Params() { template_->in_use_ = false; }
    const util::Json& json() const { return *json_; }

   private:
    friend class DispatchPlan;
    Params(ParamsTemplate* t, const util::Json* json)
        : template_(t), json_(json) {}
    ParamsTemplate* template_;
    const util::Json* json_;
  };

  Params params(size_t step, const util::Json& input,
                const std::vector<util::Json>& outputs, size_t completed,
                uint64_t epoch);

 private:
  struct Step {
    uint16_t pid = 0;
    /// [0] serves every dispatch; more are compiled only for nested use.
    std::vector<std::unique_ptr<ParamsTemplate>> params;
  };
  std::shared_ptr<const FlowDefinition> definition_;
  std::vector<std::string> step_names_;
  std::vector<Step> steps_;
};

}  // namespace pico::flow
