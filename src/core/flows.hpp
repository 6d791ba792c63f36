#pragma once
// The paper's two science flows (Sec. 3.1 / 3.2), expressed as flow
// definitions over the facility's providers:
//
//   Transfer (user PC -> Eagle)  ->  Analyze (Globus Compute on Polaris)
//                                ->  Publish (Globus Search ingest)
//
// Flow input schema (all strings unless noted):
//   file            source path on the user endpoint
//   dest            destination path on Eagle
//   artifact_prefix prefix for plot artifacts written by analysis
//   title           record title
//   subject         search document id
//   owner           identity granted record visibility (optional -> public)
//   acquired        ISO-8601 fallback acquisition time for virtual files
//   codec           transfer compression codec name (optional)
//   frames          (spatiotemporal, int) frame-count hint for virtual files
//   naive_convert   (spatiotemporal, bool) use the pessimal fp64->u8 path
//   parallel_convert (spatiotemporal, bool) model the whole-node parallel
//                   conversion cost (A4 what-if; the real kernels always
//                   run on the shared thread pool)
#include "core/facility.hpp"
#include "flow/service.hpp"

namespace pico::core {

flow::FlowDefinition hyperspectral_flow(const Facility& facility);
flow::FlowDefinition spatiotemporal_flow(const Facility& facility);

/// streaming_direct variants: the Transfer step is replaced by a Stream step
/// that pushes detector frames straight into Polaris node memory over the
/// frame channel (DESIGN.md §13). Analyze reads from node memory — or from
/// Eagle when the session degraded to the store-mediated fallback.
flow::FlowDefinition hyperspectral_stream_flow(const Facility& facility);
flow::FlowDefinition spatiotemporal_stream_flow(const Facility& facility);

/// Convenience builder for the standard flow input object.
struct FlowInput {
  std::string file;
  std::string dest;
  std::string artifact_prefix;
  std::string title;
  std::string subject;
  std::string owner;
  std::string acquired = "2023-04-07T12:00:00Z";
  std::string codec;
  int64_t frames = 600;
  bool naive_convert = false;
  bool parallel_convert = false;

  util::Json to_json() const;
};

}  // namespace pico::core
