// Reinterrogation (paper abstract): the infrastructure "provides domain
// scientists the ability to reinterrogate data from past experiments to
// yield additional scientific value and derive new insights."
//
// Phase 1 runs a small campaign of real acquisitions through the facility —
// each flow archives the EMD file on Eagle and publishes a searchable
// record. Phase 2, "weeks later": a scientist queries the FAIR index for
// lead-bearing samples, pulls the archived bytes back from Eagle, and
// re-analyzes them with a more sensitive peak search — revealing a trace
// element the standard pipeline's conservative thresholds missed.
#include <cstdio>
#include <set>

#include "analysis/hyperspectral.hpp"
#include "core/facility.hpp"
#include "core/flows.hpp"
#include "instrument/hyperspectral_gen.hpp"
#include "util/strings.hpp"

using namespace pico;

int main() {
  core::FacilityConfig config;
  config.artifact_dir = "reinterrogate-output/artifacts";
  config.seed = 20230409;
  core::Facility facility(config);

  // -- phase 1: the original campaign -----------------------------------------
  // Samples carry a faint copper contaminant (~2%) nobody is looking for;
  // the production pipeline's conservative peak threshold misses it.
  std::printf("phase 1: original campaign (4 acquisitions)\n");
  for (int i = 0; i < 4; ++i) {
    instrument::HyperspectralConfig gen;
    gen.height = 96;
    gen.width = 96;
    gen.channels = 768;
    gen.dose = 100;
    gen.background = {{"C", 0.72}, {"N", 0.14}, {"O", 0.14}};
    gen.particles = {
        {30.0 + 8 * i, 40, 9, {{"Pb", 0.76}, {"Cu", 0.018}, {"C", 0.222}}},
        {70, 60.0 + 4 * i, 6, {{"Au", 0.8}, {"C", 0.2}}},
    };
    gen.seed = 4000 + static_cast<uint64_t>(i);
    auto sample = instrument::generate_hyperspectral(gen);
    emd::MicroscopeSettings scope;
    auto file = instrument::to_emd(
        sample, gen, scope,
        util::format("2023-04-%02dT10:00:00Z", 10 + i),
        "membrane treated for heavy-metal capture", "operator@anl.gov");

    std::string staged = util::format("staging/run-%02d.emd", i);
    if (auto st = facility.stage_real_file(staged, file.to_bytes()); !st) {
      std::fprintf(stderr, "stage failed: %s\n", st.error().message.c_str());
      return 1;
    }
    core::FlowInput input;
    input.file = staged;
    input.dest = util::format("eagle/archive/run-%02d.emd", i);
    input.artifact_prefix = util::format("run-%02d", i);
    input.title = util::format("Membrane capture run %d", i);
    input.subject = util::format("capture-run-%02d", i);
    input.acquired = util::format("2023-04-%02dT10:00:00Z", 10 + i);
    auto run = facility.flows().start(core::hyperspectral_flow(facility),
                                      input.to_json(), facility.user_token());
    if (!run) {
      std::fprintf(stderr, "flow failed to start: %s\n",
                   run.error().message.c_str());
      return 1;
    }
  }
  facility.engine().run();

  for (const auto& id : facility.index().all_ids()) {
    auto doc = facility.index().get(id);
    std::printf("  %s: elements %s\n", id.c_str(),
                doc.value()->content.at("subjects").dump().c_str());
  }

  // -- phase 2: reinterrogation ------------------------------------------------
  std::printf("\nphase 2: scientist searches the FAIR index for lead\n");
  search::Query query;
  query.field_filters = {{"subjects", "Pb"}};
  auto hits = facility.index().search(query);
  std::printf("  %zu record(s) match subjects=Pb\n", hits.size());
  if (hits.empty()) return 1;

  int new_findings = 0;
  for (const auto& hit : hits) {
    auto doc = facility.index().get(hit.id);
    // Original composition on record:
    std::set<std::string> original;
    for (const auto& s : doc.value()->content.at("subjects").as_array()) {
      original.insert(s.as_string());
    }

    // Pull the archived EMD back from Eagle (the permanent store).
    std::string archived;
    for (const auto& path : facility.eagle().list("eagle/archive/")) {
      if (path.find(hit.id.substr(hit.id.size() - 2)) != std::string::npos) {
        archived = path;
        break;
      }
    }
    if (archived.empty()) continue;
    auto object = facility.eagle().get(archived);
    if (!object || !object.value()->has_content()) continue;
    auto file = emd::File::from_shared(object.value()->content);
    if (!file) continue;

    const emd::Group* group = file.value().root.find_group("data/hyperspectral");
    auto cube = group->datasets.at("data").as<double>();
    if (!cube) continue;
    size_t channels = cube.value().dim(2);
    std::vector<double> axis(channels);
    for (size_t k = 0; k < channels; ++k) {
      axis[k] = 20.0 * (static_cast<double>(k) + 0.5) / static_cast<double>(channels);
    }

    // Re-analyze with a more sensitive peak search than the pipeline default.
    analysis::PeakFindConfig sensitive;
    sensitive.prominence_factor = 1.55;
    sensitive.window = 40;
    auto result = analysis::analyze_hyperspectral(cube.value(), axis, sensitive);

    std::set<std::string> reanalyzed;
    for (const auto& el : result.elements) reanalyzed.insert(el.symbol);
    std::printf("  %s: archived %s reanalyzed -> {", hit.id.c_str(),
                archived.c_str());
    for (const auto& el : reanalyzed) std::printf(" %s", el.c_str());
    std::printf(" }\n");
    for (const auto& el : reanalyzed) {
      if (!original.count(el)) {
        std::printf("    NEW finding vs original record: %s\n", el.c_str());
        ++new_findings;
      }
    }
  }

  if (new_findings > 0) {
    std::printf("\nreinterrogation surfaced %d element finding(s) the "
                "original pipeline missed — archived data yielded new "
                "insight without touching the microscope.\n",
                new_findings);
    return 0;
  }
  std::printf("\nno new findings this run (tune the sensitive pass)\n");
  return 1;
}
