// Control-plane scale bench (A13): the three orchestration-layer quantities
// the million-flow ROADMAP item makes first-class:
//
//  flows/s    - synthetic campaigns of 10^3 / 10^4 / 10^5 concurrent 3-step
//               flows driven through the real FlowService (polling mode,
//               paper backoff, per-step timeouts) against a null provider, so
//               the measured cost is pure orchestration: engine events, run
//               bookkeeping, breaker + backoff accounting. The 10^5 tier is
//               gated in CI at >= 2.5x the pre-PR baseline (global heap +
//               std::map run state), recorded below as measured on this host
//               immediately before the rewrite. Measured speedup on this
//               host is ~3.1x; the issue's 10x aspiration is unreachable
//               under the byte-parity contract — the fixed ~15.3 events/flow
//               (poll cadence and timeout schedule are observable via the
//               deterministic campaign outputs) put the bare engine's
//               DRAM-bound dispatch (~410 ns/event at 10^5-flow working-set
//               size) above the whole 10x budget (~360 ns/event), so the
//               gate holds the realized win instead.
//  sched ns   - schedule / cancel / drain cost per event for both Engine
//               backends (PICO_SCHED=heap keeps the old priority_queue as a
//               reference twin; the timer wheel is the default).
//  search ms  - inverted-index ingest rate, query p50/p99 over mixed
//               free-text + filter queries at 10^6 documents (10 ms p99 CI
//               gate), and bulk-removal rate (the tombstone fix).
//
// A small flow campaign also runs once per scheduler backend and publishes
// every run into a search::Index; the two index fingerprints (and final
// virtual clocks) must match bit-for-bit — the (time, sequence) FIFO
// contract of the wheel proven on real orchestration traffic.
//
// Emits a pico.bench.v2 document (default BENCH_controlplane.json); the
// throughput and 10^6-doc search gates apply to full mode only.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "auth/auth.hpp"
#include "flow/service.hpp"
#include "harness.hpp"
#include "search/index.hpp"
#include "sim/engine.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace pico;
using bench::When;
using util::Json;

namespace {

/// Current resident set in bytes. Coarse — malloc arenas are reused across
/// tiers — but good enough for a bytes/flow trend.
int64_t rss_bytes() { return static_cast<int64_t>(picobench::rss_bytes()); }

// ------------------------------------------------------------ provider ----

/// O(1) null provider: every action succeeds after a scripted virtual
/// duration. Deliberately trivial so the bench measures the orchestrator,
/// not the harness.
class NullProvider : public flow::ActionProvider {
 public:
  explicit NullProvider(sim::Engine* engine) : engine_(engine) {}

  std::string name() const override { return "null"; }

  util::Result<flow::ActionHandle> start(const Json& params,
                                         const auth::Token&) override {
    Action a;
    a.started = engine_->now();
    a.duration_ns = static_cast<int64_t>(
        params.at("duration_s").as_double(1.0) * 1e9);
    size_t idx = actions_.size();
    actions_.push_back(a);
    return util::Result<flow::ActionHandle>::ok(std::to_string(idx));
  }

  flow::ActionPollResult poll(const flow::ActionHandle& handle) override {
    flow::ActionPollResult out;
    const Action& a = actions_[std::strtoull(handle.c_str(), nullptr, 10)];
    if ((engine_->now() - a.started).ns < a.duration_ns) {
      out.status = flow::ActionStatus::Active;
      return out;
    }
    out.status = flow::ActionStatus::Succeeded;
    out.service_started = a.started;
    out.service_completed = a.started + sim::Duration{a.duration_ns};
    out.output = Json::object({{"ok", true}});
    return out;
  }

 private:
  struct Action {
    sim::SimTime started;
    int64_t duration_ns = 0;
  };
  sim::Engine* engine_;
  std::vector<Action> actions_;
};

/// Null provider that additionally publishes one record per completed action
/// into a search index — the parity campaign's "Publish" step.
class PublishProvider : public NullProvider {
 public:
  PublishProvider(sim::Engine* engine, search::Index* index)
      : NullProvider(engine), index_(index) {}

  std::string name() const override { return "publish"; }

  util::Result<flow::ActionHandle> start(const Json& params,
                                         const auth::Token& token) override {
    auto handle = NullProvider::start(params, token);
    if (handle) {
      search::Document doc;
      doc.id = params.at("subject").as_string("doc");
      doc.content = Json::object({
          {"name", doc.id},
          {"resource_type", "bench_flow"},
          {"attempt", params.at("flow_attempt_epoch").as_int(0)},
      });
      index_->ingest(std::move(doc));
    }
    return handle;
  }

 private:
  search::Index* index_;
};

// ---------------------------------------------------------- flow tiers ----

flow::FlowDefinition bench_definition(bool publish) {
  flow::FlowDefinition def;
  def.name = "bench-controlplane";
  flow::ActionState transfer;
  transfer.name = "Transfer";
  transfer.provider = "null";
  transfer.params = Json::object({{"duration_s", "$.input.transfer_s"}});
  transfer.timeout_s = 3600;  // never fires; stresses dead-event handling
  flow::ActionState analyze;
  analyze.name = "Analyze";
  analyze.provider = "null";
  analyze.params = Json::object({{"duration_s", "$.input.analyze_s"}});
  analyze.timeout_s = 3600;
  flow::ActionState pub;
  pub.name = "Publish";
  pub.provider = publish ? "publish" : "null";
  pub.params = Json::object({{"duration_s", 1.0},
                             {"subject", "$.input.subject"}});
  def.steps = {transfer, analyze, pub};
  return def;
}

struct FlowTierResult {
  size_t flows = 0;
  double wall_ms = 0;
  double flows_per_s = 0;
  uint64_t events = 0;
  int64_t bytes_per_flow = 0;
  size_t succeeded = 0;
  double virtual_s = 0;
};

/// Launch `n` concurrent 3-step flows and drain the engine; wall time is the
/// orchestration CPU cost (all service work is virtual).
FlowTierResult run_flow_tier(size_t n, uint64_t* fingerprint_out = nullptr) {
  sim::Engine engine;
  auth::AuthService auth;
  flow::FlowServiceConfig cfg;  // paper defaults: polling, 1 s backoff
  flow::FlowService service(&engine, &auth, cfg, /*seed=*/0xC0117ull);
  NullProvider null_provider(&engine);
  service.register_provider(&null_provider);
  search::Index index("bench-parity");
  PublishProvider publish_provider(&engine, &index);
  service.register_provider(&publish_provider);
  auth::Token token = auth.issue("bench", {"flows"});

  // One shared immutable definition across all n runs (the campaign-driver
  // pattern the shared-definition start() overload exists for).
  auto def = std::make_shared<const flow::FlowDefinition>(
      bench_definition(fingerprint_out != nullptr));
  util::Rng rng(0xBE9Cull);

  int64_t rss0 = rss_bytes();
  double t0 = bench::now_s();
  size_t succeeded = 0;
  for (size_t i = 0; i < n; ++i) {
    Json input = Json::object({
        {"transfer_s", 30.0 + static_cast<double>(i % 7) * 10.0},
        {"analyze_s", 15.0 + static_cast<double>(i % 5) * 5.0},
        {"subject", "flow-" + std::to_string(i)},
    });
    auto run = service.start(def, std::move(input), token,
                             "bench-" + std::to_string(i));
    if (!run) continue;  // a refused start never succeeds: counted as failed
    service.on_finished(run.value(),
                        [&succeeded](const flow::RunId&,
                                     const flow::RunInfo& info) {
                          if (info.state == flow::RunState::Succeeded) {
                            ++succeeded;
                          }
                        });
  }
  engine.run();
  double t1 = bench::now_s();
  int64_t rss1 = rss_bytes();

  FlowTierResult r;
  r.flows = n;
  r.wall_ms = (t1 - t0) * 1e3;
  r.flows_per_s = static_cast<double>(n) / (t1 - t0);
  r.events = engine.events_processed();
  r.bytes_per_flow = rss1 > rss0 ? (rss1 - rss0) / static_cast<int64_t>(n) : 0;
  r.succeeded = succeeded;
  r.virtual_s = engine.now().seconds();
  if (fingerprint_out) *fingerprint_out = index.fingerprint();
  return r;
}

// ------------------------------------------------------- sched micro ----

struct SchedMicro {
  std::string backend;
  double schedule_ns = 0;
  double cancel_ns = 0;
  double drain_ns = 0;
  int64_t misfires = 0;  ///< |fired - uncancelled|: cancelled events must not fire
};

SchedMicro sched_micro(const char* backend, size_t events) {
  setenv("PICO_SCHED", backend, 1);
  sim::Engine engine;
  util::Rng rng(0x5C4EDull);
  std::vector<sim::EventHandle> handles;
  handles.reserve(events);
  uint64_t fired = 0;

  double t0 = bench::now_s();
  for (size_t i = 0; i < events; ++i) {
    handles.push_back(engine.schedule_at(
        sim::SimTime::from_seconds(rng.uniform(0, 3600)), [&fired] { ++fired; }));
  }
  double t1 = bench::now_s();
  // Cancel every other event — the wheel must reclaim these in O(1) each and
  // compact; the heap twin compacts lazily once cancels pass half the queue.
  for (size_t i = 0; i < events; i += 2) handles[i].cancel();
  double t2 = bench::now_s();
  engine.run();
  double t3 = bench::now_s();

  SchedMicro m;
  m.backend = backend;
  m.schedule_ns = (t1 - t0) * 1e9 / static_cast<double>(events);
  m.cancel_ns = (t2 - t1) * 1e9 / static_cast<double>(events / 2);
  m.drain_ns = (t3 - t2) * 1e9 / static_cast<double>(events - events / 2);
  const auto expected = static_cast<int64_t>(events - events / 2);
  m.misfires = std::abs(static_cast<int64_t>(fired) - expected);
  return m;
}

// ------------------------------------------------------------- search ----

struct SearchResult {
  size_t docs = 0;
  double ingest_docs_per_s = 0;
  double remove_docs_per_s = 0;
  size_t queries = 0;
  size_t hits = 0;
  size_t remove_misses = 0;  ///< bulk removes that did not find their doc
  int64_t size_drift = 0;    ///< index size minus the expected survivors
  double p50_ms = 0;
  double p99_ms = 0;
  int64_t bytes_per_doc = 0;
  uint64_t fingerprint = 0;
};

Json synth_doc_content(size_t i, util::Rng* rng) {
  static const char* kTypes[] = {"hyperspectral", "spatiotemporal", "tracking",
                                 "ptychography", "calibration", "background",
                                 "reference", "alignment"};
  // Mixed-frequency vocabulary: one term every doc shares, a handful of
  // mid-frequency terms, and a long zipf-ish tail, so queries exercise both
  // dense and sparse postings (and the galloping intersection between them).
  std::string words = "picoprobe";
  words += " w" + std::to_string(i % 97);
  words += " w" + std::to_string(rng->uniform_int(0, 9999));
  words += " w" + std::to_string(rng->uniform_int(0, 99999));
  return Json::object({
      {"name", "sample-" + std::to_string(i)},
      {"resource_type", kTypes[i % 8]},
      {"beamline", "dynamic-picoprobe"},
      {"words", words},
      {"frame", static_cast<int64_t>(i)},
  });
}

SearchResult run_search_tier(size_t docs, size_t queries) {
  search::Index index("bench-scale");
  util::Rng rng(0x5EA2C4ull);

  int64_t rss0 = rss_bytes();
  double t0 = bench::now_s();
  for (size_t i = 0; i < docs; ++i) {
    search::Document doc;
    doc.id = "doc-" + std::to_string(i);
    doc.content = synth_doc_content(i, &rng);
    index.ingest(std::move(doc));
  }
  double t1 = bench::now_s();
  int64_t rss1 = rss_bytes();

  // Mixed query shapes, cycled: dense single term, dense+mid AND (galloping),
  // three-term AND, and a mid term with a field filter.
  std::vector<double> lat_ms;
  lat_ms.reserve(queries);
  size_t hits_total = 0;
  for (size_t q = 0; q < queries; ++q) {
    search::Query query;
    switch (q % 4) {
      case 0:
        query.text = "w" + std::to_string(q % 97);
        break;
      case 1:
        query.text = "picoprobe w" + std::to_string(q % 97);
        break;
      case 2:
        query.text = "picoprobe w" + std::to_string(q % 97) + " w" +
                     std::to_string(rng.uniform_int(0, 9999));
        break;
      default:
        query.text = "w" + std::to_string(q % 97);
        query.field_filters.emplace_back("resource_type",
                                         q % 2 ? "tracking" : "calibration");
        break;
    }
    query.limit = 25;
    double qt0 = bench::now_s();
    auto hits = index.search(query);
    double qt1 = bench::now_s();
    lat_ms.push_back((qt1 - qt0) * 1e3);
    hits_total += hits.size();
  }
  std::sort(lat_ms.begin(), lat_ms.end());

  // Bulk removal: every 100th doc (the pre-PR ingest_order_ scan made this
  // quadratic in the index size).
  size_t removals = docs / 100;
  SearchResult s;
  double r0 = bench::now_s();
  for (size_t i = 0; i < removals; ++i) {
    if (!index.remove("doc-" + std::to_string(i * 100)).is_ok()) {
      ++s.remove_misses;
    }
  }
  double r1 = bench::now_s();
  s.size_drift = static_cast<int64_t>(index.size()) -
                 static_cast<int64_t>(docs - removals);

  s.docs = docs;
  s.ingest_docs_per_s = static_cast<double>(docs) / (t1 - t0);
  s.remove_docs_per_s =
      removals ? static_cast<double>(removals) / std::max(1e-9, r1 - r0) : 0;
  s.queries = queries;
  s.hits = hits_total;
  s.p50_ms = lat_ms[lat_ms.size() / 2];
  s.p99_ms = lat_ms[std::min(lat_ms.size() - 1, lat_ms.size() * 99 / 100)];
  s.bytes_per_doc = rss1 > rss0 ? (rss1 - rss0) / static_cast<int64_t>(docs) : 0;
  s.fingerprint = index.fingerprint();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--tier") == 0) {  // one flow tier (profiling)
      FlowTierResult r = run_flow_tier(std::strtoull(argv[i + 1], nullptr, 10));
      std::printf("flows  %7zu  %9.0f flows/s  wall %8.1f ms\n", r.flows,
                  r.flows_per_s, r.wall_ms);
      return 0;
    }
  }
  bench::Harness h("controlplane", argc, argv);
  const bool smoke = h.smoke();

  // Pre-PR baseline, measured on this host with the global-heap engine and
  // the std::map run store immediately before the control-plane rewrite
  // (same driver, same tiers). The gate holds the 10^5 tier at >= 2.5x
  // (measured ~3.1x; see the header comment for why 10x is out of reach
  // under the byte-parity contract).
  const double kBaselineFlowsPerS100k = 16035.0;
  const double kBaselineSearchP99Ms1M = 1090.03;
  const double kFlowsSpeedupGate = 2.5;

  std::vector<size_t> tiers = smoke ? std::vector<size_t>{1000, 10000}
                                    : std::vector<size_t>{1000, 10000, 100000};
  size_t search_docs = smoke ? 50000 : 1000000;
  size_t search_queries = smoke ? 400 : 1000;
  size_t micro_events = smoke ? 200000 : 1000000;

  // ---- scheduler micro: both backends ----
  SchedMicro heap = sched_micro("heap", micro_events);
  SchedMicro wheel = sched_micro("wheel", micro_events);
  Json backends = Json::object();
  for (const SchedMicro* m : {&heap, &wheel}) {
    std::printf(
        "sched  %-6s schedule %6.1f ns  cancel %6.1f ns  drain %7.1f ns\n",
        m->backend.c_str(), m->schedule_ns, m->cancel_ns, m->drain_ns);
    backends[m->backend] = Json::object({{"schedule_ns", m->schedule_ns},
                                         {"cancel_ns", m->cancel_ns},
                                         {"drain_ns", m->drain_ns},
                                         {"misfires", m->misfires}});
    const std::string at = "sched.backends." + m->backend + ".";
    h.gate("sched." + m->backend + ".misfires", at + "misfires", "==", 0);
    for (const char* cost : {"schedule_ns", "cancel_ns", "drain_ns"}) {
      h.gate("sched." + m->backend + "." + cost, at + cost, ">", 0);
    }
  }

  // ---- parity campaign: identical flows under heap and wheel must publish
  //      a bit-identical index and drain to the same virtual clock ----
  setenv("PICO_SCHED", "heap", 1);
  uint64_t fp_heap = 0;
  FlowTierResult parity_heap = run_flow_tier(smoke ? 500 : 2000, &fp_heap);
  setenv("PICO_SCHED", "wheel", 1);
  uint64_t fp_wheel = 0;
  FlowTierResult parity_wheel = run_flow_tier(smoke ? 500 : 2000, &fp_wheel);
  bool parity = fp_heap == fp_wheel &&
                parity_heap.virtual_s == parity_wheel.virtual_s &&
                parity_heap.events == parity_wheel.events;
  std::printf("parity heap %016llx wheel %016llx  %s\n",
              static_cast<unsigned long long>(fp_heap),
              static_cast<unsigned long long>(fp_wheel),
              parity ? "MATCH" : "MISMATCH");
  // Parity alone would pass if both backends failed the same flows.
  h.gate("parity", "parity.match", "==", 1);
  h.gate("parity.failed_heap", "parity.failed_heap", "==", 0);
  h.gate("parity.failed_wheel", "parity.failed_wheel", "==", 0);

  // ---- flow tiers (default scheduler) ----
  setenv("PICO_SCHED", "", 1);
  Json tiers_json = Json::object();
  double flows_per_s_100k = 0;
  for (size_t n : tiers) {
    FlowTierResult r = run_flow_tier(n);
    std::printf(
        "flows  %7zu  %9.0f flows/s  wall %8.1f ms  %9llu events  %6lld B/flow\n",
        r.flows, r.flows_per_s, r.wall_ms,
        static_cast<unsigned long long>(r.events),
        static_cast<long long>(r.bytes_per_flow));
    if (n == 100000) flows_per_s_100k = r.flows_per_s;
    tiers_json[std::to_string(n)] = Json::object({
        {"flows_per_s", r.flows_per_s},
        {"wall_ms", r.wall_ms},
        {"failed", static_cast<int64_t>(r.flows - r.succeeded)},
        {"events", static_cast<int64_t>(r.events)},
        {"events_per_flow",
         static_cast<double>(r.events) / static_cast<double>(r.flows)},
        {"bytes_per_flow", r.bytes_per_flow},
        {"virtual_s", r.virtual_s},
    });
  }
  // Every tier succeeds with a plausible orchestration workload; the 10^5
  // tier runs in full mode only.
  for (size_t n : {1000, 10000, 100000}) {
    const std::string id = "tier." + std::to_string(n);
    const std::string at = "flows.tiers." + std::to_string(n) + ".";
    const When when = n == 100000 ? When::Full : When::Always;
    h.gate(id + ".failed", at + "failed", "==", 0, when);
    h.gate(id + ".flows_per_s", at + "flows_per_s", ">", 0, when);
    h.gate(id + ".events_per_flow_min", at + "events_per_flow", ">=", 5, when);
    h.gate(id + ".events_per_flow_max", at + "events_per_flow", "<=", 100,
           when);
  }

  // ---- search scale tier ----
  SearchResult search = run_search_tier(search_docs, search_queries);
  std::printf(
      "search %7zu docs  ingest %9.0f docs/s  remove %9.0f docs/s\n"
      "       p50 %.3f ms  p99 %.3f ms  (%zu queries)  %lld B/doc\n",
      search.docs, search.ingest_docs_per_s, search.remove_docs_per_s,
      search.p50_ms, search.p99_ms, search.queries,
      static_cast<long long>(search.bytes_per_doc));

  Json flows = Json::object({
      {"mode", "polling"},
      {"steps", 3},
      {"tiers", tiers_json},
      {"baseline_flows_per_s_100k", kBaselineFlowsPerS100k},
  });
  if (flows_per_s_100k > 0) {
    flows["speedup_100k"] = flows_per_s_100k / kBaselineFlowsPerS100k;
  }
  h.gate("speedup_100k", "flows.speedup_100k", ">=", kFlowsSpeedupGate,
         When::Full);
  h.results = Json::object({
      {"sched", Json::object({{"default_backend", sim::Engine().backend_name()},
                              {"backends", std::move(backends)}})},
      {"flows", std::move(flows)},
      {"search",
       Json::object({
           {"docs", static_cast<int64_t>(search.docs)},
           {"ingest_docs_per_s", search.ingest_docs_per_s},
           {"remove_docs_per_s", search.remove_docs_per_s},
           {"queries", static_cast<int64_t>(search.queries)},
           {"hits", static_cast<int64_t>(search.hits)},
           {"remove_misses", static_cast<int64_t>(search.remove_misses)},
           {"size_drift", search.size_drift},
           {"p50_ms", search.p50_ms},
           {"p99_ms", search.p99_ms},
           {"bytes_per_doc", search.bytes_per_doc},
           {"baseline_p99_ms_1m", kBaselineSearchP99Ms1M},
       })},
      {"parity",
       Json::object({
           {"campaign_flows", static_cast<int64_t>(parity_heap.flows)},
           {"fingerprint_heap",
            util::format("%016llx", static_cast<unsigned long long>(fp_heap))},
           {"fingerprint_wheel",
            util::format("%016llx", static_cast<unsigned long long>(fp_wheel))},
           {"match", parity ? 1 : 0},
           {"failed_heap",
            static_cast<int64_t>(parity_heap.flows - parity_heap.succeeded)},
           {"failed_wheel",
            static_cast<int64_t>(parity_wheel.flows - parity_wheel.succeeded)},
       })},
  });
  h.gate("search.hits", "search.hits", ">", 0);
  h.gate("search.remove_misses", "search.remove_misses", "==", 0);
  h.gate("search.size_drift", "search.size_drift", "==", 0);
  h.gate("search.queries", "search.queries", ">=", 100);
  h.gate("search.ingest_rate", "search.ingest_docs_per_s", ">", 0);
  h.gate("search.remove_rate", "search.remove_docs_per_s", ">", 0);
  h.gate("search.docs_1m", "search.docs", "==", 1000000, When::Full);
  h.gate("search.p99", "search.p99_ms", "<", 10.0, When::Full);
  return h.finish();
}
