#pragma once
// The shared harness of the gated benches. A bench fills `results` with what
// it measured, declares each claim once as gate(id, metric, op, bound), and
// returns finish(): the harness evaluates every gate against the results
// tree, writes one pico.bench.v2 document and derives the exit code.
//
//   {schema: "pico.bench.v2", bench, mode, host, results,
//    gates: [{id, metric, op, bound, when, value, pass | skip}]}
//
// `metric` is a dotted path into `results`; a gate passes only if it names a
// finite number that satisfies `op bound`. A gate that cannot apply is
// recorded with a skip reason, and only the harness picks one: smoke mode
// (When::Full) or a host with one hardware thread (When::FullParallel). Each
// gate record names its `when` ("always", "full", "full_parallel"), so the
// checker can tell which skips the document is allowed to carry.
// tools/check_telemetry.py re-evaluates every gate from the document.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "picobench/harness.hpp"
#include "util/bytes.hpp"
#include "util/json.hpp"

namespace pico::bench {

using picobench::now_s;

/// Which runs a gate applies to.
enum class When {
  Always,        ///< every run, smoke included
  Full,          ///< paper-scale runs only: skipped in smoke mode
  FullParallel,  ///< also skipped on a host with one hardware thread
};

class Harness {
 public:
  /// The gated benches share one command line: `--smoke` and an optional
  /// output path (default BENCH_<bench>.json).
  Harness(std::string bench, int argc, char** argv)
      : bench_(std::move(bench)), out_path_("BENCH_" + bench_ + ".json") {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--smoke") == 0) {
        smoke_ = true;
      } else {
        out_path_ = argv[i];
      }
    }
  }

  bool smoke() const { return smoke_; }
  const std::string& out_path() const { return out_path_; }
  /// The host's hardware thread count (at least 1), from the document's
  /// host block.
  size_t hardware_threads() const {
    return static_cast<size_t>(
        std::max<int64_t>(1, host_.at("hardware_threads").as_int()));
  }

  util::Json results = util::Json::object();

  void gate(std::string id, std::string metric, std::string op, double bound,
            When when = When::Always) {
    gates_.push_back(
        {std::move(id), std::move(metric), std::move(op), bound, when});
  }

  /// Evaluates every gate, writes the document, returns the exit code.
  int finish() {
    const bool one_thread = host_.at("hardware_threads").as_int() <= 1;
    util::Json gates = util::Json::array();
    size_t failed = 0, skipped = 0;
    std::printf("\ngates (%s):\n", smoke_ ? "smoke" : "full");
    for (const Gate& g : gates_) {
      const util::Json& value = results.at_path(g.metric);
      const double v = value.as_double(NAN);
      util::Json rec = util::Json::object({
          {"id", g.id},
          {"metric", g.metric},
          {"op", g.op},
          {"bound", g.bound},
          {"when", when_name(g.when)},
          {"value", value.is_number() ? util::Json(v) : util::Json()},
      });
      const char* skip = nullptr;
      if (g.when != When::Always && smoke_) skip = "smoke mode";
      if (g.when == When::FullParallel && one_thread && !skip) {
        skip = "1 hardware thread";
      }
      const char* verdict = "skip";
      if (skip) {
        rec["skip"] = skip;
        ++skipped;
      } else {
        const bool pass =
            value.is_number() && std::isfinite(v) && holds(v, g.op, g.bound);
        rec["pass"] = pass;
        verdict = pass ? "pass" : "FAIL";
        failed += pass ? 0 : 1;
      }
      std::printf("  %-4s %-34s %s = %.6g %s %.6g%s%s\n", verdict,
                  g.id.c_str(), g.metric.c_str(), v, g.op.c_str(), g.bound,
                  skip ? "  # " : "", skip ? skip : "");
      gates.push_back(std::move(rec));
    }
    util::Json doc = util::Json::object({
        {"schema", "pico.bench.v2"},
        {"bench", bench_},
        {"mode", smoke_ ? "smoke" : "full"},
        {"host", host_},
        {"results", std::move(results)},
        {"gates", std::move(gates)},
    });
    if (!util::write_file(out_path_, doc.dump(2) + "\n")) {
      std::printf("FAIL: cannot write %s\n", out_path_.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu gates: %zu failed, %zu skipped)\n",
                out_path_.c_str(), gates_.size(), failed, skipped);
    return failed == 0 ? 0 : 1;
  }

 private:
  struct Gate {
    std::string id, metric, op;
    double bound;
    When when;
  };

  static const char* when_name(When when) {
    switch (when) {
      case When::Always: return "always";
      case When::Full: return "full";
      case When::FullParallel: return "full_parallel";
    }
    return "always";
  }

  static bool holds(double v, const std::string& op, double bound) {
    if (op == "<") return v < bound;
    if (op == "<=") return v <= bound;
    if (op == ">") return v > bound;
    if (op == ">=") return v >= bound;
    if (op == "==") return v == bound;
    return false;
  }

  std::string bench_;
  std::string out_path_;
  util::Json host_ = picobench::host_json();
  bool smoke_ = false;
  std::vector<Gate> gates_;
};

}  // namespace pico::bench
