#!/usr/bin/env python3
"""Self-test of check_telemetry.py's pico.bench.v2 and flight-dump validators.

Builds crafted documents in a temporary directory and asserts the exit
status the checker gives each one. Stdlib only; run directly or via ctest
(check_telemetry_selftest).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_telemetry.py")


def make_doc(mode="full", threads=4):
    """A valid document: one evaluated gate, one skipped in smoke mode."""
    return {
        "schema": "pico.bench.v2",
        "bench": "selftest",
        "mode": mode,
        "host": {"cpu": "test", "hardware_threads": threads, "simd": "scalar",
                 "commit": "unknown"},
        "results": {"runs": {"chaos": {"lost": 0, "speedup": 3.0}}},
        "gates": [
            {"id": "chaos.lost", "metric": "runs.chaos.lost", "op": "==",
             "bound": 0, "when": "always", "value": 0, "pass": True},
            {"id": "speedup", "metric": "runs.chaos.speedup", "op": ">=",
             "bound": 2.5, "when": "full_parallel", "value": 3.0,
             **({"skip": "smoke mode"} if mode == "smoke" else
                {"pass": True})},
        ],
    }


class BenchDocTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(doc if isinstance(doc, str) else json.dumps(doc))
        return path

    def status(self, *paths):
        return subprocess.run(
            [sys.executable, CHECKER, "--bench", *paths],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode

    def test_passing_gates(self):
        self.assertEqual(self.status(self.write("ok.json", make_doc())), 0)

    def test_smoke_skip_is_derived_from_the_mode(self):
        self.assertEqual(
            self.status(self.write("smoke.json", make_doc("smoke"))), 0)
        doc = make_doc()
        doc["gates"][1] = {**doc["gates"][1], "skip": "smoke mode"}
        del doc["gates"][1]["pass"]
        self.assertEqual(self.status(self.write("full.json", doc)), 1)

    def test_one_thread_skip_is_derived_from_the_host(self):
        for threads, status in ((1, 0), (4, 1)):
            doc = make_doc(threads=threads)
            del doc["gates"][1]["pass"]
            doc["gates"][1]["skip"] = "1 hardware thread"
            with self.subTest(threads=threads):
                self.assertEqual(
                    self.status(self.write("threads.json", doc)), status)

    def test_skip_must_be_admitted_by_the_gates_when(self):
        # An always-gate skipped in smoke mode, and a full-only gate skipped
        # for the host, are both rejected.
        doc = make_doc("smoke")
        doc["gates"][0] = {**doc["gates"][0], "skip": "smoke mode"}
        del doc["gates"][0]["pass"]
        self.assertEqual(self.status(self.write("always.json", doc)), 1)
        doc = make_doc(threads=1)
        doc["gates"][1].update(when="full", skip="1 hardware thread")
        del doc["gates"][1]["pass"]
        self.assertEqual(self.status(self.write("full.json", doc)), 1)
        doc = make_doc()
        doc["gates"][1]["when"] = "sometimes"
        self.assertEqual(self.status(self.write("when.json", doc)), 1)

    def test_skip_reason_outside_the_two_derived_ones(self):
        doc = make_doc("smoke")
        doc["gates"][1]["skip"] = "flaky on this runner"
        self.assertEqual(self.status(self.write("why.json", doc)), 1)

    def test_failing_gate(self):
        doc = make_doc()
        doc["results"]["runs"]["chaos"]["lost"] = 3
        doc["gates"][0].update(value=3, **{"pass": False})
        self.assertEqual(self.status(self.write("fail.json", doc)), 1)

    def test_recorded_verdict_must_match_the_results(self):
        doc = make_doc()
        doc["results"]["runs"]["chaos"]["lost"] = 3  # gate still says pass
        self.assertEqual(self.status(self.write("stale.json", doc)), 1)

    def test_missing_metric(self):
        doc = make_doc()
        del doc["results"]["runs"]["chaos"]["lost"]
        self.assertEqual(self.status(self.write("missing.json", doc)), 1)

    def test_non_finite_metric(self):
        for value in (float("nan"), float("inf"), None, True, "0"):
            doc = make_doc()
            doc["results"]["runs"]["chaos"]["lost"] = value
            doc["gates"][0]["value"] = value
            with self.subTest(value=value):
                self.assertEqual(
                    self.status(self.write("nonfinite.json", doc)), 1)
        # A ratio that divided by zero would satisfy ">= 2.5" if it counted.
        doc = make_doc()
        doc["results"]["runs"]["chaos"]["speedup"] = float("inf")
        doc["gates"][1]["value"] = float("inf")
        self.assertEqual(self.status(self.write("inf.json", doc)), 1)

    def test_gate_set_differs_from_fresh_document(self):
        baseline = self.write("BENCH_selftest.json", make_doc())
        self.assertEqual(
            self.status(baseline, self.write("fresh.json", make_doc("smoke"))),
            0)
        for change in ({"bound": 2.0}, {"op": ">"}, {"id": "renamed"},
                       {"metric": "runs.chaos.lost"}, {"when": "full"}):
            fresh = make_doc("smoke")
            fresh["gates"][1].update(change)
            with self.subTest(change=change):
                self.assertEqual(
                    self.status(baseline, self.write("fresh.json", fresh)), 1)
        dropped = make_doc("smoke")
        dropped["gates"].pop()
        self.assertEqual(
            self.status(baseline, self.write("fresh.json", dropped)), 1)

    def test_baseline_must_be_full_mode(self):
        smoke = self.write("smoke.json", make_doc("smoke"))
        self.assertEqual(self.status(smoke, smoke), 1)

    def test_truncated_json(self):
        text = json.dumps(make_doc())
        self.assertEqual(
            self.status(self.write("cut.json", text[: len(text) // 2])), 1)
        self.assertEqual(self.status(self.write("null.json", "null")), 1)
        self.assertEqual(
            self.status(os.path.join(self.tmp.name, "absent.json")), 1)

    def test_wrong_schema(self):
        for schema in ("pico.bench.overhead.v1", None):
            doc = make_doc()
            doc["schema"] = schema
            with self.subTest(schema=schema):
                self.assertEqual(
                    self.status(self.write("schema.json", doc)), 1)



def make_dumps():
    """A valid flight-dumps.json: one dump with two surviving events."""
    return [{
        "subject": "run-000001", "dump_reason": "run-failed", "closed": True,
        "opened_s": 0.0, "last_event_s": 9.0, "events_total": 3,
        "events_dropped": 1,
        "events": [
            {"seq": 1, "t_s": 2.0, "level": "WARN", "component": "flow",
             "name": "retry", "attrs": {"retry": 1}},
            {"seq": 2, "t_s": 9.0, "level": "ERROR", "component": "flow",
             "name": "run-failed"},
        ],
    }]


class FlightDumpTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def status(self, dumps):
        path = os.path.join(self.tmp.name, "flight-dumps.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(dumps if isinstance(dumps, str) else json.dumps(dumps))
        return subprocess.run(
            [sys.executable, CHECKER, "--flight", path],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode

    def broken(self, edit):
        dumps = make_dumps()
        edit(dumps[0])
        return self.status(dumps)

    def test_valid_dumps(self):
        self.assertEqual(self.status(make_dumps()), 0)
        self.assertEqual(self.status([]), 0)

    def test_subject_and_reason_required(self):
        for key in ("subject", "dump_reason"):
            with self.subTest(key=key):
                self.assertEqual(self.broken(lambda d: d.pop(key)), 1)
                self.assertEqual(
                    self.broken(lambda d: d.update({key: ""})), 1)

    def test_events_total_covers_surviving_events(self):
        self.assertEqual(
            self.broken(lambda d: d.update(events_total=1)), 1)

    def test_seq_strictly_increases(self):
        def repeat(d):
            d["events"][1]["seq"] = 1
        self.assertEqual(self.broken(repeat), 1)

    def test_level_must_be_known(self):
        def bad_level(d):
            d["events"][0]["level"] = "warn"
        self.assertEqual(self.broken(bad_level), 1)

    def test_component_and_name_not_empty(self):
        for key in ("component", "name"):
            def empty(d, key=key):
                d["events"][1][key] = ""
            with self.subTest(key=key):
                self.assertEqual(self.broken(empty), 1)

    def test_top_level_must_be_an_array(self):
        self.assertEqual(self.status(make_dumps()[0]), 1)
        self.assertEqual(self.status("[{"), 1)


if __name__ == "__main__":
    unittest.main()
