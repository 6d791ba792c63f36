#!/usr/bin/env python3
"""Schema checker for the facility's telemetry exports and bench documents.

Validates, with no third-party dependencies:

* Prometheus text exposition files (``--prom``): every sample belongs to a
  family announced by ``# HELP`` / ``# TYPE`` lines, histogram series carry
  monotone cumulative buckets ending in ``le="+Inf"`` whose count equals the
  ``_count`` sample, and (optionally) at least ``--min-families`` distinct
  families are present.

* Chrome trace_event JSON files (``--trace``): the document is an object with
  a ``traceEvents`` array, complete ("X") events carry numeric ``ts``/``dur``
  and span identity in ``args``, every non-zero ``parent_id`` resolves to a
  recorded span, the parent interval encloses the child (within 1 us of
  rounding slack), and (optionally) the span tree reaches ``--require-depth``
  levels — e.g. 4 proves campaign -> run -> step -> provider-attempt nesting.

* Flight-recorder dumps (``--flight``), the ``flight-dumps.json`` array a
  chaos campaign writes: every dump names its ``subject`` and
  ``dump_reason``, ``events_total`` covers the surviving ``events``, event
  ``seq`` numbers strictly increase, and every event has a known ``level``
  and a non-empty ``component`` and ``name``.

* Bench documents (``--bench BASELINE [FRESH]``), the ``pico.bench.v2``
  schema every gated bench under ``bench/`` writes through
  ``bench/harness.hpp``::

      {schema, bench, mode, host, results,
       gates: [{id, metric, op, bound, when, value, pass | skip}]}

  Each gate's ``metric`` is a dotted path into ``results``; ``when`` says
  which runs it applies to (``always``, ``full``, ``full_parallel``). The
  checker re-evaluates every gate: the metric must exist and be a finite
  number, the recorded value and verdict must match it, and the gate must
  hold. A gate may be skipped only for a reason the document itself proves
  and its ``when`` allows: ``smoke mode`` (``mode`` is ``smoke``; not an
  ``always`` gate) or ``1 hardware thread`` (the host block says so; a
  ``full_parallel`` gate). With ``FRESH`` — a document the same commit just
  wrote, as CI does with a smoke run — ``BASELINE`` must be a full-mode run
  and both must declare the same gate set (id, metric, op, bound, when), so
  a checked-in baseline cannot keep passing under gates that were quietly
  loosened, dropped, renamed or moved to fewer runs.

JSON inputs are loaded through one guard: a missing file, truncated JSON, or
a top level of the wrong type is a one-line actionable failure (regenerate
with the matching binary), never a raw traceback.

Exit status is non-zero if any input fails, so CI can gate on it:

    python3 tools/check_telemetry.py --prom BENCH_dataplane.prom
    python3 tools/check_telemetry.py --trace chaos-output/trace.json \
        --require-depth 4 --prom chaos-output/metrics.prom --min-families 12
    python3 tools/check_telemetry.py --flight chaos-output/flight-dumps.json
    python3 tools/check_telemetry.py \
        --bench BENCH_overhead.json bench-overhead-smoke.json
"""

import argparse
import json
import math
import operator
import re
import sys

# Label values are quoted strings with backslash escapes, so `,` / `}` / `"`
# may appear *inside* a value: the sample body and the per-label scanner both
# have to consume quoted runs atomically rather than split on delimiters.
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{(?P<labels>(?:[^"}]|"(?:[^"\\]|\\.)*")*)\})?\s+(?P<value>\S+)$'
)
LABEL_ITEM_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
    r"\s*(?:,|$)"
)
LABEL_ESCAPE_RE = re.compile(r'\\(.)')


def unescape_label(value):
    """Decode the exposition-format escapes (\\\\, \\", \\n). Any other
    escaped character is invalid; the caller pre-validates with
    LABEL_ITEM_RE so only well-formed pairs reach here."""
    return LABEL_ESCAPE_RE.sub(
        lambda m: "\n" if m.group(1) == "n" else m.group(1), value)


def parse_labels(labels_text):
    """Split a label body into a dict, or return None if malformed."""
    labels = {}
    pos = 0
    while pos < len(labels_text):
        m = LABEL_ITEM_RE.match(labels_text, pos)
        if not m:
            return None
        for esc in re.finditer(r'\\(.)', m.group("value")):
            if esc.group(1) not in ('\\', '"', 'n'):
                return None
        labels[m.group("key")] = unescape_label(m.group("value"))
        pos = m.end()
    return labels


def fail(path, message):
    print(f"{path}: FAIL: {message}", file=sys.stderr)
    return False


def load_json(path, top=dict):
    """Load a JSON input and require its top level to be a ``top``.

    A missing file, truncated/invalid JSON, or a document whose top level is
    the wrong type (e.g. a partial write that parses as ``null``) each used
    to escape the checkers as a raw traceback; all three are now a one-line
    actionable failure. Returns the parsed document, or None after reporting.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(path, f"unreadable: {e} — regenerate it with the binary that "
                   f"writes it (build/bench/ or build/examples/)")
        return None
    except json.JSONDecodeError as e:
        fail(path, f"invalid or truncated JSON ({e}) — regenerate it with "
                   f"the binary that writes it")
        return None
    if not isinstance(doc, top):
        fail(path, f"top-level JSON is {type(doc).__name__}, expected "
                   f"{top.__name__} — the file is corrupt; regenerate it")
        return None
    return doc


def base_family(name, families):
    """Resolve a sample name to its announced family (histograms emit
    ``<family>_bucket``/``_sum``/``_count`` samples)."""
    if name in families:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in families:
            return name[: -len(suffix)]
    return None


def check_prom(path, min_families):
    families = {}  # name -> type
    # (family, frozen labels minus 'le') -> list of (le, cumulative count)
    buckets = {}
    counts = {}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as e:
        return fail(path, f"unreadable: {e}")

    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "histogram"):
                return fail(path, f"line {lineno}: malformed TYPE: {line!r}")
            families[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            return fail(path, f"line {lineno}: unknown comment: {line!r}")

        m = SAMPLE_RE.match(line)
        if not m:
            return fail(path, f"line {lineno}: malformed sample: {line!r}")
        name, labels_text, value = m.group("name", "labels", "value")
        family = base_family(name, families)
        if family is None:
            return fail(path, f"line {lineno}: sample {name!r} has no TYPE")
        labels = parse_labels(labels_text) if labels_text else {}
        if labels is None:
            return fail(path, f"line {lineno}: bad labels {labels_text!r}")
        try:
            numeric = float(value)
        except ValueError:
            if value not in ("+Inf", "-Inf", "NaN"):
                return fail(path, f"line {lineno}: bad value {value!r}")
            numeric = float(value.replace("Inf", "inf"))
        if families[family] in ("counter", "histogram") and numeric < 0:
            return fail(path, f"line {lineno}: negative {families[family]}")

        if families[family] == "histogram":
            series = frozenset(
                (k, v) for k, v in labels.items() if k != "le")
            if name.endswith("_bucket"):
                if "le" not in labels:
                    return fail(path, f"line {lineno}: bucket without le")
                le = float(labels["le"].replace("+Inf", "inf"))
                buckets.setdefault((family, series), []).append((le, numeric))
            elif name.endswith("_count"):
                counts[(family, series)] = numeric

    for (family, series), bs in buckets.items():
        for (le_a, n_a), (le_b, n_b) in zip(bs, bs[1:]):
            if le_b <= le_a:
                return fail(path, f"{family}: buckets not sorted by le")
            if n_b < n_a:
                return fail(path, f"{family}: cumulative counts decrease")
        if not math.isinf(bs[-1][0]):
            return fail(path, f"{family}: missing le=\"+Inf\" bucket")
        if (family, series) in counts and bs[-1][1] != counts[(family,
                                                               series)]:
            return fail(path, f"{family}: +Inf bucket != _count")

    if len(families) < min_families:
        return fail(path,
                    f"{len(families)} families < required {min_families}")
    print(f"{path}: ok ({len(families)} families, "
          f"{len(buckets)} histogram series)")
    return True


def check_trace(path, require_depth):
    doc = load_json(path)
    if doc is None:
        return False
    if not isinstance(doc.get("traceEvents"), list):
        return fail(path, "missing traceEvents array")

    spans = {}  # span_id -> (ts, dur, parent_id, name)
    instants = 0
    for i, ev in enumerate(doc["traceEvents"]):
        ph = ev.get("ph")
        if ph not in ("M", "X", "i"):
            return fail(path, f"event {i}: unknown phase {ph!r}")
        if ph == "M":
            continue
        for key in ("name", "pid", "tid", "ts"):
            if key not in ev:
                return fail(path, f"event {i}: missing {key!r}")
        if not isinstance(ev["ts"], (int, float)):
            return fail(path, f"event {i}: non-numeric ts")
        if ph == "i":
            instants += 1
            continue
        if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
            return fail(path, f"event {i}: X event needs dur >= 0")
        args = ev.get("args")
        if not isinstance(args, dict):
            return fail(path, f"event {i}: X event needs args")
        for key in ("trace_id", "span_id", "parent_id"):
            if not isinstance(args.get(key), int):
                return fail(path, f"event {i}: args.{key} must be an int")
        if args["span_id"] != 0:
            spans[args["span_id"]] = (ev["ts"], ev["dur"], args["parent_id"],
                                      ev["name"])

    depth = 0
    for sid, (ts, dur, parent, name) in spans.items():
        level, cursor = 1, parent
        while cursor:
            if cursor not in spans:
                return fail(path,
                            f"span {sid} ({name}): dangling parent {cursor}")
            pts, pdur, cursor, _ = spans[cursor]
            level += 1
            if level > len(spans):
                return fail(path, f"span {sid}: parent cycle")
        pts, pdur, _, pname = spans[parent] if parent else (None, None, None,
                                                            None)
        if parent and (ts < pts - 1 or ts + dur > pts + pdur + 1):
            return fail(path, f"span {sid} ({name}) escapes parent {pname}")
        depth = max(depth, level)

    if depth < require_depth:
        return fail(path, f"span tree depth {depth} < required "
                          f"{require_depth}")
    print(f"{path}: ok ({len(spans)} spans, depth {depth}, "
          f"{instants} instant events)")
    return True


LOG_LEVELS = {"TRACE", "DEBUG", "INFO", "WARN", "ERROR"}


def check_flight(path):
    """Validate a flight-dumps.json array (FlightRecord::to_json rows)."""
    dumps = load_json(path, top=list)
    if dumps is None:
        return False
    events_seen = 0
    for i, dump in enumerate(dumps):
        if not isinstance(dump, dict):
            return fail(path, f"dump {i}: not an object")
        where = f"dump {i} ({dump.get('subject')!r})"
        for key in ("subject", "dump_reason"):
            if not isinstance(dump.get(key), str) or not dump[key]:
                return fail(path, f"{where}: {key} must be a non-empty "
                                  f"string")
        events = dump.get("events")
        if not isinstance(events, list):
            return fail(path, f"{where}: missing events array")
        total = dump.get("events_total")
        if not isinstance(total, int) or total < len(events):
            return fail(path, f"{where}: events_total {total!r} < "
                              f"{len(events)} surviving events")
        last_seq = -1
        for j, event in enumerate(events):
            if not isinstance(event, dict):
                return fail(path, f"{where} event {j}: not an object")
            seq = event.get("seq")
            if not isinstance(seq, int) or seq <= last_seq:
                return fail(path, f"{where} event {j}: seq {seq!r} does not "
                                  f"increase past {last_seq}")
            last_seq = seq
            if event.get("level") not in LOG_LEVELS:
                return fail(path, f"{where} event {j}: unknown level "
                                  f"{event.get('level')!r}")
            for key in ("component", "name"):
                if not isinstance(event.get(key), str) or not event[key]:
                    return fail(path, f"{where} event {j}: {key} must be a "
                                      f"non-empty string")
        events_seen += len(events)
    print(f"{path}: ok ({len(dumps)} dumps, {events_seen} events)")
    return True


BENCH_SCHEMA = "pico.bench.v2"

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "==": operator.eq}

# The only reasons a gate may be skipped, each with the document fact that
# must back it and the gate applicability (`when`) that admits it: the
# harness derives them, and no flag can produce one.
SKIP_REASONS = {
    "smoke mode": lambda doc, when:
        doc["mode"] == "smoke" and when in ("full", "full_parallel"),
    "1 hardware thread": lambda doc, when:
        doc["host"]["hardware_threads"] == 1 and when == "full_parallel",
}


def is_finite_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def lookup(results, dotted_path):
    """Walk a dotted path through nested objects; None when absent."""
    cur = results
    for key in dotted_path.split("."):
        if not isinstance(cur, dict) or key not in cur:
            return None
        cur = cur[key]
    return cur


def check_bench(path, want_mode=None):
    """Validate one pico.bench.v2 document and re-evaluate its gates.

    Returns ``(bench, gate_set)`` on success, None after reporting."""
    doc = load_json(path)
    if doc is None:
        return None
    if doc.get("schema") != BENCH_SCHEMA:
        fail(path, f"schema {doc.get('schema')!r} is not {BENCH_SCHEMA!r}")
        return None
    for key, kind in (("bench", str), ("host", dict), ("results", dict),
                      ("gates", list)):
        if not isinstance(doc.get(key), kind):
            fail(path, f"missing or malformed {key!r}")
            return None
    threads = doc["host"].get("hardware_threads")
    if not isinstance(threads, int) or isinstance(threads, bool) \
            or threads < 1:
        fail(path, f"host.hardware_threads {threads!r} is not a positive "
                   f"integer")
        return None
    if doc.get("mode") not in ("smoke", "full"):
        fail(path, f"mode {doc.get('mode')!r} is neither smoke nor full")
        return None
    if want_mode and doc["mode"] != want_mode:
        fail(path, f"a {doc['mode']}-mode document where a {want_mode}-mode "
                   f"baseline is required — regenerate without --smoke")
        return None
    if not doc["gates"]:
        fail(path, "declares no gates")
        return None

    gate_set, ids, passed, skipped = set(), set(), 0, 0
    for i, gate in enumerate(doc["gates"]):
        gid = gate.get("id") if isinstance(gate, dict) else None
        if not isinstance(gid, str) \
                or not isinstance(gate.get("metric"), str) \
                or gate.get("op") not in OPS \
                or not is_finite_number(gate.get("bound")) \
                or gate.get("when") not in ("always", "full", "full_parallel"):
            fail(path, f"gate {i}: malformed {gate!r}")
            return None
        if gid in ids:
            fail(path, f"gate {gid}: declared twice")
            return None
        ids.add(gid)
        metric, op, bound = gate["metric"], gate["op"], gate["bound"]
        gate_set.add((gid, metric, op, bound, gate["when"]))
        if "skip" in gate:
            reason = gate["skip"]
            if reason not in SKIP_REASONS or \
                    not SKIP_REASONS[reason](doc, gate["when"]):
                fail(path, f"gate {gid}: skip reason {reason!r} does not hold "
                           f"for this document and a {gate['when']!r} gate")
                return None
            skipped += 1
            continue
        value = lookup(doc["results"], metric)
        if value is None:
            fail(path, f"gate {gid}: metric {metric!r} is missing from "
                       f"results")
            return None
        if not is_finite_number(value):
            fail(path, f"gate {gid}: metric {metric!r} = {value!r} is not a "
                       f"finite number")
            return None
        holds = OPS[op](value, bound)
        if gate.get("value") != value or gate.get("pass") is not holds:
            fail(path, f"gate {gid}: recorded value/verdict "
                       f"{gate.get('value')!r}/{gate.get('pass')!r} disagrees "
                       f"with results ({value!r}/{holds})")
            return None
        if not holds:
            fail(path, f"gate {gid}: {metric} = {value:g} violates "
                       f"{op} {bound:g}")
            return None
        passed += 1
    print(f"{path}: ok ({doc['bench']} {doc['mode']}: {passed} gates pass, "
          f"{skipped} skipped)")
    return doc["bench"], gate_set


def check_bench_pair(baseline, fresh):
    """A checked-in full-mode baseline against a fresh document from the same
    commit: both valid, same bench, same declared gate set."""
    base = check_bench(baseline, want_mode="full")
    new = check_bench(fresh)
    if base is None or new is None:
        return False
    if base[0] != new[0]:
        return fail(baseline, f"bench {base[0]!r} but {fresh} is {new[0]!r}")
    if base[1] != new[1]:
        stale = sorted(base[1] - new[1])
        missing = sorted(new[1] - base[1])
        return fail(baseline, f"gate set differs from {fresh} — regenerate "
                              f"the baseline; only in the baseline: {stale}; "
                              f"only in the fresh document: {missing}")
    print(f"{baseline}: gate set matches {fresh} ({len(base[1])} gates)")
    return True


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--prom", action="append", default=[],
                        help="Prometheus text file to validate (repeatable)")
    parser.add_argument("--min-families", type=int, default=1,
                        help="minimum distinct metric families per prom file")
    parser.add_argument("--trace", action="append", default=[],
                        help="Chrome trace_event JSON to validate "
                             "(repeatable)")
    parser.add_argument("--require-depth", type=int, default=1,
                        help="minimum span-tree depth per trace file")
    parser.add_argument("--flight", action="append", default=[],
                        help="flight-dumps.json array to validate "
                             "(repeatable)")
    parser.add_argument("--bench", action="append", default=[], nargs="+",
                        metavar="DOC",
                        help="pico.bench.v2 document to validate, optionally "
                             "followed by a fresh smoke document whose gate "
                             "set it must match (repeatable)")
    args = parser.parse_args()
    if not (args.prom or args.trace or args.flight or args.bench):
        parser.error("nothing to check: pass --prom, --trace, --flight "
                     "and/or --bench")
    if any(len(paths) > 2 for paths in args.bench):
        parser.error("--bench takes a document and at most one fresh "
                     "document")

    ok = True
    for path in args.prom:
        ok = check_prom(path, args.min_families) and ok
    for path in args.trace:
        ok = check_trace(path, args.require_depth) and ok
    for path in args.flight:
        ok = check_flight(path) and ok
    for paths in args.bench:
        if len(paths) == 2:
            ok = check_bench_pair(*paths) and ok
        else:
            ok = check_bench(paths[0]) is not None and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
