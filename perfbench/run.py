#!/usr/bin/env python3
"""Measured benchmark of the BNS-GCN runtime (see README.md here).

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 20 --trace 0

Builds the runner from the checkout's sources (first run only), runs one
workload on forked UDS rank processes, checks its outputs and prints every
metric with its unit, direction, source and aggregation. The last line of
standard output is one JSON object: correct / attempted / failed / metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
and writes a Chrome trace-event file under .bench_out/.

Exit codes: 0 all checks passed; 1 a check failed or the runner crashed
(the JSON line is still printed); 2 the runner could not be built.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
SPEC_PATH = os.path.join(HERE, "metrics.json")

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BETTER = ("higher", "lower")
SOURCES = ("benchmark clock", "benchmark getrusage", "program-reported",
           "Eq. 4 model")
KINDS = ("train", "serve")
GROUPS = ("end_to_end", "unbounded", "per_layer")
# Whole command budget is 180 s; leave room for the build check and output.
RUNNER_TIMEOUT_S = 170
# Tail rule: the highest nearest-rank percentile with at least this many
# samples above it.
TAIL_BEYOND = 10


# ----------------------------------------------------------- spec helpers
def valid_name(name):
    """Metric and workload names: [A-Za-z0-9_.-]+, leading letter or digit,
    at most 64 characters."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def validate_spec(spec):
    """Raise ValueError unless every name, unit and label in the metric
    spec is well formed and no name repeats."""
    seen = set()
    for w, wl in spec["workloads"].items():
        if not valid_name(w):
            raise ValueError("bad workload name: %r" % (w,))
        if wl.get("kind") not in KINDS:
            raise ValueError("bad kind for workload %s" % w)
    for group in GROUPS:
        for m in spec[group]:
            name = m.get("name")
            if not valid_name(name):
                raise ValueError("bad metric name: %r" % (name,))
            if name in seen:
                raise ValueError("metric named twice: %s" % name)
            seen.add(name)
            if not UNIT_RE.fullmatch(m.get("unit", "")):
                raise ValueError("bad unit for %s" % name)
            if m.get("better") not in BETTER:
                raise ValueError("bad direction for %s" % name)
            for kind in KINDS:
                if labelled(m, "source", kind) not in SOURCES:
                    raise ValueError("bad source for %s" % name)
                if not labelled(m, "aggregation", kind):
                    raise ValueError("no aggregation for %s" % name)
    return spec


def labelled(metric, key, kind):
    """A metric's label: one string, or one per workload kind."""
    value = metric.get(key)
    return value.get(kind) if isinstance(value, dict) else value


def load_spec():
    with open(SPEC_PATH) as f:
        return validate_spec(json.load(f))


# ------------------------------------------------------------- statistics
def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    xs = sorted(values)
    # Rounded first so that pct = 100 * k / n maps back to rank k exactly.
    k = max(1, math.ceil(round(pct * len(xs) / 100.0, 9)))
    return xs[k - 1]


def tail_percentile(values):
    """(pct, value) of the highest nearest-rank percentile that still has
    at least TAIL_BEYOND samples above it. Needs TAIL_BEYOND + 1 samples."""
    n = len(values)
    k = n - TAIL_BEYOND
    if k < 1:
        raise ValueError("a tail needs more than %d samples, got %d"
                         % (TAIL_BEYOND, n))
    pct = 100.0 * k / n
    return pct, nearest_rank(values, pct)


# ------------------------------------------------------------------ checks
def check_outputs(raw, floor, stored_digest=None):
    """Every failed output check, as text. Empty when the run is correct:
    all ops ran, every loss is finite, every query got a valid class, the
    short repetitions' outputs are a bit-exact prefix of the main one's,
    the main digest matches an earlier run of the same seed and sources,
    and the quality score clears its floor."""
    errors = []
    reps = raw.get("reps", [])
    if not reps:
        return ["no repetitions recorded"]
    for i, r in enumerate(reps):
        if r["ops"] != r["expected_ops"]:
            errors.append("rep %d ran %d of %d ops"
                          % (i, r["ops"], r["expected_ops"]))
        if r["nonfinite"]:
            errors.append("rep %d: %d non-finite losses" % (i, r["nonfinite"]))
        if r.get("invalid_answers", 0):
            errors.append("rep %d: %d queries without a valid class"
                          % (i, r["invalid_answers"]))
        if not r["stamps_ok"]:
            errors.append("rep %d: epoch observer stamps missing" % i)
    prefixes = {r["prefix_digest"] for r in reps}
    if len(prefixes) != 1:
        errors.append("repetitions of one seed disagree: prefix digests %s"
                      % sorted(prefixes))
    main = reps[-1]
    if stored_digest is not None and stored_digest != main["digest"]:
        errors.append("digest %s differs from an earlier run of this seed (%s)"
                      % (main["digest"], stored_digest))
    if not main["quality"] >= floor:
        errors.append("val_score %.4f below the floor %.4f"
                      % (main["quality"], floor))
    if len(main["steps_ms"]) <= TAIL_BEYOND:
        errors.append("only %d timed steps" % len(main["steps_ms"]))
    return errors


def source_fingerprint():
    """Hash of the measured sources and the benchmark itself: digests are
    only compared between runs of identical code."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for fn in sorted(filenames):
                if not fn.endswith((".cpp", ".hpp", ".txt", ".json")):
                    continue
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


# -------------------------------------------------------------------- trace
def write_chrome_trace(spans, path):
    """Write spans (dicts with id, name, t0, t1 in seconds, parent, lane)
    as Chrome trace-event JSON — complete events, one thread per lane."""
    if spans:
        origin = min(s["t0"] for s in spans)
    else:
        origin = 0.0
    lanes = {}
    events = []
    for s in spans:
        tid = lanes.setdefault(s["lane"], len(lanes) + 1)
        events.append({
            "name": s["name"], "cat": "perfbench", "ph": "X",
            "ts": round((s["t0"] - origin) * 1e6, 3),
            "dur": round(max(0.0, s["t1"] - s["t0"]) * 1e6, 3),
            "pid": 1, "tid": tid,
            "args": {"id": s["id"], "parent": s["parent"]},
        })
    for lane, tid in lanes.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tid, "args": {"name": lane}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def validate_trace(path):
    """Raise ValueError unless `path` is a well-formed trace: JSON with a
    traceEvents list of complete events with non-negative times, unique
    ids, and every parent an earlier span whose interval holds the child."""
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("no traceEvents list")
    spans = {}
    for e in events:
        if e.get("ph") == "M":
            continue
        if e.get("ph") != "X":
            raise ValueError("unexpected event phase %r" % e.get("ph"))
        for key in ("name", "ts", "dur", "pid", "tid", "args"):
            if key not in e:
                raise ValueError("event without %s" % key)
        if e["ts"] < 0 or e["dur"] < 0:
            raise ValueError("negative time in %s" % e["name"])
        sid = e["args"]["id"]
        if sid in spans:
            raise ValueError("span id %s repeats" % sid)
        spans[sid] = e
    slack = 1.0  # microseconds of rounding
    for sid, e in spans.items():
        parent = e["args"]["parent"]
        if parent == -1:
            continue
        p = spans.get(parent)
        if p is None or parent >= sid:
            raise ValueError("span %s has no earlier parent %s" % (sid, parent))
        if (e["ts"] + slack < p["ts"] or
                e["ts"] + e["dur"] > p["ts"] + p["dur"] + slack):
            raise ValueError("span %s lies outside its parent" % sid)
    return len(spans)


# ----------------------------------------------------------------- metrics
def end_to_end(raw, kind):
    reps = raw["reps"]
    main = reps[-1]
    steps = main["steps_ms"]
    tail_pct, tail = tail_percentile(steps)
    if kind == "serve":
        throughput = main["queries"] / main["serve_wall_s"]
    else:
        throughput = len(steps) / (sum(steps) / 1e3)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "step_ms_p50": statistics.median(steps),
        "step_ms_tail": tail,
        "throughput_per_s": throughput,
        "val_score": main["quality"],
        "rank_peak_rss_mb": raw["rank_peak_rss_mb"],
    }
    return values, tail_pct, len(steps)


def attempted_ops(raw, planned):
    """Epochs or queries the run set out to do: from its repetitions, else
    from the plan the runner wrote before starting, else 1."""
    reps = raw.get("reps")
    if reps:
        return sum(r["expected_ops"] for r in reps)
    return planned or 1


def label(m, kind):
    return "%s, %s is better, %s, %s" % (
        m["unit"], m["better"], labelled(m, "source", kind),
        labelled(m, "aggregation", kind))


def fmt(x):
    return "%.6g" % x


# -------------------------------------------------------------------- main
def build():
    """Configure (first run) and build the runner. False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    out = sys.stderr
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                              "-DCMAKE_BUILD_TYPE=Release"] + gen,
                             stdout=out, stderr=out)
        if cfg.returncode != 0:
            return False
    res = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4",
                          "--target", "perfbench_runner"],
                         stdout=out, stderr=out)
    return res.returncode == 0 and os.path.exists(RUNNER)


def run_runner(workload, seed, seconds, trace, deadline):
    """Run the workload; returns (raw dict or None, error text, attempted
    ops from the runner's plan file or None)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "raw-%s-%d-%d.json" % (workload, seed, trace))
    for path in (out, out + ".plan"):
        if os.path.exists(path):
            os.remove(path)
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    timeout = max(1.0, deadline - time.monotonic())
    # The rank processes' UDS sockets live under $TMPDIR: keep them inside
    # the checkout, on a short relative path (sun_path holds 108 bytes).
    tmp = os.path.join(".bench_out", "tmp")
    os.makedirs(os.path.join(ROOT, tmp), exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # Own process group: on a timeout the forked rank processes go too.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT, env=env, start_new_session=True)
    err = ""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        err = "runner timed out after %.0f s" % timeout
    planned = None
    if os.path.exists(out + ".plan"):
        with open(out + ".plan") as f:
            planned = json.load(f)["attempted"]
    if err:
        return None, err, planned
    if proc.returncode != 0 or not os.path.exists(out):
        return None, "runner exited with code %d" % proc.returncode, planned
    with open(out) as f:
        return json.load(f), "", planned


def stored_digest(key, digest, record):
    """The digest an earlier correct run stored under `key`, or None. With
    `record`, stores `digest` when none was stored yet."""
    path = os.path.join(OUT_DIR, "digests.json")
    table = {}
    if os.path.exists(path):
        with open(path) as f:
            table = json.load(f)
    old = table.get(key)
    if old is None and record:
        table[key] = digest
        with open(path, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
    return old


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_begin = time.monotonic()

    spec = load_spec()
    if args.workload not in spec["workloads"]:
        print("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(spec["workloads"])), file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    wl = spec["workloads"][args.workload]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUNNER_TIMEOUT_S

    fingerprint = source_fingerprint()
    key = "%s:%s:%d:%d" % (fingerprint, args.workload, args.seed, args.seconds)
    untraced_path = os.path.join(
        OUT_DIR, "untraced-%s-%s-%d-%d.json"
        % (fingerprint, args.workload, args.seed, args.seconds))

    # The traced run needs the untraced figures of the same seed and code to
    # report the tracing overhead; an earlier run's are reused when present.
    reference = None
    if args.trace:
        if os.path.exists(untraced_path):
            with open(untraced_path) as f:
                reference = json.load(f)
        else:
            ref_raw, _, _ = run_runner(args.workload, args.seed,
                                       args.seconds, 0, deadline)
            if ref_raw is not None:
                reference, _, _ = end_to_end(ref_raw, wl["kind"])

    raw, err, planned = run_runner(args.workload, args.seed, args.seconds,
                                   args.trace, deadline)
    errors = [err] if raw is None else []
    if raw is not None:
        old = stored_digest(key, raw["reps"][-1]["digest"], record=False)
        errors = check_outputs(raw, wl["val_floor"], old)
    if args.trace and reference is None and not errors:
        errors.append("no untraced reference run for the tracing overhead")

    metrics = {}
    lines = []
    if raw is not None and not errors:
        stored_digest(key, raw["reps"][-1]["digest"], record=True)
        e2e, tail_pct, n_steps = end_to_end(raw, wl["kind"])
        if not args.trace:
            with open(untraced_path, "w") as f:
                json.dump(e2e, f)
            for m in spec["end_to_end"] + spec["unbounded"]:
                if m in spec["end_to_end"]:
                    metrics[m["name"]] = {"value": e2e[m["name"]],
                                          "unit": m["unit"]}
                lines.append("%-22s %-22s %14s  (%s)" % (
                    m["name"], labelled(m, "as", wl["kind"]),
                    fmt(e2e[m["name"]]), label(m, wl["kind"])))
            lines.append("step_ms_tail is the p%.1f of %d timed steps"
                         % (tail_pct, n_steps))
        else:
            layers = dict(raw["layers"])
            trace_path = os.path.join(OUT_DIR, "trace-%s-%d.json"
                                      % (args.workload, args.seed))
            write_chrome_trace(raw["spans"], trace_path)
            try:
                layers["trace.spans"] = float(validate_trace(trace_path))
            except ValueError as exc:
                errors.append("trace file: %s" % exc)
            layers["trace.overhead_step_ms"] = (e2e["step_ms_p50"] -
                                                reference["step_ms_p50"])
            layers["trace.overhead_setup_s"] = (e2e["setup_s"] -
                                                reference["setup_s"])
            for m in spec["per_layer"]:
                if m["name"] not in layers:
                    errors.append("layer metric %s missing" % m["name"])
                    continue
                metrics[m["name"]] = {"value": layers[m["name"]],
                                      "unit": m["unit"]}
                lines.append("%-40s %14s  (%s)" % (
                    m["name"], fmt(layers[m["name"]]), label(m, wl["kind"])))
            lines.append("trace: %s" % os.path.relpath(trace_path, ROOT))
            lines.append("traced end-to-end: step_ms_p50 %s, setup_s %s "
                         "(untraced: %s, %s)"
                         % (fmt(e2e["step_ms_p50"]), fmt(e2e["setup_s"]),
                            fmt(reference["step_ms_p50"]),
                            fmt(reference["setup_s"])))

    attempted = attempted_ops(raw or {}, planned)
    failed = attempted if errors else 0
    print("perfbench %s seed %d, %d s, trace %d, %.1f s wall"
          % (args.workload, args.seed, args.seconds, args.trace,
             time.monotonic() - t_begin))
    for line in lines:
        print("  " + line)
    print("  %-22s %-22s %14s  (share of attempted %s, lower is better)"
          % ("error_rate", "error_rate", fmt(failed / attempted),
             "epochs" if wl["kind"] == "train" else "queries"))
    for e in errors:
        print("CHECK FAILED: " + e)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
