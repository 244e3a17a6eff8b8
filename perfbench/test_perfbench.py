#!/usr/bin/env python3
"""Tests of the benchmark's own logic: tail percentiles, name validation,
the output checker and the trace writer. They need no build:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(run.nearest_rank(xs, 50), 2.0)
        self.assertEqual(run.nearest_rank(xs, 50.1), 3.0)
        self.assertEqual(run.nearest_rank(xs, 100), 4.0)
        self.assertEqual(run.nearest_rank(xs, 0.1), 1.0)
        with self.assertRaises(ValueError):
            run.nearest_rank([], 50)

    def test_tail_keeps_ten_samples_beyond(self):
        for n in (11, 12, 30, 40, 51, 60, 100):
            xs = [float(i) for i in range(n)]
            pct, value = run.tail_percentile(list(reversed(xs)))
            beyond = sum(1 for x in xs if x > value)
            self.assertEqual(beyond, 10, n)
            # Any higher percentile leaves fewer than ten beyond it.
            higher = run.nearest_rank(xs, pct + 1e-6)
            self.assertLess(sum(1 for x in xs if x > higher), 10, n)

    def test_known_tails(self):
        xs = [float(i) for i in range(1, 41)]
        self.assertEqual(run.tail_percentile(xs), (75.0, 30.0))
        pct, value = run.tail_percentile([float(i) for i in range(1, 61)])
        self.assertAlmostEqual(pct, 100.0 * 50 / 60)
        self.assertEqual(value, 50.0)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail_percentile([1.0] * 10)


class NameValidationTest(unittest.TestCase):
    def test_names(self):
        for ok in ("setup_s", "train-full", "core.halo_cache.step_ms",
                   "1x", "a" * 64):
            self.assertTrue(run.valid_name(ok), ok)
        for bad in ("", "a b", "x/y", "-lead", ".lead", "café",
                    "a" * 65, None, 3):
            self.assertFalse(run.valid_name(bad), bad)

    def test_spec_in_tree_is_valid(self):
        spec = run.load_spec()
        self.assertEqual(set(spec["workloads"]),
                         {"train-full", "train-bns", "serve-gat"})

    def test_spec_rejections(self):
        spec = run.load_spec()
        cases = [
            ("per_layer", 0, "name", "bad name"),
            ("per_layer", 0, "unit", "no units allowed here"),
            ("per_layer", 0, "better", "sideways"),
            ("per_layer", 0, "source", "a guess"),
            ("end_to_end", 0, "name", "step_ms_p50"),  # duplicate
        ]
        for group, i, key, value in cases:
            bad = copy.deepcopy(spec)
            bad[group][i][key] = value
            with self.assertRaises(ValueError, msg=(group, key, value)):
                run.validate_spec(bad)
        bad = copy.deepcopy(spec)
        bad["workloads"]["bad workload"] = bad["workloads"]["train-full"]
        with self.assertRaises(ValueError):
            run.validate_spec(bad)

    def test_benchmark_json_matches_spec(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        spec = run.load_spec()
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(spec["workloads"]))
        for group in ("end_to_end", "per_layer"):
            ours = [(m["name"], m["unit"], m["better"]) for m in spec[group]]
            theirs = [(m["name"], m["unit"], m["better"])
                      for m in bench[group]]
            self.assertEqual(ours, theirs, group)
        self.assertIn("setup_s", [m["name"] for m in bench["end_to_end"]])


def good_raw():
    rep = {"ops": 2, "expected_ops": 2, "nonfinite": 0, "stamps_ok": True,
           "prefix_digest": "00000000000000aa", "digest": "00000000000000bb",
           "quality": 0.9, "steps_ms": [], "setup_s": 2.0}
    main = dict(rep, ops=14, expected_ops=14, digest="00000000000000cc",
                steps_ms=[float(i) for i in range(12)])
    return {"reps": [dict(rep), dict(rep), main], "rank_peak_rss_mb": 100.0}


class CheckerTest(unittest.TestCase):
    def test_good_run_passes(self):
        self.assertEqual(run.check_outputs(good_raw(), 0.5), [])
        self.assertEqual(
            run.check_outputs(good_raw(), 0.5, "00000000000000cc"), [])

    def test_tampered_digest_is_rejected(self):
        errors = run.check_outputs(good_raw(), 0.5, "00000000000000cd")
        self.assertTrue(any("digest" in e for e in errors), errors)

    def test_tampered_prefix_is_rejected(self):
        raw = good_raw()
        raw["reps"][1]["prefix_digest"] = "00000000000000ab"
        errors = run.check_outputs(raw, 0.5)
        self.assertTrue(any("disagree" in e for e in errors), errors)

    def test_each_check_fires(self):
        for key, value, word in (("nonfinite", 1, "non-finite"),
                                 ("invalid_answers", 3, "valid class"),
                                 ("ops", 13, "ran"),
                                 ("stamps_ok", False, "stamps"),
                                 ("quality", 0.1, "floor")):
            raw = good_raw()
            raw["reps"][-1][key] = value
            errors = run.check_outputs(raw, 0.5)
            self.assertTrue(any(word in e for e in errors), (key, errors))
        raw = good_raw()
        raw["reps"][-1]["quality"] = float("nan")
        self.assertTrue(run.check_outputs(raw, 0.5))

    def test_failed_checks_fail_every_op(self):
        raw = good_raw()
        self.assertEqual(run.attempted_ops(raw, 99), 18)
        self.assertEqual(run.attempted_ops({}, 99), 99)
        self.assertEqual(run.attempted_ops({}, None), 1)


class TraceTest(unittest.TestCase):
    def spans(self):
        return [
            {"id": 0, "name": "workload", "t0": 10.0, "t1": 20.0,
             "parent": -1, "lane": "benchmark"},
            {"id": 1, "name": "api.run", "t0": 11.0, "t1": 19.0,
             "parent": 0, "lane": "benchmark"},
            {"id": 2, "name": "epoch", "t0": 12.0, "t1": 13.0,
             "parent": 1, "lane": "rank0"},
        ]

    def write(self, spans):
        fd, path = tempfile.mkstemp(suffix=".json")
        os.close(fd)
        self.addCleanup(os.remove, path)
        run.write_chrome_trace(spans, path)
        return path

    def test_well_formed_trace(self):
        path = self.write(self.spans())
        self.assertEqual(run.validate_trace(path), 3)
        with open(path) as f:
            doc = json.load(f)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(complete[0]["ts"], 0.0)
        self.assertEqual(complete[2]["dur"], 1e6)
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"}
        self.assertEqual(names, {"benchmark", "rank0"})

    def test_child_outside_parent_is_rejected(self):
        spans = self.spans()
        spans[2]["t1"] = 25.0
        with self.assertRaises(ValueError):
            run.validate_trace(self.write(spans))

    def test_missing_parent_is_rejected(self):
        spans = self.spans()
        spans[1]["parent"] = 7
        with self.assertRaises(ValueError):
            run.validate_trace(self.write(spans))

    def test_not_a_trace(self):
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as f:
            json.dump({"traceEvents": {}}, f)
        self.addCleanup(os.remove, path)
        with self.assertRaises(ValueError):
            run.validate_trace(path)


if __name__ == "__main__":
    unittest.main()
