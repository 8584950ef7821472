#!/usr/bin/env python3
"""Tests of the benchmark's printer and output gate.

    python3 perfbench/test_run.py

Run from anywhere; the tests read BENCHMARK.json and results/golden/ from
the repository root.
"""

import json
import os
import unittest

import run

ROOT = os.path.dirname(run.HERE)


def golden():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return run.golden_reference()
    finally:
        os.chdir(cwd)


class PrinterTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            self.bench = json.load(f)

    def test_metric_lists_match_benchmark_json(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["per_layer"]], run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))

    def test_result_line_carries_every_metric_with_its_unit(self):
        for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            values = {name: 0.5 + i for i, (name, _) in enumerate(units)}
            line = json.loads(json.dumps(run.result_line(run.Gate(), values, units)))
            self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
            for m in self.bench[key]:
                self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])
                self.assertIsInstance(line["metrics"][m["name"]]["value"], float)
            self.assertEqual(len(line["metrics"]), len(self.bench[key]))

    def test_empty_gate_is_not_a_pass(self):
        line = run.result_line(run.Gate(), {"setup_s": 1.0}, [("setup_s", "s")])
        self.assertEqual((line["attempted"], line["failed"]), (1, 1))


class FailingLegs:
    """Legs whose first cell leg succeeds and whose next one fails."""

    workload = "peta-weibull"

    def __init__(self, canonical):
        self.canonical, self.calls = canonical, 0

    def run(self, mode, sample, workers=None, store=None):
        self.calls += 1
        if self.calls > 1:
            raise run.LegError(f"{mode}: exit 101: panicked")
        return {"canonical": self.canonical, "workers": 2, "traces": 24, "wall_s": 2.0,
                "setup_s": 1e-4, "rss_mb": 120.0}


class FailedLegTest(unittest.TestCase):
    def test_failed_leg_is_a_failed_row_and_earlier_legs_report(self):
        canonical = {k: v for k, v in golden().items() if k.startswith("peta-weibull000p7")}
        gate, acc = run.Gate(), run.E2E()
        run.drive(run.run_cells, FailingLegs(canonical), gate, float("inf"), None, acc)
        self.assertFalse(gate.correct)
        self.assertEqual(gate.failed, 1)
        self.assertGreater(gate.attempted, 1)
        metrics = acc.metrics()
        self.assertEqual(metrics["traces_per_s"], 12.0)
        self.assertIsNone(metrics["traces_per_s_1w"])
        line = json.loads(json.dumps(run.result_line(gate, metrics, run.END_TO_END)))
        self.assertFalse(line["correct"])
        self.assertIsNone(line["metrics"]["traces_per_s_1w"]["value"])


class GateTest(unittest.TestCase):
    def setUp(self):
        self.golden = golden()
        self.assertEqual(len(self.golden), 4)

    def test_golden_passes_against_itself(self):
        gate = run.Gate()
        gate.check("golden", self.golden, self.golden)
        self.assertTrue(gate.correct, gate.notes)
        rows = sum(len(json.loads(t)["outcomes"]) for t in self.golden.values())
        self.assertEqual(gate.attempted, rows)

    def test_perturbed_aggregate_fails_one_row(self):
        stem = "1proc-exp-000000021600"
        text = self.golden[stem]
        row = next(l for l in text.splitlines() if '"name": "OptExp"' in l)
        value = row.split('"mean_makespan": ')[1].split(",")[0]
        last = str((int(value[-1]) + 1) % 10)
        bumped = dict(self.golden, **{stem: text.replace(row, row.replace(value, value[:-1] + last))})
        gate = run.Gate()
        gate.check("perturbed", bumped, self.golden)
        self.assertFalse(gate.correct)
        self.assertEqual(gate.failed, 1)

    def test_changed_counter_fails_every_row(self):
        stem = "peta-weibull000p7000-003944700000"
        text = self.golden[stem]
        n = len(json.loads(text)["outcomes"])
        changed = dict(self.golden, **{stem: text.replace('"decisions": ', '"decisions": 1')})
        gate = run.Gate()
        gate.check("counter", changed, self.golden)
        self.assertEqual(gate.failed, n)

    def test_missing_cell_fails(self):
        partial = dict(self.golden)
        partial.popitem()
        gate = run.Gate()
        gate.check("partial", partial, self.golden)
        self.assertFalse(gate.correct)

    def test_invariants(self):
        stem = "peta-weibull000p7000-003944700000"
        doc = json.loads(self.golden[stem])
        self.assertEqual(run.row_failures(stem, self.golden[stem]), set())
        doc["outcomes"][0]["avg_degradation"] = 1.5  # LowerBound above the best policy
        doc["outcomes"][1]["avg_degradation"] = 0.5  # a policy below the best
        self.assertEqual(run.row_failures(stem, json.dumps(doc)), {"LowerBound", "PeriodLB"})

    def test_only_pinned_rows_may_be_absent(self):
        gap = "peta-weibull000p3000-003944700000"
        self.assertIn('"name": "Liu", "avg_degradation": null', self.golden[gap])
        self.assertEqual(run.row_failures(gap, self.golden[gap]), set())
        self.assertEqual(run.row_failures(gap + "-s7-2", self.golden[gap]), set())
        self.assertEqual(run.row_failures("peta-other", self.golden[gap]), {"Liu"})


if __name__ == "__main__":
    unittest.main()
