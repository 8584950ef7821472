#!/usr/bin/env python3
"""Benchmark of the checkpointing-strategies reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` leg binary (a
package of its own in this directory), then, for `--seconds` seconds,
starts one cold leg process per timed call, so every timed cell starts
with empty trace and DP caches, as a fresh `ckpt-exp` process does.
Every leg's canonical output goes through the output gate. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
the per-layer ones of the traced re-drive. Exit code 0 only when every
output check passed. README.md in this directory describes the
workloads and the metrics.
"""

import argparse
import json
import os
import re
import shutil
from statistics import median
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("peta-weibull", "lanl-log", "study-golden")
CELL_WORKLOADS = ("peta-weibull", "lanl-log")
DEFAULT_SEED = 0

# (name, unit) of every metric, in print order.
END_TO_END = [
    ("traces_per_s", "traces/s"),
    ("traces_per_s_1w", "traces/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("resume_s", "s"),
]
PER_LAYER = [
    ("traces.gen_s", "s"),
    ("traces.sets", "count"),
    ("traces.failures", "count"),
    ("dist.build_s", "s"),
    ("policies.build_s", "s"),
    ("policies.decide_s", "s"),
    ("policies.dp_decide_s", "s"),
    ("policies.dp_decide_us_p50", "us"),
    ("policies.dp_decide_us_p99", "us"),
    ("policies.decisions", "count"),
    ("dp.solves", "count"),
    ("dp.plan_hit_ratio", "share"),
    ("dp.row_hit_ratio", "share"),
    ("dp.plan_entries", "count"),
    ("dp.row_entries", "count"),
    ("sim.runs", "count"),
    ("sim.decisions", "count"),
    ("sim.failures", "count"),
    ("sim.self_s", "s"),
    ("sim.lower_bound_s", "s"),
    ("plan.candidate_sims", "count"),
    ("plan.candidate_sims_per_trace", "count"),
    ("plan.candidate_s", "s"),
    ("exec.tasks", "count"),
    ("exec.waves", "count"),
    ("exec.busy_s", "s"),
    ("exec.critical_path_s", "s"),
    ("exec.idle_s", "s"),
    ("exec.steals", "count"),
    ("exec.failed_probes", "count"),
    ("exec.claim_ratio", "share"),
    ("reduce.s", "s"),
    ("checkpoint.run_s", "s"),
    ("checkpoint.run_ratio", "share"),
    ("checkpoint.snapshots", "count"),
    ("checkpoint.store_bytes", "bytes"),
    ("checkpoint.parse_s", "s"),
    ("checkpoint.resume_load_s", "s"),
    ("checkpoint.items_resumed", "count"),
    ("checkpoint.items_executed", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "share"),
]

# Rows absent by design: the golden Liu-gap cell pins Liu's footnote-2
# build failure.
PINNED_ABSENT = {("peta-weibull000p3000-003944700000", "Liu")}
# Slack on the §4.1 invariants (LowerBound <= 1 <= every other row).
TOLERANCE = 1e-12
LEG_TIMEOUT_S = 150


class LegError(Exception):
    pass


# ---------------------------------------------------------------------
# Output gate
# ---------------------------------------------------------------------


def base_stem(stem):
    """The stem without its seed and sample suffix."""
    return re.sub(r"-s\d+-\d+$", "", stem)


def row_failures(stem, text):
    """Names of the rows of one canonical result that break the §4.1
    invariants: LowerBound <= 1, every other present row >= 1, every
    absent row pinned by design."""
    bad = set()
    for row in json.loads(text)["outcomes"]:
        name, avg = row["name"], row["avg_degradation"]
        if avg is None:
            if (base_stem(stem), name) not in PINNED_ABSENT:
                bad.add(name)
        elif name == "LowerBound":
            if not avg <= 1.0 + TOLERANCE:
                bad.add(name)
        elif not avg >= 1.0 - TOLERANCE:
            bad.add(name)
    return bad


def row_diff(text, reference):
    """Names of the rows of `text` that differ from `reference` byte for
    byte. A difference outside the rows fails every row."""
    lines, ref_lines = text.splitlines(), reference.splitlines()
    rows = [json.loads(l.strip().rstrip(","))["name"] for l in lines if l.lstrip().startswith('{"name"')]
    if len(lines) != len(ref_lines):
        return set(rows)
    head = [l for l in lines if not l.lstrip().startswith('{"name"')]
    ref_head = [l for l in ref_lines if not l.lstrip().startswith('{"name"')]
    if head != ref_head:
        return set(rows)
    return {
        json.loads(a.strip().rstrip(","))["name"]
        for a, b in zip(lines, ref_lines)
        if a != b and a.lstrip().startswith('{"name"')
    }


class Gate:
    """Counts the rows checked and the rows that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, what, canonical, reference=None):
        """Check one leg's canonical outputs ({stem: golden_json}) against
        the invariants and, when given, a reference with the same stems."""
        if reference is not None and set(canonical) != set(reference):
            self.error(f"{what}: cells {sorted(canonical)} != {sorted(reference)}")
            return
        for stem, text in canonical.items():
            try:
                rows = len(json.loads(text)["outcomes"])
                bad = row_failures(stem, text)
                if reference is not None:
                    bad |= row_diff(text, reference[stem])
            except (ValueError, KeyError, TypeError) as e:
                self.error(f"{what}/{stem}: unreadable output ({e})")
                continue
            self.attempted += rows
            self.failed += len(bad)
            if bad:
                self.notes.append(f"{what}/{stem}: rows {sorted(bad)} failed")

    def error(self, note):
        self.attempted += 1
        self.failed += 1
        self.notes.append(note)

    @property
    def correct(self):
        return self.failed == 0


def golden_reference():
    """The committed golden files, {stem: text}: the study-golden cells'
    aggregates at the default seed."""
    out = {}
    folder = os.path.join("results", "golden")
    for name in sorted(os.listdir(folder)):
        if name.endswith(".json"):
            with open(os.path.join(folder, name), encoding="utf-8") as f:
                out[name[: -len(".json")]] = f.read()
    return out


# ---------------------------------------------------------------------
# Legs
# ---------------------------------------------------------------------


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Build the leg binary; its path, or None when the build fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


class Legs:
    """Starts leg processes one at a time and waits for each."""

    def __init__(self, binary, workload, seed, work):
        self.binary, self.workload, self.seed, self.work = binary, workload, seed, work
        self.env = {k: v for k, v in os.environ.items() if k != "CKPT_THREADS"}
        self.seen = []

    def run(self, mode, sample, workers=None, store=None):
        cmd = [self.binary, mode, "--workload", self.workload, "--seed", str(self.seed),
               "--sample", str(sample), "--store", store or os.path.join(self.work, "store")]
        if workers is not None:
            cmd += ["--workers", str(workers)]
        try:
            done = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=LEG_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            raise LegError(f"{mode}: timed out") from e
        if done.returncode != 0:
            raise LegError(f"{mode}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
        lines = done.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1])
        except (IndexError, ValueError) as e:
            raise LegError(f"{mode}: no result ({e})") from e
        self.seen.append(out)
        return out


def drive(runner, legs, gate, deadline, golden, acc):
    """Run `runner` into `acc`. A failed leg ends the run and counts as a
    failed row; the legs before it still report."""
    try:
        runner(legs, gate, deadline, golden, acc)
    except LegError as e:
        gate.error(str(e))


def samples(deadline):
    """Sample indices: at least one, then another while one more sample,
    as long as the last, still ends by the deadline."""
    k, last = 0, 0.0
    while k == 0 or time.monotonic() + last <= deadline:
        start = time.monotonic()
        yield k
        last = time.monotonic() - start
        k += 1


def worker_order(k):
    """Default worker count and 1 worker, alternating which goes first."""
    return [None, 1] if k % 2 == 0 else [1, None]


# ---------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------


def median_or_none(values):
    return median(values) if values else None


class E2E:
    """Per-leg end-to-end samples; every metric is their median."""

    def __init__(self):
        self.tps, self.tps_1w, self.setup, self.rss, self.resume = [], [], [], [], []

    def timed(self, leg):
        """A leg whose timed call evaluated the workload's traces: a cell
        leg, or a fresh study. Only these legs give `setup_s`, so every
        sample adds the same kind of set-up to it."""
        self.setup.append(leg["setup_s"])
        rate = leg["traces"] / leg["wall_s"]
        if leg["workers"] == 1:
            self.tps_1w.append(rate)
        else:
            self.tps.append(rate)
            self.rss.append(leg["rss_mb"])

    @property
    def samples(self):
        return len(self.tps)

    def metrics(self):
        return {
            "traces_per_s": median_or_none(self.tps),
            "traces_per_s_1w": median_or_none(self.tps_1w),
            "setup_s": median_or_none(self.setup),
            "peak_rss_mb": median_or_none(self.rss),
            "resume_s": median_or_none(self.resume),
        }


def run_cells(legs, gate, deadline, golden, e2e):
    """Cell workloads: per sample one leg at the default worker count and
    one at 1 worker, on the sample's own traces."""
    for k in samples(deadline):
        reference = None
        for workers in worker_order(k):
            out = legs.run("cell", k, workers=workers)
            gate.check(f"sample {k} cell@{out['workers']}w", out["canonical"], reference)
            reference = reference or out["canonical"]
            e2e.timed(out)
            if workers is None:
                # No store: a stopped cell restarts from scratch.
                e2e.resume.append(out["wall_s"])


def check_fresh(gate, k, out, reference):
    """A fresh study's outputs: its aggregates, and its untimed resume of
    the complete store, which must execute no item."""
    gate.check(f"sample {k} fresh@{out['workers']}w", out["canonical"], reference)
    if out["reloaded_items_executed"] != 0:
        gate.error(f"sample {k}: resuming a complete store executed "
                   f"{out['reloaded_items_executed']} items")


def run_study(legs, gate, deadline, golden, e2e):
    """study-golden: per sample a fresh study at the default worker count
    and one at 1 worker, then a study stopped at half the items and
    resumed in a new process. Sample 0 also runs `Study::run_all`."""
    for k in samples(deadline):
        reference = golden if k == 0 else None
        store = os.path.join(legs.work, f"s{k}")
        for workers in worker_order(k):
            out = legs.run("study-fresh", k, workers=workers, store=f"{store}-w{workers or 0}")
            check_fresh(gate, k, out, reference)
            reference = reference or out["canonical"]
            e2e.timed(out)
        stop = legs.run("study-stop", k, store=store)
        if not 0 < stop["items_completed"] < stop["items_total"]:
            gate.error(f"sample {k}: stop left {stop['items_completed']}/{stop['items_total']} items")
        out = legs.run("study-resume", k, store=store)
        gate.check(f"sample {k} resumed", out["canonical"], reference)
        if out["items_resumed"] == 0 or out["items_executed"] == 0:
            gate.error(f"sample {k}: resume restored {out['items_resumed']} "
                       f"and ran {out['items_executed']} items")
        e2e.resume.append(out["wall_s"])
        if k == 0:
            out = legs.run("study-memory", k)
            gate.check(f"sample {k} in-memory", out["canonical"], reference)


# ---------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------


CHECKPOINT_COUNTS = ("snapshots", "store_bytes", "items_resumed", "items_executed")
CHECKPOINT_TIMES = ("parse_s", "resume_load_s")


class Traced:
    """Per-sample layer figures of the traced legs; every metric is their
    median."""

    def __init__(self):
        self.layers, self.traced_walls, self.untraced_walls = [], [], []
        # Walls of the fresh `run_study` legs, for `checkpoint.run_s`.
        self.fresh_walls = []
        # The traced legs' empty timed bracket, on cell workloads.
        self.floors = []
        self.ckpt = {k: [] for k in CHECKPOINT_COUNTS + CHECKPOINT_TIMES}

    @property
    def samples(self):
        return len(self.layers)

    def metrics(self):
        values = {name: None for name, _ in PER_LAYER}
        if self.layers:
            values.update({name: median([l[name] for l in self.layers]) for name, _ in PER_LAYER
                           if name in self.layers[0]})
        for name, v in self.ckpt.items():
            values[f"checkpoint.{name}"] = median_or_none(v)
        fresh, untraced = median_or_none(self.fresh_walls), median_or_none(self.untraced_walls)
        if fresh is not None and untraced is not None:
            # Medians of cold legs in separate processes: resolved only
            # beyond the host's drift between legs (see README.md).
            values["checkpoint.run_s"] = fresh - untraced
            values["checkpoint.run_ratio"] = fresh / untraced
        elif self.floors:
            # No store on a cell workload: the empty bracket, and no
            # overhead over the untraced run.
            values["checkpoint.run_s"] = median(self.floors)
            values["checkpoint.run_ratio"] = 1.0
        traced = median_or_none(self.traced_walls)
        values["trace.wall_s"] = traced
        if traced is not None and untraced is not None:
            values["trace.overhead"] = traced / untraced - 1.0
        return values


def run_traced(legs, gate, deadline, golden, acc):
    """Per sample one traced leg and one untraced leg (run_scenario, or
    Study::run_all on study-golden) at the default worker count; on
    study-golden also the fresh, stopped and resumed studies that the
    checkpoint metrics come from."""
    study = legs.workload == "study-golden"
    for k in samples(deadline):
        reference = golden if k == 0 else None
        traced = legs.run("traced", k)
        plain = legs.run("study-memory" if study else "cell", k)
        gate.check(f"sample {k} untraced", plain["canonical"], reference)
        reference = reference or plain["canonical"]
        # The traced re-drive must be the same program: byte-identical.
        gate.check(f"sample {k} traced", traced["canonical"], reference)
        acc.layers.append(traced["layers"])
        acc.traced_walls.append(traced["wall_s"])
        acc.untraced_walls.append(plain["wall_s"])
        if study:
            store = os.path.join(legs.work, f"t{k}")
            fresh = legs.run("study-fresh", k, store=store)
            check_fresh(gate, k, fresh, reference)
            legs.run("study-stop", k, store=store)
            resumed = legs.run("study-resume", k, store=store)
            gate.check(f"sample {k} resumed", resumed["canonical"], reference)
            acc.fresh_walls.append(fresh["wall_s"])
            for name in ("snapshots", "store_bytes", "parse_s", "resume_load_s"):
                acc.ckpt[name].append(fresh[name])
            for name in ("items_resumed", "items_executed"):
                acc.ckpt[name].append(resumed[name])
        else:
            # No checkpoint call runs on a cell workload: its checkpoint
            # counts are 0 and its times the traced leg's empty bracket.
            floor = traced["layers"]["timer_floor_s"]
            acc.floors.append(floor)
            for name in CHECKPOINT_COUNTS:
                acc.ckpt[name].append(0)
            for name in CHECKPOINT_TIMES:
                acc.ckpt[name].append(floor)


# ---------------------------------------------------------------------
# Provenance and printing
# ---------------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def provenance(workload, seed, legs_seen):
    return {
        "workload": workload,
        "seed": seed,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "lanes": sorted({o["lanes"] for o in legs_seen}),
        "workers": sorted({o["workers"] for o in legs_seen}),
        "git_sha": git_sha(),
    }


def result_line(gate, metrics, units):
    """The result object: every metric of `units` by name, with its unit."""
    return {
        "correct": gate.correct,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed if gate.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    binary = build()
    if binary is None:
        return 2
    work = os.path.join(target_dir(), "perfbench-work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    gate = Gate()
    legs = Legs(binary, args.workload, args.seed, work)
    golden = None
    if args.workload == "study-golden" and args.seed == DEFAULT_SEED:
        golden = golden_reference()
    if args.trace:
        runner, acc, units = run_traced, Traced(), PER_LAYER
    else:
        runner = run_cells if args.workload in CELL_WORKLOADS else run_study
        acc, units = E2E(), END_TO_END
    try:
        drive(runner, legs, gate, time.monotonic() + args.seconds, golden, acc)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"provenance": provenance(args.workload, args.seed, legs.seen)}))
    metrics = acc.metrics()
    for name, unit in units:
        value = "none" if metrics[name] is None else f"{metrics[name]:.6g}"
        print(f"{name} = {value} {unit}")
    print(f"failed_ops_ratio = {gate.failed / max(gate.attempted, 1):.6g} share "
          f"({gate.failed} of {gate.attempted} rows, {acc.samples} samples)")
    for note in gate.notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    print(json.dumps(result_line(gate, metrics, units)))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
