"""Benchmark of the giraw CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Runs the real CLI commands of one workload, one process at a time, in whole
rounds until --seconds have passed, and checks every output against the
independent computations in reference.py. The last line of stdout is one
JSON object: `correct`, `attempted`, `failed` and `metrics`. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the rounds alternate
between plain and traced runs (traced_cli.py) and the metrics are the
per-layer ones. Raw figures and per-round details go to the line before it
and to perfbench/out/.

Times are scaled to a nominal machine speed. On a 2-vCPU 2.1 GHz Xeon the
CPU drifts between speed states for seconds to minutes, which moved raw
times by 10-30% between runs. A probe thread times a fixed pure-Python unit
of work every 10 ms while each command runs; a command's scaled time is its
raw time times PROBE_NOMINAL_S over the probe's mean cost during that
command.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

PROBE_STEPS = 300
PROBE_TABLE = 1 << 15  # list entries read at random: about 1 MiB with the ints
PROBE_PERIOD_S = 0.01
# Mean probe cost during commands in the fast state of a 2.1 GHz Xeon; scaled
# times are seconds on that machine.
PROBE_NOMINAL_S = 0.00022
HARD_LIMIT_S = 170.0  # every run must end within 180 s

SAMPLE_WALKS = 500_000
SETUPS_PER_ROUND = 2  # CLI start-ups timed per round, for setup_s


class CheckError(Exception):
    """A CLI output disagrees with the reference computation."""


def _probe_unit(table: list[int]) -> int:
    """Fixed mix of the work the CLI does: interpreter arithmetic, dict stores,
    reads scattered over a list larger than L1, and a big-int product."""
    acc, seen = 1, {}
    for i in range(PROBE_STEPS):
        acc = (acc * 1103515245 + i) % 2147483648
        seen[acc & 1023] = table[acc & (PROBE_TABLE - 1)]
        (acc << 200) * (acc << 150)
    return acc


class SpeedProbe:
    """Background thread sampling the CPU cost of a fixed unit of Python work."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, CPU seconds)
        self._table = random.Random(0).sample(range(PROBE_TABLE), PROBE_TABLE)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            c0 = time.thread_time()
            _probe_unit(self._table)
            self.samples.append((time.perf_counter(), time.thread_time() - c0))
            self._stop.wait(PROBE_PERIOD_S)

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """Nominal over measured speed during [t0, t1]."""
        samples = list(self.samples)
        costs = [c for t, c in samples if t0 <= t <= t1]
        if len(costs) < 3:  # too short to sample: use the neighbours
            costs = [c for t, c in samples if t0 - 0.1 <= t <= t1 + 0.1] or [c for _, c in samples[-3:]]
        return PROBE_NOMINAL_S / statistics.fmean(costs)


@dataclass
class Invocation:
    rc: int
    raw_s: float
    scaled_s: float
    factor: float
    maxrss_mb: float
    stdout: str
    stderr: str


@dataclass
class Op:
    """One CLI command of a workload and the check of its output."""

    args: list[str]
    check: Callable[[dict], None]
    estimates: list = field(default_factory=list)


@dataclass
class Workload:
    ops: list[Op]
    units: int  # work units per round, for work_per_s


class Harness:
    def __init__(self, probe: SpeedProbe, scratch: Path, started: float) -> None:
        self.probe = probe
        self.scratch = scratch
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def invoke(self, argv: list[str]) -> Invocation:
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        factor = self.probe.factor(t0, t1)
        return Invocation(
            rc=proc.returncode,
            raw_s=t1 - t0,
            scaled_s=(t1 - t0) * factor,
            factor=factor,
            maxrss_mb=usage.ru_maxrss / 1024,
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
        )

    def cli(self, args: list[str], trace_file: Path | None = None) -> Invocation:
        if trace_file is None:
            return self.invoke([sys.executable, "-m", "giraw.cli", *args])
        return self.invoke([sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_file), *args])


# -- checks ------------------------------------------------------------------


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def parse_fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def check_scan(n: int, model: str) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        expect(out["n"] == n and out["model"] == model and out["family"] == "all", "scan header")
        expect(out["trees_checked"] == ref.free_tree_count(n), "trees_checked != A000055(n)")
        expect(out["violations"] == [], f"{len(out['violations'])} violations")

    return check


class OrderCheck:
    """Checks `order` against domination recomputed by enumerating every walk."""

    def __init__(self, n: int, model: str) -> None:
        self.n, self.model = n, model
        self._relation: dict[tuple, list[list[int]]] = {}

    def __call__(self, out: dict) -> None:
        n = self.n
        expect(out["n"] == n and out["model"] == self.model, "order header")
        trees = [[tuple(e) for e in edges] for edges in out["trees"]]
        expect(len(trees) == ref.free_tree_count(n), "tree count != A000055(n)")
        forms = {ref.canonical_form(n, edges) for edges in trees}  # raises on a non-tree
        expect(len(forms) == len(trees), "two trees are isomorphic")
        key = tuple(tuple(edges) for edges in trees)
        if key not in self._relation:
            self._relation[key] = ref.domination_relation([(n, e) for e in trees], self.model)
        want = self._relation[key]
        got = [out["dominated_by"][str(i)] for i in range(len(trees))]
        expect(got == want, "dominated_by differs from walk enumeration")
        path_form = ref.canonical_form(n, [(v, v + 1) for v in range(n - 1)])
        path = [i for i, e in enumerate(trees) if ref.canonical_form(n, e) == path_form]
        expect(len(path) == 1, "the path is missing")
        for i, dom in enumerate(got):
            expect(i in dom, f"tree {i} does not dominate itself")
            expect(path[0] in dom, f"the path does not dominate tree {i}")
            expect(all(set(got[j]) <= set(dom) for j in dom), f"order not transitive at {i}")


def check_path_dist(a: int, model: str) -> Callable[[dict], None]:
    steps = len(ref.STEPS[model])
    counts = ref.path_range_class_counts(a, model)
    den = steps**a
    tails = ref.tails_from_class_counts(counts, den, a + 1)

    def check(out: dict) -> None:
        expect(out["n"] == a + 1 and out["model"] == model, "dist header")
        expect(int(out["denominator"]) == den, "denominator != s^(n-1)")
        got = {int(r): int(c) for r, c in out["class_counts"].items()}
        expect(sum(got.values()) == den, "class counts do not sum to s^(n-1)")
        expect(got == counts, "class counts differ from the reflection principle")
        got_tails = [parse_fraction(out["tail"][str(k)]) for k in range(len(out["tail"]))]
        expect(got_tails[0] == 1, "tail(0) != 1")
        expect(all(x >= y for x, y in zip(got_tails, got_tails[1:])), "tails increase")
        expect(got_tails == tails, "tails differ from the reflection principle")

    return check


def check_lemma(lemma: str, cases: int) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        expect(out["lemma"] == lemma, "lemma name")
        expect(out["cases_checked"] == cases, f"cases_checked {out['cases_checked']} != {cases}")
        expect(out["counterexamples"] == [], "counterexamples reported")

    return check


def check_estimate(statistic: str, exact: Fraction) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        expect(out["statistic"] == statistic and out["samples"] == SAMPLE_WALKS, "sample header")
        expect(parse_fraction(out["exact"]) == exact, "exact value differs from the reference")
        # A pair at distance 1 in the standard model has |f(u) - f(v)| = 1 always: SE 0.
        se = out["std_error"]
        expect(abs(out["estimate"] - float(exact)) <= 5 * se, "estimate beyond 5 SE")

    return check


# -- workloads ---------------------------------------------------------------


def scan_workload(rng: random.Random, scratch: Path) -> Workload:
    n = 14
    ops = [Op(["scan", "--n", str(n), "--model", m], check_scan(n, m)) for m in ("standard", "lazy")]
    rng.shuffle(ops)
    return Workload(ops, units=2 * ref.free_tree_count(n))


def order_workload(rng: random.Random, scratch: Path) -> Workload:
    n = 10
    count = ref.free_tree_count(n)
    return Workload([Op(["order", "--n", str(n)], OrderCheck(n, "standard"))], units=count * count)


def deep_workload(rng: random.Random, scratch: Path) -> Workload:
    summand = (["60", "40", "20"], 70)
    diff = (24, 24, 8)  # a_max, k_max, tree_n_max (lazy)
    summand_cases = ref.summand_comparison_cases(summand[1])
    diff_cases = ref.difference_monotone_cases(*diff, "lazy")
    ops = [
        Op(["dist", "--tree", "path:200"], check_path_dist(200, "standard")),
        Op(["dist", "--tree", "path:160", "--model", "lazy"], check_path_dist(160, "lazy")),
        Op(
            ["verify-lemmas", "--lemma", "summand-comparison", "--legs", ",".join(summand[0]), "--k", str(summand[1])],
            check_lemma("summand-comparison", summand_cases),
        ),
        Op(
            ["verify-lemmas", "--lemma", "difference-monotone", "--model", "lazy",
             "--a-max", str(diff[0]), "--k-max", str(diff[1]), "--tree-n-max", str(diff[2])],
            check_lemma("difference-monotone", diff_cases),
        ),
    ]
    rng.shuffle(ops)
    classes = 201 + 161  # range classes 0..diameter of each path
    return Workload(ops, units=classes + summand_cases + diff_cases)


def _write_tree(path: Path, edges: list[tuple[int, int]]) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))


def sample_workload(rng: random.Random, scratch: Path) -> Workload:
    """Range estimates on a 40-vertex path, pair distances on a 40-vertex spider.

    The trees are fixed, so the traced counters do not depend on the seed;
    the seed picks the sampler seeds and the vertex pairs.
    """
    a = 39
    path_file = scratch / "path.txt"
    _write_tree(path_file, [(i, i + 1) for i in range(a)])
    legs = (13, 13, 13)
    spider = []
    for leg in range(len(legs)):
        base = 1 + sum(legs[:leg])
        spider += [(0 if i == 0 else base + i - 1, base + i) for i in range(legs[leg])]
    n = 1 + sum(legs)
    spider_file = scratch / "spider.txt"
    _write_tree(spider_file, spider)
    ops = []
    for model in ("standard", "lazy"):
        counts = ref.path_range_class_counts(a, model)
        exact = ref.expected_range(counts, len(ref.STEPS[model]) ** a)
        ops.append(Op(
            ["sample", "--tree", str(path_file), "--model", model, "--samples", str(SAMPLE_WALKS),
             "--seed", str(rng.randrange(2**31)), "--stat", "range"],
            check_estimate("expected_range", exact),
        ))
    for model in ("standard", "lazy"):
        u, v = rng.sample(range(n), 2)
        exact = ref.expected_abs_difference(ref.distance(n, spider, u, v), model)
        ops.append(Op(
            ["sample", "--tree", str(spider_file), "--model", model, "--samples", str(SAMPLE_WALKS),
             "--seed", str(rng.randrange(2**31)), "--stat", "pair", "--u", str(u), "--v", str(v)],
            check_estimate("pair_distance", exact),
        ))
    rng.shuffle(ops)
    return Workload(ops, units=len(ops) * SAMPLE_WALKS)


WORKLOADS = {
    "scan": scan_workload,
    "order": order_workload,
    "deep": deep_workload,
    "sample": sample_workload,
}


# -- one run -----------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)

    def run_op(self, harness: Harness, op: Op, trace_file: Path | None = None) -> Invocation:
        inv = harness.cli(op.args, trace_file)
        self.attempted += 1
        if inv.rc != 0:
            self.failed += 1
            print(f"FAILED (exit {inv.rc}): giraw {' '.join(op.args)}\n{inv.stderr[-500:]}", file=sys.stderr)
            return inv
        try:
            out = json.loads(inv.stdout)
            op.check(out)
            if "estimate" in out:  # a seed must give the same estimate every round
                op.estimates.append(out["estimate"])
                expect(len(set(op.estimates)) == 1, "estimate changed between rounds")
        except (CheckError, ValueError, KeyError, TypeError) as exc:
            self.failed += 1
            self.wrong.append(f"giraw {' '.join(op.args)}: {exc!r}")
            print(f"WRONG: giraw {' '.join(op.args)}: {exc!r}", file=sys.stderr)
        return inv


def setup_start(harness: Harness) -> Invocation:
    inv = harness.cli(["--help"])
    if inv.rc != 0 or "Usage" not in inv.stdout:
        sys.exit(f"giraw --help failed with exit {inv.rc}:\n{inv.stderr[-2000:]}")
    return inv


def import_times(harness: Harness) -> dict[str, float]:
    """cli.import_s and cli.import_networkx_s from `python -X importtime`, scaled."""
    inv = harness.invoke([sys.executable, "-X", "importtime", "-c", "import giraw.cli"])
    if inv.rc != 0:
        sys.exit(f"import giraw.cli failed:\n{inv.stderr[-2000:]}")
    cumulative = {}
    for line in inv.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return {
        "cli.import_s": cumulative["giraw.cli"] * inv.factor,
        "cli.import_networkx_s": cumulative.get("networkx", 0.0) * inv.factor,
    }


def layer_metrics(traces: list[dict], factors: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced round from the trace files of its commands."""
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    for trace, factor in zip(traces, factors):
        for name, s in trace["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            acc["calls"] += s["calls"]
            acc["total_s"] += s["total_s"] * factor
            acc["self_s"] += s["self_s"] * factor
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    count = counters.get
    subtrees = count("counting.subtrees", 0)
    return {
        "cli.emit_s": span("cli.emit", "total_s"),
        "trees.generate_s": span("trees.generate", "total_s"),
        "trees.generated": count("trees.generated", 0),
        "trees.reroot_calls": span("trees.reroot", "calls"),
        "trees.reroot_s": span("trees.reroot", "total_s"),
        "trees.diameter_calls": span("trees.diameter", "calls"),
        "trees.diameter_s": span("trees.diameter", "total_s"),
        "counting.profile_calls": span("counting.profile", "calls"),
        "counting.profile_s": span("counting.profile", "self_s"),
        "counting.profile_cells": count("counting.profile_cells", 0),
        "counting.profile_distinct_ratio": ratio(count("counting.profile_distinct", 0), span("counting.profile", "calls")),
        "counting.dist_calls": span("counting.dist", "calls"),
        "counting.dist_s": span("counting.dist", "total_s"),
        "counting.dist_distinct_ratio": ratio(count("counting.dist_distinct", 0), span("counting.dist", "calls")),
        "counting.int64_safe_share": ratio(count("counting.int64_safe", 0), span("counting.profile", "calls")),
        "counting.subtree_repeat_share": ratio(subtrees - count("counting.subtree_classes", 0), subtrees),
        "counting.path_profile_calls": count("counting.path_profile_calls", 0),
        "counting.transfer_calls": count("counting.transfer_calls", 0),
        "counting.band_s": span("counting.band", "total_s"),
        "analysis.compare_calls": span("analysis.compare", "calls"),
        "analysis.compare_s": span("analysis.compare", "self_s"),
        "analysis.tail_calls": span("analysis.tail", "calls"),
        "analysis.tail_s": span("analysis.tail", "total_s"),
        "analysis.lemma_cases": count("analysis.lemma_cases", 0),
        "analysis.lemma_s": span("analysis.lemma", "total_s"),
        "sampling.samples": count("sampling.samples", 0),
        "sampling.draw_s": span("sampling.draw", "total_s"),
        "sampling.draw_bytes": count("sampling.draw_bytes", 0),
        "sampling.reduce_s": span("sampling.estimate", "self_s"),
        "sampling.exact_s": span("sampling.exact", "total_s"),
    }


LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_share": "ratio", "_bytes": "bytes"}


def unit_of(name: str) -> str:
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    scratch = OUT / f"tmp-{workload_name}-{seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        with SpeedProbe() as probe:
            harness = Harness(probe, scratch, started)
            rng = random.Random(seed)
            workload = WORKLOADS[workload_name](rng, scratch)
            return measure(harness, workload, workload_name, seed, seconds, trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(harness: Harness, workload: Workload, name: str, seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally()
    setup_start(harness)  # warm-up: byte-compiles on a fresh checkout, fills the page cache
    setups = [setup_start(harness)]
    rounds: list[dict] = []  # plain rounds
    traced: list[dict] = []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - begin
        plain_turn = not trace or len(rounds) <= len(traced)
        done = len(rounds) >= 1 and (not trace or len(traced) >= 1)
        if done and elapsed + longest > seconds:
            break
        round_start = time.perf_counter()
        setups += [setup_start(harness) for _ in range(SETUPS_PER_ROUND)]
        if plain_turn:
            invs = [tally.run_op(harness, op) for op in workload.ops]
            rounds.append({
                "scaled_s": sum(i.scaled_s for i in invs),
                "raw_s": sum(i.raw_s for i in invs),
                "maxrss_mb": max(i.maxrss_mb for i in invs),
                "ops": [{"args": op.args, "raw_s": i.raw_s, "scaled_s": i.scaled_s, "rc": i.rc} for op, i in zip(workload.ops, invs)],
            })
        else:
            files = [harness.scratch / f"trace-{k}.json" for k in range(len(workload.ops))]
            invs = [tally.run_op(harness, op, f) for op, f in zip(workload.ops, files)]
            layers = layer_metrics([json.loads(f.read_text()) for f in files], [i.factor for i in invs])
            layers.update(import_times(harness))
            traced.append({"scaled_s": sum(i.scaled_s for i in invs), "raw_s": sum(i.raw_s for i in invs), "layers": layers})
        longest = max(longest, time.perf_counter() - round_start)

    setup_s = statistics.median(s.scaled_s for s in setups)
    setup_raw = statistics.median(s.raw_s for s in setups)
    n_ops = len(workload.ops)
    wall = statistics.median(r["scaled_s"] for r in rounds)
    rates = [workload.units / (r["scaled_s"] - n_ops * setup_s) for r in rounds]
    e2e = {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "work_per_s": (statistics.median(rates), "work/s"),
        "peak_rss_mb": (max(r["maxrss_mb"] for r in rounds), "MiB"),
    }
    raw = {
        "wall_s": statistics.median(r["raw_s"] for r in rounds),
        "setup_s": setup_raw,
        "work_per_s": statistics.median(workload.units / (r["raw_s"] - n_ops * setup_raw) for r in rounds),
    }
    if trace:
        layers = {}
        for key in traced[0]["layers"]:
            values = [t["layers"][key] for t in traced]
            if key.endswith("_s"):
                layers[key] = statistics.median(values)
            else:  # counts and ratios must repeat exactly between rounds
                if len(set(values)) != 1:
                    tally.wrong.append(f"{key} differs between traced rounds: {values}")
                layers[key] = values[0]
        layers["trace.overhead_s"] = statistics.median(t["scaled_s"] for t in traced) - wall
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "units_per_round": workload.units, "rounds": rounds, "traced_rounds": traced,
        "setup_scaled_s": [s.scaled_s for s in setups], "setup_raw_s": [s.raw_s for s in setups],
        "raw": raw, "wrong": tally.wrong,
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({"raw": raw, "rounds": len(rounds), "traced_rounds": len(traced)}))
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "giraw" / "cli.py").is_file():
        sys.exit(f"no giraw sources under {SRC}; run from a checkout of the repository")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
