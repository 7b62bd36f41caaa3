"""Run one giraw CLI command with spans around the public functions of each layer.

Usage: python3 perfbench/traced_cli.py TRACE_FILE ARGS...

ARGS are passed to the CLI unchanged. When the command ends, whatever its
exit status, TRACE_FILE receives per-span call counts, total and self times
(self time excludes nested spans) and the layer counters as JSON.

`from .counting import ...` binds a function in every module that imports
it, so each wrapper replaces the original under every name that refers to
it in the giraw modules. Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import giraw
import giraw.analysis
import giraw.cli
import giraw.counting
import giraw.sampling
import giraw.trees

MODULES = (giraw, giraw.trees, giraw.counting, giraw.analysis, giraw.sampling, giraw.cli)
LEMMA_CHECKS = (
    "check_spidersums",
    "check_center_monotone",
    "check_difference_monotone",
    "check_summand_comparison",
)
INT64_LIMIT = 2**63


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # [start, time covered by child spans]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.profile_keys: set = set()
        self.dist_keys: set = set()
        self.subtree_keys: set = set()
        self.subtree_ids: dict[tuple, int] = {}  # AHU code of a rooted subtree -> small id

    def _enter(self) -> list[float]:
        frame = [time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[float]) -> None:
        duration = time.perf_counter() - frame[0]
        self.stack.pop()
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; before(*args) sees the arguments, after(result) the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if after is not None:
                after(result)
            return result

        return wrapper

    def generator_span(self, name: str, fn):
        """Wrap a generator function: each resumption is one span, each item counted."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = self._enter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(name, frame)
                self.counters["trees.generated"] += 1
                yield item

        return wrapper

    # -- counters measured where the work happens --------------------------

    def on_profile(self, t, k, m) -> None:
        n = t.n
        self.counters["counting.profile_cells"] += n * (k + 1)
        if (k + 1) * m.steps_per_edge ** (n - 1) < INT64_LIMIT:
            self.counters["counting.int64_safe"] += 1
        key = (t.tree.edges, t.root, k, m)
        if key in self.profile_keys:
            return
        self.profile_keys.add(key)
        # Every rooted subtree's profile at bound k is computed once per
        # distinct call; count how many of those share an isomorphism class.
        codes: dict[int, int] = {}
        for v in t.postorder():
            shape = tuple(sorted(codes[c] for c in t.children[v]))
            codes[v] = self.subtree_ids.setdefault(shape, len(self.subtree_ids))
            self.subtree_keys.add((codes[v], k, m))
        self.counters["counting.subtrees"] += n

    def on_dist(self, t, m) -> None:
        self.dist_keys.add((t.edges, m))

    def on_sample_labels(self, sampler, count) -> None:
        n = sampler.tree.n
        self.counters["sampling.samples"] += count
        # int64 labels (count x n) plus int64 draws (count x (n - 1))
        self.counters["sampling.draw_bytes"] += count * (2 * n - 1) * 8

    def on_lemma(self, result) -> None:
        self.counters["analysis.lemma_cases"] += result.cases_checked

    def on_band(self, name: str):
        def count(*_args, **_kwargs):
            self.counters[name] += 1

        return count

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        c, a, s, t = giraw.counting, giraw.analysis, giraw.sampling, giraw.trees
        replace(t.generate_free_trees, self.generator_span("trees.generate", t.generate_free_trees))
        replace(t.reroot, self.span("trees.reroot", t.reroot))
        t.Tree.diameter = self.span("trees.diameter", t.Tree.diameter)
        replace(c.profile, self.span("counting.profile", c.profile, before=self.on_profile))
        replace(
            c.range_distribution,
            self.span("counting.dist", c.range_distribution, before=self.on_dist),
        )
        for fn in (c.path_profile, c.transfer):
            counter = f"counting.{fn.__name__}_calls"
            replace(fn, self.span("counting.band", fn, before=self.on_band(counter)))
        c.RangeDistribution.tail = self.span("analysis.tail", c.RangeDistribution.tail)
        replace(a.compare_range, self.span("analysis.compare", a.compare_range))
        for name in LEMMA_CHECKS:
            fn = getattr(a, name)
            replace(fn, self.span("analysis.lemma", fn, after=self.on_lemma))
        s.WalkSampler.sample_labels = self.span(
            "sampling.draw", s.WalkSampler.sample_labels, before=self.on_sample_labels
        )
        # The exact cross-checks are counting calls made from the sampler's module.
        s.range_distribution = self.span("sampling.exact", s.range_distribution)
        s.endpoint_difference_distribution = self.span(
            "sampling.exact", s.endpoint_difference_distribution
        )
        for name in ("estimate_expected_range", "estimate_pair_distance"):
            replace(getattr(s, name), self.span("sampling.estimate", getattr(s, name)))
        replace(giraw.cli.emit, self.span("cli.emit", giraw.cli.emit))

    def report(self) -> dict:
        counters = dict(self.counters)
        counters["counting.profile_distinct"] = len(self.profile_keys)
        counters["counting.dist_distinct"] = len(self.dist_keys)
        counters["counting.subtree_classes"] = len(self.subtree_keys)
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total[name],
                    "self_s": self.self_time[name],
                }
                for name in self.calls
            },
            "counters": counters,
        }


def replace(original, wrapper) -> None:
    """Rebind every giraw module-level name that refers to original."""
    for module in MODULES:
        for attr in [k for k, v in vars(module).items() if v is original]:
            setattr(module, attr, wrapper)


def main() -> None:
    trace_file, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        giraw.cli.main.main(args=args, prog_name="giraw")
    finally:
        with open(trace_file, "w") as f:
            json.dump(tracer.report(), f)


if __name__ == "__main__":
    main()
