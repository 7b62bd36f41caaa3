"""Uniform sampling from the walk space of a tree and Monte Carlo estimates.

Because a tree imposes no global constraint, a uniform walk is just an
independent uniform step on every edge, assigned along a root-to-leaf
orientation. Sampling is therefore exact, no rejection or MCMC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counting import (
    WalkModel,
    endpoint_difference_distribution,
    fraction_text,
    range_distribution,
)
from .trees import RootedTree, Tree

# Labels the estimators draw at once: SAMPLE_LABELS // n walks of n labels
# (at least one walk), whatever the sample count. The seeded stream does not
# depend on it.
SAMPLE_LABELS = 40 << 14


class WalkSampler:
    """Seeded stream of uniform walk samples on a rooted tree."""

    def __init__(self, t: RootedTree, m: WalkModel, seed: int):
        self.tree = t
        self.model = m
        # the smallest signed dtype that holds -n, so also +-(n - 1): every
        # label lies within +-depth <= n - 1, and every range or label
        # difference within +-diameter <= n - 1, so int8 up to 128 vertices
        # is exact
        self.dtype = np.min_scalar_type(-t.n)
        self._rng = np.random.default_rng(seed)
        self._order = t.preorder_with_parent()

    def sample_labels(self, count: int) -> np.ndarray:
        """(count, n) matrix of labels; each row is one uniform walk, root label 0.

        The labels are built vertex-major, one contiguous row of count walks
        per vertex, and returned transposed; the dtype is self.dtype.
        """
        n = self.tree.n
        s = self.model.steps_per_edge
        draws = self._rng.integers(0, s, size=(count, n - 1))
        # draw d steps by lo + span * d: 2d - 1 standard, d - 1 lazy
        lo, hi = self.model.steps[0], self.model.steps[-1]
        steps = np.ascontiguousarray(draws.T, dtype=self.dtype)
        steps *= (hi - lo) // (s - 1)
        steps += lo
        labels = np.empty((n, count), dtype=self.dtype)
        labels[self.tree.root] = 0
        for e, (v, parent) in enumerate(self._order[1:]):
            np.add(labels[parent], steps[e], out=labels[v])
        return labels.T


@dataclass(frozen=True)
class EstimateReport:
    statistic: str
    samples: int
    estimate: float
    std_error: float
    exact: Fraction | None
    seed: int

    @property
    def deviation(self) -> float | None:
        if self.exact is None:
            return None
        return abs(self.estimate - float(self.exact))

    def to_json_dict(self) -> dict:
        d = {
            "statistic": self.statistic,
            "samples": self.samples,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "seed": self.seed,
        }
        if self.exact is not None:
            d["exact"] = fraction_text(self.exact)
            d["deviation"] = self.deviation
        return d


def _mean_report(name: str, values: np.ndarray, exact: Fraction | None, seed: int) -> EstimateReport:
    count = len(values)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    return EstimateReport(
        statistic=name, samples=count, estimate=mean, std_error=se, exact=exact, seed=seed
    )


def _per_walk(sampler: WalkSampler, samples: int, stat) -> np.ndarray:
    """stat(labels) of samples walks, drawn SAMPLE_LABELS // n walks at a time.

    The statistics keep the sampler's label dtype, 1 byte a walk up to 128
    vertices; mean and std accumulate in float64 whatever the integer dtype.
    """
    values = np.empty(samples, dtype=sampler.dtype)
    chunk = max(1, SAMPLE_LABELS // sampler.tree.n)
    for start in range(0, samples, chunk):
        stop = min(start + chunk, samples)
        values[start:stop] = stat(sampler.sample_labels(stop - start))
    return values


def estimate_expected_range(
    t: Tree, m: WalkModel, samples: int, seed: int
) -> EstimateReport:
    """Monte Carlo E[Range] with the exact value attached for cross-check."""
    if samples < 1:
        raise ValueError("need at least one sample")
    sampler = WalkSampler(t.rooted, m, seed)  # at vertex 0, which the seeded streams keep
    ranges = _per_walk(sampler, samples, lambda x: x.max(axis=1) - x.min(axis=1))
    exact = range_distribution(t, m).expected_range()
    return _mean_report("expected_range", ranges, exact, seed)


def estimate_pair_distance(
    t: Tree, u: int, v: int, m: WalkModel, samples: int, seed: int
) -> EstimateReport:
    """Monte Carlo E|f(u) - f(v)| with the exact value attached."""
    if samples < 1:
        raise ValueError("need at least one sample")
    sampler = WalkSampler(t.rooted, m, seed)
    diffs = _per_walk(sampler, samples, lambda x: np.abs(x[:, u] - x[:, v]))
    dist = endpoint_difference_distribution(t, u, v, m)
    exact = sum((abs(x) * p for x, p in dist.items()), Fraction(0))
    return _mean_report("pair_distance", diffs, exact, seed)
