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

# 32-bit generator words a draw reads at once: the steps of WORD_BLOCK // (n - 1)
# walks (at least one walk), 256 KiB of raw outputs whatever the walk count.
# The seeded stream does not depend on it either.
WORD_BLOCK = 1 << 16


def _words(raw: np.ndarray) -> np.ndarray:
    """The 32-bit words of raw 64-bit generator outputs, each output's low word first.

    As '<u8' the outputs are little-endian on any host (a byte swap on a
    big-endian one, no copy on a little-endian one), so the '<u4' view reads
    low before high.
    """
    return np.asarray(raw, dtype="<u8").view("<u4")


def _fill_draws(bitgen, s: int, out: np.ndarray) -> None:
    """Fill the int8 vector out with the values Generator.integers(0, s) draws next.

    For an int64 result below 2^32, integers reads one next_uint32 word x a
    value and returns floor(s x / 2^32) (Lemire's bounded draw), rejecting x
    when s x mod 2^32 < 2^32 mod s: no word for s = 2, and x = 0 alone for
    s = 3. So the value is the number of thresholds ceil(j 2^32 / s),
    0 < j < s, that x reaches. PCG64's next_uint32 returns a raw output's
    low word and keeps the high one in the state's uinteger for the next
    call; this reads the same words from random_raw and carries a word left
    over through that state, so bitgen ends where integers would leave it.
    """
    need = len(out)
    if need == 0:
        return
    assert s in (2, 3), s
    first, *rest = (-(-(j << 32) // s) for j in range(1, s))
    state = bitgen.state
    words = np.array([state["uinteger"]] if state["has_uint32"] else [], dtype=np.uint32)
    pos, high = 0, None
    while True:
        room = need - pos
        if s == 3 and not words.all():
            # room draws read at most room + 1 words, so with a zero among
            # them at most room are kept; the zeros are skipped, and only a
            # word after the room-th kept one stays for the next call
            kept = np.flatnonzero(words)
            end = kept[-1] + 1 if len(kept) == room else len(words)
            words, left = words[kept], words[end:]
        else:
            words, left = words[:room], words[room:]
        dst = out[pos : pos + len(words)]
        np.greater_equal(words, first, out=dst.view(np.bool_))
        for t in rest:
            dst += (words >= t).view(np.int8)
        pos += len(words)
        if pos == need:
            break
        words = _words(bitgen.random_raw((need - pos + 1) // 2))
        high = words[-1]
    # like next_uint32, keep the last output's high word, pending if left over
    state = bitgen.state
    state["has_uint32"] = len(left)  # at most one word, the high one
    if high is not None:
        state["uinteger"] = int(high)
    bitgen.state = state


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
        self._children = np.array([v for v, _ in self._order[1:]], dtype=np.intp)

    def sample_labels(self, count: int) -> np.ndarray:
        """(count, n) matrix of labels; each row is one uniform walk, root label 0.

        The labels are built vertex-major, one contiguous row of count walks
        per vertex, and returned transposed; the dtype is self.dtype.
        """
        n = self.tree.n
        s = self.model.steps_per_edge
        # draw d steps by lo + span * d: 2d - 1 standard, d - 1 lazy
        lo, hi = self.model.steps[0], self.model.steps[-1]
        labels = np.empty((n, count), dtype=self.dtype)
        # the draws of self._rng.integers(0, s, size=(count, n - 1)), read
        # walk-major a block of walks at a time; each vertex's row takes its
        # edge's steps
        walks = max(1, WORD_BLOCK // max(1, n - 1))
        block = np.empty((min(walks, count), n - 1), dtype=np.int8)
        for start in range(0, count, walks):
            steps = block[: count - start]
            _fill_draws(self._rng.bit_generator, s, steps.reshape(-1))
            steps *= (hi - lo) // (s - 1)
            steps += lo
            labels[self._children, start : start + len(steps)] = steps.T
        labels[self.tree.root] = 0
        # then adds its parent's labels, which preorder has finished
        for v, parent in self._order[1:]:
            labels[v] += labels[parent]
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
