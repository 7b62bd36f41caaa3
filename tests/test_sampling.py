import itertools
import sys

import numpy as np
import pytest
from fractions import Fraction

from giraw import sampling, trees
from giraw.counting import WalkModel, range_distribution
from giraw.sampling import (
    WalkSampler,
    _mean_report,
    _per_walk,
    _words,
    estimate_expected_range,
    estimate_pair_distance,
)
from giraw.trees import Tree, make_path, make_spider, make_star, reroot

from fresh import run_python

STANDARD = WalkModel.STANDARD
LAZY = WalkModel.LAZY


def int64_labels(rt, m: WalkModel, draws: np.ndarray) -> np.ndarray:
    """Labels of a (count, n - 1) draw matrix, built in int64 by a plain per-edge loop."""
    steps = np.asarray(m.steps, dtype=np.int64)
    labels = np.zeros((len(draws), rt.n), dtype=np.int64)
    for e, (v, parent) in enumerate(rt.preorder_with_parent()[1:]):
        labels[:, v] = labels[:, parent] + steps[draws[:, e]]
    return labels


def walk_range(x: np.ndarray) -> np.ndarray:
    return x.max(axis=1) - x.min(axis=1)


class FixedDraws:
    """Stands in for a sampler's generator: every walk takes the same draws.

    It is its own bit generator. Its raw outputs carry, low word first, one
    word a draw that integers(0, s) maps to that draw, walk after walk.
    """

    def __init__(self, row: np.ndarray, s: int):
        # the middle of each draw's word interval, never the skipped word 0
        self.words = itertools.cycle((((2 * d + 1) << 32) // (2 * s) for d in row.tolist()))
        self.bit_generator = self
        self.state = {"has_uint32": 0, "uinteger": 0}

    def random_raw(self, size):
        words = [next(self.words) for _ in range(2 * size)]
        return np.array([lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])], dtype=np.uint64)


class RecordedRaw:
    """A generator whose bit generator records the size of each random_raw call."""

    def __init__(self, rng: np.random.Generator):
        self.bit_generator, self.inner, self.sizes = self, rng.bit_generator, []

    @property
    def state(self):
        return self.inner.state

    @state.setter
    def state(self, value):
        self.inner.state = value

    def random_raw(self, size):
        self.sizes.append(size)
        return self.inner.random_raw(size)


# PCG64 steps its 128-bit state N to N M + inc mod 2^128, then outputs
# rotr64(hi ^ lo, hi >> 58) of the new state's halves
PCG64_M = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_state_before(raw: int, has_uint32: int = 0, uinteger: int = 0) -> dict:
    """A PCG64 state whose next raw output is raw, with the given buffered half-word."""
    state = np.random.default_rng(0).bit_generator.state
    hi = 0x9E3779B97F4A7C15
    r = hi >> 58
    x = (raw << r | raw >> (64 - r)) & (2**64 - 1)  # rotl64, so rotr64 gives raw back
    after = hi << 64 | (hi ^ x)  # raw = 0 gives equal halves
    inc = state["state"]["inc"]
    state["state"]["state"] = (after - inc) * pow(PCG64_M, -1, 2**128) % 2**128
    state.update(has_uint32=has_uint32, uinteger=uinteger)
    return state


class TestSampleWalk:
    def test_single_edge_values(self):
        labels = WalkSampler(make_path(1), STANDARD, seed=7).sample_labels(200)
        assert {tuple(row) for row in labels.tolist()} == {(0, 1), (0, -1)}

    def test_root_label_zero_and_steps_valid(self):
        rt = make_spider([3, 2, 2])
        for m in STANDARD, LAZY:
            labels = WalkSampler(rt, m, seed=11).sample_labels(100)
            assert (labels[:, rt.root] == 0).all()
            for u, v in rt.tree.edges:
                steps = set(np.abs(labels[:, u] - labels[:, v]).tolist())
                assert steps <= {abs(d) for d in m.steps}
                if m is STANDARD:
                    assert steps == {1}

    def test_deterministic_for_seed(self):
        rt = make_star(4)
        s1 = WalkSampler(rt, LAZY, seed=3)
        s2 = WalkSampler(rt, LAZY, seed=3)
        first = s1.sample_labels(50)
        assert np.array_equal(first, s2.sample_labels(50))
        assert np.array_equal(s1.sample_labels(7), s2.sample_labels(7))  # the streams go on alike
        assert not np.array_equal(first, WalkSampler(rt, LAZY, seed=4).sample_labels(50))

    def test_single_edge_balance(self):
        sampler = WalkSampler(make_path(1), STANDARD, seed=5)
        labels = sampler.sample_labels(20000)
        ups = int((labels[:, 1] == 1).sum())
        assert abs(ups - 10000) < 500  # ~3.5 sigma

    def test_star_tail_frequency(self):
        # P(Range >= 2) for the 4-vertex star, standard model, is 6/8
        rt = make_star(3)
        sampler = WalkSampler(rt, STANDARD, seed=42)
        labels = sampler.sample_labels(100_000)
        ranges = labels.max(axis=1) - labels.min(axis=1)
        phat = float((ranges >= 2).mean())
        exact = float(range_distribution(rt.tree, STANDARD).tail(2))
        se = (exact * (1 - exact) / len(ranges)) ** 0.5
        assert abs(phat - exact) <= 3 * se


class TestNarrowLabels:
    # int8 holds -128..127 and int16 -32,768..32,767: n = 127 and 128 are
    # the last int8 trees, 129 and 130 the first int16 ones
    @pytest.mark.parametrize("m", [STANDARD, LAZY])
    @pytest.mark.parametrize("make", [make_path, make_star])
    @pytest.mark.parametrize("n", [127, 128, 129, 130])
    def test_labels_equal_the_int64_loop(self, monkeypatch, n, make, m):
        rt = reroot(make(n - 1).tree, 5)
        draws = np.random.default_rng(9).integers(0, m.steps_per_edge, size=(300, n - 1))
        want = int64_labels(rt, m, draws)
        labels = WalkSampler(rt, m, seed=9).sample_labels(300)
        assert labels.dtype == (np.int8 if n <= 128 else np.int16)
        info = np.iinfo(labels.dtype)
        assert info.min <= -(n - 1) and n - 1 <= info.max
        assert np.array_equal(labels, want)

        monkeypatch.setattr(sampling, "SAMPLE_LABELS", 7 * n)  # 7 walks a draw
        ranges = _per_walk(WalkSampler(rt, m, seed=9), 300, walk_range)
        assert np.array_equal(ranges, walk_range(want))
        diffs = _per_walk(WalkSampler(rt, m, seed=9), 300, lambda x: np.abs(x[:, 5] - x[:, 0]))
        assert np.array_equal(diffs, np.abs(want[:, 5] - want[:, 0]))

    @pytest.mark.parametrize("m", [STANDARD, LAZY])
    @pytest.mark.parametrize("n", [127, 128, 129, 130])
    def test_extreme_walks_fit_the_dtype(self, n, m):
        # seeded walks stay near 0; here every edge steps away from the root 5,
        # down towards vertex 0 and up towards n - 1, so the range and
        # |f(0) - f(n - 1)| reach the diameter n - 1
        rt = reroot(make_path(n - 1).tree, 5)
        top = m.steps_per_edge - 1
        row = np.array([top if v > parent else 0 for v, parent in rt.preorder_with_parent()[1:]])
        sampler = WalkSampler(rt, m, seed=0)
        sampler._rng = FixedDraws(row, m.steps_per_edge)
        labels = sampler.sample_labels(2)
        assert np.array_equal(labels, int64_labels(rt, m, np.tile(row, (2, 1))))
        assert walk_range(labels).tolist() == [n - 1] * 2
        assert np.abs(labels[:, 0] - labels[:, n - 1]).tolist() == [n - 1] * 2


class TestRawWords:
    """The draws are read from PCG64's raw words, the stream integers(0, s) maps."""

    @pytest.mark.parametrize("word_block", [sampling.WORD_BLOCK, 5])
    @pytest.mark.parametrize("m", [STANDARD, LAZY])
    @pytest.mark.parametrize(
        "rt", [make_path(1), make_path(4), make_path(5), make_star(6), make_spider([3, 2, 2])]
    )
    def test_draws_equal_integers(self, monkeypatch, rt, m, word_block):
        # n - 1 is odd or even, and so is a draw's word count: an odd one
        # leaves a half-word buffered for the next draw, which reads it first
        monkeypatch.setattr(sampling, "WORD_BLOCK", word_block)
        s = m.steps_per_edge
        for seed in 0, 1, 2:
            sampler, oracle = WalkSampler(rt, m, seed), np.random.default_rng(seed)
            for count in 1, 3, 1, 250, 7:
                want = int64_labels(rt, m, oracle.integers(0, s, size=(count, rt.n - 1)))
                assert np.array_equal(sampler.sample_labels(count), want)
                assert sampler._rng.bit_generator.state == oracle.bit_generator.state
            # the generator goes on as the oracle's does, whatever it draws next
            assert np.array_equal(sampler._rng.integers(0, 7, size=9), oracle.integers(0, 7, size=9))
            assert np.array_equal(sampler._rng.integers(0, s, size=5), oracle.integers(0, s, size=5))

    def test_words_are_read_low_word_first_on_either_byte_order(self):
        raw = np.random.default_rng(3).bit_generator.random_raw(5)
        want = np.ravel(np.column_stack([raw & 0xFFFFFFFF, raw >> 32]))
        assert np.array_equal(_words(raw), want)
        assert np.array_equal(_words(raw.astype(">u8")), want)  # as a big-endian host holds it

    @pytest.mark.parametrize("buffered", [0, 1])
    @pytest.mark.parametrize("rt", [make_path(1), make_path(2), make_path(5)])
    def test_lazy_skips_a_zero_word_as_integers_does(self, rt, buffered):
        # the next raw output is 0: both its words are rejected in the lazy
        # model, and read as step index 0 in the standard one
        for m in STANDARD, LAZY:
            state = pcg64_state_before(0, buffered, 4_000_000_000)
            probe = np.random.default_rng()
            probe.bit_generator.state = state
            assert probe.bit_generator.random_raw() == 0
            sampler, oracle = WalkSampler(rt, m, seed=0), np.random.default_rng()
            sampler._rng.bit_generator.state = oracle.bit_generator.state = state
            for count in 1, 1, 2, 3:
                want = int64_labels(rt, m, oracle.integers(0, m.steps_per_edge, size=(count, rt.n - 1)))
                assert np.array_equal(sampler.sample_labels(count), want)
                assert sampler._rng.bit_generator.state == oracle.bit_generator.state

    def test_a_left_over_zero_word_stays_buffered(self):
        # raw output 1: low word 1 is step index 0, high word 0 is left over
        # by a one-word draw, buffered, and skipped by the next lazy draw
        rt = make_path(1)
        sampler, oracle = WalkSampler(rt, LAZY, seed=0), np.random.default_rng()
        sampler._rng.bit_generator.state = oracle.bit_generator.state = pcg64_state_before(1)
        for _ in range(3):
            want = int64_labels(rt, LAZY, oracle.integers(0, 3, size=(1, 1)))
            assert np.array_equal(sampler.sample_labels(1), want)
            assert sampler._rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("m", [STANDARD, LAZY])
    def test_a_draw_reads_at_most_a_word_block_at_once(self, m):
        rt = make_path(39)
        count = sampling.SAMPLE_LABELS // rt.n
        sampler = WalkSampler(rt, m, seed=6)
        sampler._rng = RecordedRaw(sampler._rng)
        labels = sampler.sample_labels(count)
        draws = np.random.default_rng(6).integers(0, m.steps_per_edge, size=(count, rt.n - 1))
        assert np.array_equal(labels, int64_labels(rt, m, draws))
        assert len(sampler._rng.sizes) > 1
        assert max(sampler._rng.sizes) <= sampling.WORD_BLOCK // 2 + 1


# Seeded reports pinned exactly, so a change to the seeded stream, the draw
# layout or the statistics' dtype shows. Every sample count is above
# SAMPLE_LABELS // n, so each report spans draws; path:300 keeps its labels
# in int16.
PINNED_REPORTS = [
    ("range", make_path(39), STANDARD, None, 20_000, 11, 9.03465, 0.020764248760220743),
    ("range", make_path(39), LAZY, None, 20_000, 12, 7.2095, 0.01729408690194682),
    ("pair", make_spider([13, 13, 13]), STANDARD, (5, 30), 20_000, 13, 2.4667, 0.01212835150981028),
    ("pair", make_spider([13, 13, 13]), LAZY, (5, 30), 20_000, 14, 1.93595, 0.010584090939898956),
    ("range", make_spider([13, 13, 13]), LAZY, None, 20_000, 15, 6.895, 0.015012661955860795),
    ("range", make_path(299), STANDARD, None, 3_000, 16, 26.511, 0.15238522120195627),
    ("pair", make_path(299), STANDARD, (0, 299), 3_000, 17, 13.512666666666666, 0.18559419719280068),
    ("pair", make_path(299), LAZY, (0, 299), 3_000, 18, 11.107, 0.1509536404200781),
]


@pytest.mark.parametrize("stat, rt, m, uv, samples, seed, estimate, std_error", PINNED_REPORTS)
def test_seeded_reports_are_pinned(stat, rt, m, uv, samples, seed, estimate, std_error):
    assert samples > sampling.SAMPLE_LABELS // rt.n
    if stat == "range":
        rep = estimate_expected_range(rt.tree, m, samples, seed)
    else:
        rep = estimate_pair_distance(rt.tree, *uv, m, samples, seed)
    assert (rep.estimate, rep.std_error) == (estimate, std_error)


class TestEstimates:
    def test_the_sampler_and_the_exact_value_root_the_tree_once(self, monkeypatch):
        # the sampler at vertex 0, which fixes the seeded stream, and the
        # exact value at the centre, vertex 1
        calls, reroot_at = [], trees.reroot
        monkeypatch.setattr(trees, "reroot", lambda t, r: calls.append(r) or reroot_at(t, r))
        t = Tree(4, ((0, 1), (1, 2), (1, 3)))
        estimate_expected_range(t, STANDARD, 100, seed=0)
        estimate_expected_range(t, LAZY, 100, seed=0)
        assert calls == [0, 1]

    def test_expected_range_exact_values(self):
        rep = estimate_expected_range(make_path(2).tree, STANDARD, 1000, seed=0)
        assert rep.exact == Fraction(3, 2)
        rep = estimate_expected_range(make_path(1).tree, LAZY, 1000, seed=0)
        assert rep.exact == Fraction(2, 3)

    def test_expected_range_converges(self):
        for m in STANDARD, LAZY:
            rep = estimate_expected_range(make_spider([3, 2, 1]).tree, m, 50_000, seed=1)
            assert rep.deviation is not None
            assert rep.deviation <= 5 * rep.std_error

    def test_pair_distance_exact_values(self):
        t = make_path(2).tree
        assert estimate_pair_distance(t, 0, 1, STANDARD, 100, seed=2).exact == 1
        assert estimate_pair_distance(t, 0, 2, STANDARD, 100, seed=2).exact == 1
        assert estimate_pair_distance(t, 0, 2, LAZY, 100, seed=2).exact == Fraction(8, 9)

    def test_pair_distance_converges(self):
        rep = estimate_pair_distance(make_path(5).tree, 0, 5, LAZY, 50_000, seed=3)
        assert rep.deviation <= 5 * rep.std_error

    @pytest.mark.parametrize("m", [STANDARD, LAZY])
    def test_chunked_draws_give_the_one_shot_report(self, monkeypatch, m):
        t = make_spider([3, 2, 2]).tree
        samples = 1000  # not a multiple of the chunk
        monkeypatch.setattr(sampling, "SAMPLE_LABELS", 64 * t.n)  # 64 walks a draw
        labels = WalkSampler(reroot(t, 0), m, seed=5).sample_labels(samples)

        rep = estimate_expected_range(t, m, samples, seed=5)
        ranges = labels.max(axis=1) - labels.min(axis=1)
        assert rep == _mean_report("expected_range", ranges, rep.exact, 5)

        rep = estimate_pair_distance(t, 2, 7, m, samples, seed=5)
        diffs = np.abs(labels[:, 2] - labels[:, 7])
        assert rep == _mean_report("pair_distance", diffs, rep.exact, 5)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
    def test_a_draw_of_a_long_tree_is_bounded_in_labels(self):
        # 10,000 walks of 2,000 labels in one draw would hold 320 MB of
        # labels and steps; draws of SAMPLE_LABELS labels hold about 10 MB
        peak = run_python(
            "from giraw.counting import WalkModel\n"
            "from giraw.sampling import estimate_pair_distance\n"
            "from giraw.trees import make_path\n"
            "estimate_pair_distance(make_path(1999).tree, 0, 10, WalkModel.LAZY, 10_000, seed=5)\n"
            "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM')))\n"
        )
        assert int(peak.split()[1]) < 100 * 1024  # kB

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            estimate_expected_range(make_path(2).tree, STANDARD, 0, seed=0)

    def test_report_json(self):
        rep = estimate_expected_range(make_path(2).tree, STANDARD, 500, seed=8)
        blob = rep.to_json_dict()
        assert blob["seed"] == 8
        assert blob["samples"] == 500
        assert blob["exact"] == "3/2"
        assert blob["deviation"] == rep.deviation

    def test_estimate_ordering_matches_exact_ordering(self):
        # n=8: path vs star; exact expected ranges are well separated
        path, star = make_path(7).tree, make_star(7).tree
        e_path = estimate_expected_range(path, STANDARD, 30_000, seed=4)
        e_star = estimate_expected_range(star, STANDARD, 30_000, seed=4)
        assert float(e_star.exact) < float(e_path.exact)
        assert e_star.estimate < e_path.estimate


class TestUniformity:
    @pytest.mark.parametrize("m", [STANDARD, LAZY])
    def test_chi_square_small_trees(self, m):
        from scipy.stats import chisquare

        base = m.steps_per_edge
        for rt in [make_path(3), make_star(3), make_spider([2, 2])]:
            n = rt.n
            sampler = WalkSampler(rt, m, seed=1234)
            labels = sampler.sample_labels(200_000)
            # encode each walk by its per-edge step indices
            code = np.zeros(len(labels), dtype=np.int64)
            for v, parent in rt.preorder_with_parent()[1:]:
                step = labels[:, v] - labels[:, parent]
                idx = (step + 1) if m is LAZY else (step + 1) // 2
                code = code * base + idx
            observed = np.bincount(code, minlength=base ** (n - 1))
            stat, p = chisquare(observed)
            assert p >= 1e-3
