"""Tests for the order-comparison metrics and their aggregation."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import brute_lcs_length

from ordernet.errors import EmptyInputError
from ordernet.metrics import (
    PRF,
    MetricsReport,
    aggregate,
    head_tail,
    lcs_length,
    lsr_scores,
    pm_scores,
    pmr,
)


# ---------------------------------------------------------------------------
# longest common subsequence
# ---------------------------------------------------------------------------


def test_lcs_against_brute_force_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = list(rng.integers(0, 6, size=rng.integers(0, 9)))
        b = list(rng.integers(0, 6, size=rng.integers(0, 9)))
        assert lcs_length(a, b) == brute_lcs_length(a, b)


def test_lcs_known_cases():
    assert lcs_length([], [1, 2]) == 0
    assert lcs_length([1, 2, 3], [1, 2, 3]) == 3
    assert lcs_length([3, 2, 1], [1, 2, 3]) == 1
    assert lcs_length([2, 3, 1, 4], [1, 3, 4]) == 2


# ---------------------------------------------------------------------------
# pairwise metric
# ---------------------------------------------------------------------------


def test_pm_worked_example_is_exact():
    s = pm_scores((2, 3, 1, 4), (1, 3, 4))
    assert s.p == float(Fraction(1, 6))
    assert s.r == float(Fraction(1, 3))
    assert abs(s.f - float(Fraction(2, 9))) <= 1e-12


def test_pm_matches_pair_count_oracle():
    # Independent recomputation: numerator C(L, 2) from the brute-force LCS,
    # denominators the sequences' own pair counts.
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        gold = list(rng.permutation(n))
        k = int(rng.integers(0, n + 1))
        pred = list(rng.permutation(n)[:k])
        L = brute_lcs_length(pred, gold)
        want_p = (L * (L - 1) / 2) / (k * (k - 1) / 2) if k >= 2 else 0.0
        want_r = (L * (L - 1) / 2) / (n * (n - 1) / 2) if n >= 2 else 0.0
        s = pm_scores(pred, gold)
        assert s.p == pytest.approx(want_p, abs=1e-15)
        assert s.r == pytest.approx(want_r, abs=1e-15)


def test_pm_identity_and_reversal():
    s = pm_scores((0, 1, 2, 3), (0, 1, 2, 3))
    assert (s.p, s.r, s.f) == (1.0, 1.0, 1.0)
    s = pm_scores((3, 2, 1, 0), (0, 1, 2, 3))
    assert (s.p, s.r, s.f) == (0.0, 0.0, 0.0)


def test_pm_empty_prediction_scores_zero():
    s = pm_scores((), (0, 1, 2))
    assert (s.p, s.r, s.f) == (0.0, 0.0, 0.0)


def test_pm_precision_equals_recall_iff_lengths_match():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        gold = list(rng.permutation(n))
        k = int(rng.integers(1, n + 1))
        pred = list(rng.permutation(n)[:k])
        s = pm_scores(pred, gold)
        if len(pred) == len(gold):
            assert s.p == s.r
        elif s.p > 0.0:
            # A nonzero numerator over different denominators must differ.
            assert s.p != s.r


# ---------------------------------------------------------------------------
# subsequence ratio, exact match, boundaries
# ---------------------------------------------------------------------------


def test_lsr_worked_example_and_identity():
    s = lsr_scores((2, 3, 1, 4), (1, 3, 4))
    assert s.p == float(Fraction(2, 4))
    assert s.r == float(Fraction(2, 3))
    s = lsr_scores((5, 6), (5, 6))
    assert (s.p, s.r, s.f) == (1.0, 1.0, 1.0)


def test_lsr_matches_brute_force_ratio():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        gold = list(rng.permutation(n))
        k = int(rng.integers(1, n + 1))
        pred = list(rng.permutation(n)[:k])
        L = brute_lcs_length(pred, gold)
        s = lsr_scores(pred, gold)
        assert s.p == pytest.approx(L / k, abs=1e-15)
        assert s.r == pytest.approx(L / n, abs=1e-15)


def test_pmr_is_an_exact_match_indicator():
    assert pmr((0, 1, 2), (0, 1, 2)) == 1.0
    assert pmr((0, 2, 1), (0, 1, 2)) == 0.0
    assert pmr((0, 1), (0, 1, 2)) == 0.0
    assert pmr([], []) == 1.0


def test_head_tail_indicators():
    assert head_tail((0, 1, 2), (0, 9, 2)) == (1.0, 1.0)
    assert head_tail((1, 0), (0, 1)) == (0.0, 0.0)
    assert head_tail((7,), (7,)) == (1.0, 1.0)
    assert head_tail((), (0, 1)) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_macro_averages_then_takes_f():
    pairs = [((0, 1), (0, 1, 2)), ((0, 1, 2), (0, 1, 2))]
    report = aggregate(pairs)
    s1, s2 = pm_scores(*pairs[0]), pm_scores(*pairs[1])
    p = (s1.p + s2.p) / 2
    r = (s1.r + s2.r) / 2
    assert report.pm.p == pytest.approx(p, abs=1e-15)
    assert report.pm.r == pytest.approx(r, abs=1e-15)
    # F comes from the averaged P and R, not from averaging the two F values:
    # here 0.8 rather than the per-text mean 0.75.
    assert report.pm.f == pytest.approx(2 * p * r / (p + r), abs=1e-15)
    assert report.pm.f == pytest.approx(0.8, abs=1e-12)
    assert (s1.f + s2.f) / 2 == pytest.approx(0.75, abs=1e-12)
    assert report.pmr == 0.5
    assert report.count == 2


def test_aggregate_equals_the_report_built_from_the_public_scores():
    # aggregate computes each pair's LCS once for both scores; the report
    # must equal the one summed from pm_scores and lsr_scores, bit for bit.
    rng = np.random.default_rng(7)
    for trial in range(40):
        pairs = []
        for _ in range(int(rng.integers(1, 9))):
            gold = [int(g) for g in rng.permutation(int(rng.integers(1, 8)))]
            kept = int(rng.integers(0, len(gold) + 1))
            pairs.append((tuple(int(p) for p in rng.permutation(len(gold))[:kept]), gold))
        n = len(pairs)
        pm = [pm_scores(pred, gold) for pred, gold in pairs]
        lsr = [lsr_scores(pred, gold) for pred, gold in pairs]
        pm_p, pm_r = sum(s.p for s in pm) / n, sum(s.r for s in pm) / n
        lsr_p, lsr_r = sum(s.p for s in lsr) / n, sum(s.r for s in lsr) / n

        def f(p, r):
            return 2.0 * p * r / (p + r) if p + r else 0.0

        ends = [head_tail(pred, gold) for pred, gold in pairs]
        want = MetricsReport(
            pm=PRF(pm_p, pm_r, f(pm_p, pm_r)), lsr=PRF(lsr_p, lsr_r, f(lsr_p, lsr_r)),
            pmr=sum(pmr(pred, gold) for pred, gold in pairs) / n,
            head=sum(h for h, _ in ends) / n, tail=sum(t for _, t in ends) / n, count=n)
        assert aggregate(pairs) == want, trial


def test_aggregate_report_round_trips_to_dict_and_text():
    report = aggregate([((0, 1), (0, 1))])
    d = report.to_dict()
    assert d["pm_f"] == 1.0 and d["count"] == 1
    text = report.to_flat_text()
    assert "pmr=1.0\n" in text and text.count("\n") == len(d)


def test_aggregate_rejects_empty_input():
    with pytest.raises(EmptyInputError):
        aggregate([])
