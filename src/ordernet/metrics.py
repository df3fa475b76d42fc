"""Order-comparison metrics: pairwise, subsequence ratio, exact match.

All scores compare a predicted sequence of sentence identifiers against the
gold sequence.  Precision divides by the prediction's own count, recall by
the gold's, so P and R differ only when the two lengths differ.  Empty
predictions score zero precision by convention, and F is 0 whenever P+R is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyInputError


@dataclass(frozen=True)
class PRF:
    p: float
    r: float
    f: float


def _f_score(p, r):
    return 2.0 * p * r / (p + r) if p + r else 0.0


def _pair_count(k):
    return k * (k - 1) // 2


def lcs_length(a, b):
    """Length of the longest common subsequence (classic DP table)."""
    a, b = list(a), list(b)
    rows = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                rows[i][j] = rows[i - 1][j - 1] + 1
            else:
                rows[i][j] = max(rows[i - 1][j], rows[i][j - 1])
    return rows[len(a)][len(b)]


def pm_scores(pred, gold):
    """Pairwise order scores.

    The denominators are the skip-bigram pair counts of each sequence,
    C(len, 2); the numerator is the number of pairs lying on a single longest
    correctly ordered subsequence, C(L, 2) with L the longest common
    subsequence length.  A prediction equal to gold therefore scores 1.0, and
    an empty prediction scores 0.0 precision.
    """
    pred, gold = list(pred), list(gold)
    return _pm_of(lcs_length(pred, gold), len(pred), len(gold))


def lsr_scores(pred, gold):
    """Longest-shared-subsequence ratio scores."""
    pred, gold = list(pred), list(gold)
    return _lsr_of(lcs_length(pred, gold), len(pred), len(gold))


def _pm_of(lcs, pred_len, gold_len):
    """pm_scores from the LCS length and the two sequence lengths."""
    common = _pair_count(lcs)
    pred_pairs = _pair_count(pred_len)
    gold_pairs = _pair_count(gold_len)
    p = common / pred_pairs if pred_pairs else 0.0
    r = common / gold_pairs if gold_pairs else 0.0
    return PRF(p, r, _f_score(p, r))


def _lsr_of(lcs, pred_len, gold_len):
    """lsr_scores from the LCS length and the two sequence lengths."""
    p = lcs / pred_len if pred_len else 0.0
    r = lcs / gold_len if gold_len else 0.0
    return PRF(p, r, _f_score(p, r))


def pmr(pred, gold):
    """Exact-match indicator: 1.0 when the sequences are identical."""
    return 1.0 if list(pred) == list(gold) else 0.0


def head_tail(pred, gold):
    """(head hit, tail hit) indicators; an empty prediction misses both."""
    pred, gold = list(pred), list(gold)
    if not pred or not gold:
        return 0.0, 0.0
    return (
        1.0 if pred[0] == gold[0] else 0.0,
        1.0 if pred[-1] == gold[-1] else 0.0,
    )


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate over a collection of texts.

    P and R are macro-averaged across texts first; each F is then taken of
    the averaged P and R, not averaged per text.
    """

    pm: PRF
    lsr: PRF
    pmr: float
    head: float
    tail: float
    count: int

    def to_dict(self):
        return {
            "count": self.count,
            "pm_p": self.pm.p, "pm_r": self.pm.r, "pm_f": self.pm.f,
            "lsr_p": self.lsr.p, "lsr_r": self.lsr.r, "lsr_f": self.lsr.f,
            "pmr": self.pmr,
            "head": self.head,
            "tail": self.tail,
        }

    def to_flat_text(self):
        return "".join(f"{k}={v}\n" for k, v in self.to_dict().items())


def aggregate(pairs):
    """MetricsReport over (pred, gold) sequence pairs."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyInputError("cannot aggregate zero texts")
    n = len(pairs)
    pm_p = pm_r = lsr_p = lsr_r = exact = head = tail = 0.0
    for pred, gold in pairs:
        pred, gold = list(pred), list(gold)
        lcs = lcs_length(pred, gold)
        s = _pm_of(lcs, len(pred), len(gold))
        pm_p += s.p
        pm_r += s.r
        s = _lsr_of(lcs, len(pred), len(gold))
        lsr_p += s.p
        lsr_r += s.r
        exact += pmr(pred, gold)
        h, t = head_tail(pred, gold)
        head += h
        tail += t
    pm_p, pm_r, lsr_p, lsr_r = pm_p / n, pm_r / n, lsr_p / n, lsr_r / n
    return MetricsReport(
        pm=PRF(pm_p, pm_r, _f_score(pm_p, pm_r)),
        lsr=PRF(lsr_p, lsr_r, _f_score(lsr_p, lsr_r)),
        pmr=exact / n,
        head=head / n,
        tail=tail / n,
        count=n,
    )
