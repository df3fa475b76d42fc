"""Output checks, run outside the timed region.

Every check compares the program against an independent computation:
decoded log-probabilities, greedy choices and gradients against the
flat-numpy reference in reference.py, the structure of orders and beams
against their definitions, and the reported perfect-match rate against a
count over the decoded orders.  Each function returns a list of failure
messages, empty when the output is correct.
"""

import numpy as np

from ordernet import autodiff, decoding, metrics, model

LOG_PROB_TOLERANCE = 1e-9
GRADIENT_TOLERANCE = 1e-4
FD_STEP = 1e-5
# Central differences at step 1e-5 carry an absolute error near 1e-10, so
# only coordinates whose gradient is well above it are compared.
MIN_GRADIENT = 1e-5
TIE_TOLERANCE = 1e-12


def _target(order, instance):
    target = list(order.positions)
    return target + [instance.n_inputs] if instance.has_stop else target


def check_order(ref, instance, order, greedy):
    """Structure and log-probability of one decoded order."""
    n, positions = instance.n_inputs, list(order.positions)
    problems = []
    if any(not 0 <= p < n for p in positions) or len(set(positions)) != len(positions):
        return [f"{instance.doc_id}: positions {positions} repeat or leave 0..{n - 1}"]
    if instance.has_stop:
        if not order.stopped:
            problems.append(f"{instance.doc_id}: variable-length order is not stopped")
        gold = instance.gold_positions
        if len(positions) == len(gold):
            pm, lsr = metrics.pm_scores(positions, gold), metrics.lsr_scores(positions, gold)
            if pm.p != pm.r or lsr.p != lsr.r:
                problems.append(f"{instance.doc_id}: P != R at gold length")
    elif sorted(positions) != list(range(n)) or order.stopped:
        problems.append(f"{instance.doc_id}: fixed-length order {positions} is not a permutation")

    target = _target(order, instance)
    steps = ref.log_probs_along(instance.inputs, target)
    expected = float(sum(lp[t] for lp, t in zip(steps, target)))
    if not abs(expected - order.log_prob) <= LOG_PROB_TOLERANCE:
        problems.append(f"{instance.doc_id}: log_prob {order.log_prob!r} != reference {expected!r}")
    if greedy:
        # A stop that follows the last position is forced, not chosen.
        chosen = target if len(positions) < n else positions
        for k, (lp, t) in enumerate(zip(steps, chosen)):
            best = int(np.argmax(lp))
            if t != best and lp[best] - lp[t] > TIE_TOLERANCE:
                problems.append(f"{instance.doc_id}: step {k + 1} chose {t}, reference argmax {best}")
    return problems


def check_beam(ref, instance, best, beam, beam_size):
    """Every candidate of a finished beam, and the beam's order."""
    problems = []
    if not 1 <= len(beam) <= beam_size or best != beam[0]:
        problems.append(f"{instance.doc_id}: beam of {len(beam)} does not start with the best order")
    keys = [(-o.log_prob, tuple(_target(o, instance))) for o in beam]
    if any(a > b for a, b in zip(keys, keys[1:])):
        problems.append(f"{instance.doc_id}: beam is not sorted by (-log p, key)")
    for order in beam:
        problems += check_order(ref, instance, order, greedy=False)
    return problems


def check_report(report, instances, orders):
    """The evaluate report against a direct count over the decoded orders."""
    hits = sum(1.0 for inst, o in zip(instances, orders)
               if list(o.positions) == inst.gold_positions)
    if report.count != len(instances) or abs(report.pmr - hits / len(instances)) > 1e-12:
        return [f"report pmr {report.pmr!r} over {report.count} != {hits}/{len(instances)}"]
    return []


def check_beam_one_is_greedy(params, instance):
    greedy = decoding.greedy_decode(instance.inputs, params, instance.has_stop)
    best, _ = decoding.beam_decode(instance.inputs, params, 1, instance.has_stop)
    if best.positions != greedy.positions or abs(best.log_prob - greedy.log_prob) > 1e-12:
        return [f"{instance.doc_id}: beam(1) {best} != greedy {greedy}"]
    return []


def check_finite(params):
    bad = [p.name for p in params.all_params() if not np.all(np.isfinite(p.value))]
    return [f"non-finite parameters {bad}"] if bad else []


def check_gradient(ref, params, instance, rng, per_param=2):
    """Graph.backward of sequence_log_prob against central differences.

    The differences are taken of the reference forward, on `per_param`
    coordinates of every parameter drawn by `rng`.
    """
    all_params = params.all_params()
    saved = [p.grad.copy() for p in all_params]
    for p in all_params:
        p.zero_grad()
    graph = autodiff.Graph()
    graph.backward(model.sequence_log_prob(graph, instance.inputs, instance.target, params))
    analytic = {p.name: p.grad.copy() for p in all_params}
    for p, g in zip(all_params, saved):
        p.grad[...] = g

    problems = []
    for name, grad in analytic.items():
        flat_grad = grad.reshape(-1)
        candidates = np.flatnonzero(np.abs(flat_grad) >= MIN_GRADIENT)
        if candidates.size == 0:
            continue
        flat_value = ref.arrays[name].reshape(-1)
        for k in rng.choice(candidates, size=min(per_param, candidates.size), replace=False):
            original = flat_value[k]
            flat_value[k] = original + FD_STEP
            plus = ref.sequence_log_prob(instance.inputs, instance.target)
            flat_value[k] = original - FD_STEP
            minus = ref.sequence_log_prob(instance.inputs, instance.target)
            flat_value[k] = original
            numeric = (plus - minus) / (2.0 * FD_STEP)
            error = abs(flat_grad[k] - numeric) / max(abs(flat_grad[k]), abs(numeric), 1e-8)
            if not error <= GRADIENT_TOLERANCE:
                problems.append(f"d log p / d {name}[{k}]: backward {float(flat_grad[k])!r}, "
                                f"central difference {float(numeric)!r}")
    return problems
