"""Fmax sweep: hand cases, the brute-force oracle, and metric invariants."""

import numpy as np
import pytest

from annotation_oracles import precision_at, recall_at
from eslong.errors import EvaluationError
from eslong.evaluation import GRID, fmax, result_to_json, stratified_eval


def bruteforce_fmax(pred, truth, taus=None):
    """Direct sweep oracle: per tau, recompute everything from set algebra;
    by default sweeps every distinct score value (the change points)."""
    if taus is None:
        taus = sorted({s for terms in pred.values() for s in terms.values()})
    best = 0.0
    for tau in taus:
        m = 0
        pr_total = 0.0
        rc_total = 0.0
        for protein, true_terms in truth.items():
            chosen = {t for t, s in pred.get(protein, {}).items() if s >= tau}
            if chosen:
                m += 1
                pr_total += len(chosen & set(true_terms)) / len(chosen)
            rc_total += len(chosen & set(true_terms)) / len(true_terms)
        if m == 0:
            continue
        pr = pr_total / m
        rc = rc_total / len(truth)
        if pr + rc > 0:
            best = max(best, 2 * pr * rc / (pr + rc))
    return best


def random_instance(rng):
    n_proteins = int(rng.integers(1, 11))
    n_terms = int(rng.integers(1, 9))
    terms = [f"t{j}" for j in range(n_terms)]
    truth = {}
    pred = {}
    for i in range(n_proteins):
        pid = f"P{i}"
        true_set = [t for t in terms if rng.random() < 0.4]
        if not true_set:
            true_set = [terms[int(rng.integers(n_terms))]]
        truth[pid] = {t: 1.0 for t in true_set}
        scored = {
            t: float(rng.integers(1, 100)) / 100.0 for t in terms if rng.random() < 0.6
        }
        if scored:
            pred[pid] = scored
    return pred, truth


TWO_PROTEIN_PRED = {"A": {"t1": 0.9, "t3": 0.8}, "B": {"t2": 0.7}}
TWO_PROTEIN_TRUTH = {"A": {"t1": 1.0, "t2": 1.0}, "B": {"t2": 1.0}}


class TestPrecisionRecall:
    def test_perfect_predictions(self):
        pred = {"A": {"x": 1.0, "y": 1.0}, "B": {"z": 1.0}}
        truth = {"A": {"x": 1.0, "y": 1.0}, "B": {"z": 1.0}}
        pr, m = precision_at(pred, truth, 0.5)
        assert pr == 1.0 and m == 2
        assert recall_at(pred, truth, 0.5) == 1.0

    def test_no_predictions_above_tau(self):
        pr, m = precision_at(TWO_PROTEIN_PRED, TWO_PROTEIN_TRUTH, 0.95)
        assert (pr, m) == (0.0, 0)
        assert recall_at(TWO_PROTEIN_PRED, TWO_PROTEIN_TRUTH, 0.95) == 0.0

    def test_two_protein_hand_case(self):
        pr, m = precision_at(TWO_PROTEIN_PRED, TWO_PROTEIN_TRUTH, 0.7)
        assert m == 2
        assert pr == pytest.approx(0.75)
        assert recall_at(TWO_PROTEIN_PRED, TWO_PROTEIN_TRUTH, 0.7) == pytest.approx(0.75)

    def test_unknown_protein_rejected(self):
        with pytest.raises(EvaluationError):
            precision_at({"ZZ": {"t": 1.0}}, {"A": {"t": 1.0}}, 0.5)

    def test_empty_truth_rejected(self):
        with pytest.raises(EvaluationError):
            recall_at({}, {"A": {}}, 0.5)

    def test_ranges_and_recall_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pred, truth = random_instance(rng)
            last_rc = 1.1
            for tau in np.linspace(0.01, 1.0, 25):
                pr, _ = precision_at(pred, truth, float(tau))
                rc = recall_at(pred, truth, float(tau))
                assert 0.0 <= pr <= 1.0
                assert 0.0 <= rc <= 1.0
                assert rc <= last_rc + 1e-12
                last_rc = rc


class TestFmax:
    def test_perfect_predictions_fmax_one(self):
        truth = {"A": {"x": 1.0, "y": 1.0}, "B": {"z": 1.0}}
        pred = {"A": {"x": 1.0, "y": 1.0}, "B": {"z": 1.0}}
        result = fmax(pred, truth)
        assert result.fmax == 1.0
        assert result.tau_star == 0.01

    def test_all_zero_scores(self):
        truth = {"A": {"x": 1.0}}
        pred = {"A": {"x": 0.0}}
        result = fmax(pred, truth)
        assert result.fmax == 0.0
        assert result.curve == ()

    def test_two_protein_hand_case(self):
        result = fmax(TWO_PROTEIN_PRED, TWO_PROTEIN_TRUTH)
        assert result.fmax == pytest.approx(0.75)
        assert result.tau_star == 0.01
        by_tau = {p.tau: p for p in result.curve}
        assert by_tau[0.70].f == pytest.approx(0.75)
        assert by_tau[0.70].m == 2
        # above 0.7 protein B drops out of the precision average
        assert by_tau[0.71].m == 1

    def test_matches_bruteforce_oracle_on_grid_scores(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pred, truth = random_instance(rng)
            result = fmax(pred, truth)
            assert result.fmax == pytest.approx(bruteforce_fmax(pred, truth), abs=1e-12)

    def test_curve_f_consistent_with_fmax(self):
        rng = np.random.default_rng(2)
        pred, truth = random_instance(rng)
        result = fmax(pred, truth)
        if result.curve:
            assert result.fmax == pytest.approx(max(p.f for p in result.curve))

    def test_monotone_transform_invariance(self):
        # squaring scores preserves order, so the sweep outcome depends only on
        # that order: refining the grid to the squares of the original grid
        # points reproduces the exact same prediction sets
        rng = np.random.default_rng(3)
        refined = tuple(g * g for g in GRID)
        for _ in range(25):
            pred, truth = random_instance(rng)
            squared = {
                p: {t: s * s for t, s in terms.items()} for p, terms in pred.items()
            }
            # order-only dependence, checked on the change-point oracle
            assert bruteforce_fmax(pred, truth) == pytest.approx(
                bruteforce_fmax(squared, truth), abs=1e-12
            )
            base = fmax(pred, truth).fmax
            transformed = fmax(squared, truth, grid=refined).fmax
            assert base == pytest.approx(transformed, abs=1e-12)

    def test_fmax_one_iff_exact_reproduction(self):
        truth = {"A": {"x": 1.0, "y": 1.0}}
        exact = {"A": {"x": 0.8, "y": 0.8}}
        assert fmax(exact, truth).fmax == pytest.approx(1.0)
        extra = {"A": {"x": 0.8, "y": 0.8, "z": 0.8}}
        assert fmax(extra, truth).fmax < 1.0
        missing = {"A": {"x": 0.8}}
        assert fmax(missing, truth).fmax < 1.0

    def test_tau_star_smallest_maximizer(self):
        truth = {"A": {"x": 1.0}}
        pred = {"A": {"x": 0.42}}
        result = fmax(pred, truth)
        assert result.fmax == pytest.approx(1.0)
        assert result.tau_star == 0.01

    def test_exclude_terms(self):
        truth = {"A": {"x": 1.0, "root": 1.0}}
        pred = {"A": {"root": 0.9}}
        with_root = fmax(pred, truth)
        without_root = fmax(pred, truth, exclude_terms={"root"})
        assert with_root.fmax > 0.0
        assert without_root.fmax == 0.0

    def test_empty_protein_set_rejected(self):
        with pytest.raises(EvaluationError):
            fmax({}, {})

    def test_grid_is_100_points(self):
        assert len(GRID) == 100
        assert GRID[0] == 0.01 and GRID[-1] == 1.0

    def test_report_shape(self):
        result = fmax(TWO_PROTEIN_PRED, TWO_PROTEIN_TRUTH, namespace="BPO")
        data = result_to_json(result)
        assert data["namespace"] == "BPO"
        assert data["n"] == 2
        assert {"tau", "pr", "rc", "f", "m"} <= set(data["curve"][0])


class TestStratified:
    LENGTHS = {"A": 2000, "B": 500}

    def test_min_len_zero_matches_unrestricted(self):
        full = fmax(TWO_PROTEIN_PRED, TWO_PROTEIN_TRUTH)
        strat = stratified_eval(TWO_PROTEIN_PRED, TWO_PROTEIN_TRUTH, self.LENGTHS, 0)
        assert strat.fmax == pytest.approx(full.fmax)
        assert strat.n == full.n

    def test_empty_stratum_rejected(self):
        with pytest.raises(EvaluationError, match="stratum"):
            stratified_eval(TWO_PROTEIN_PRED, TWO_PROTEIN_TRUTH, self.LENGTHS, 5000)

    def test_missing_length_rejected(self):
        with pytest.raises(EvaluationError, match="length"):
            stratified_eval(TWO_PROTEIN_PRED, TWO_PROTEIN_TRUTH, {"A": 10}, 5)

    def test_subset_recomputation_oracle(self):
        rng = np.random.default_rng(4)
        pred, truth = random_instance(rng)
        lengths = {p: int(rng.integers(50, 3000)) for p in truth}
        min_len = 1024
        keep = {p for p in truth if lengths[p] > min_len}
        if not keep:
            lengths[next(iter(truth))] = 2000
            keep = {p for p in truth if lengths[p] > min_len}
        sub_pred = {p: t for p, t in pred.items() if p in keep}
        sub_truth = {p: t for p, t in truth.items() if p in keep}
        expected = fmax(sub_pred, sub_truth)
        got = stratified_eval(pred, truth, lengths, min_len)
        assert got.fmax == pytest.approx(expected.fmax)
        assert got.n == len(keep)
