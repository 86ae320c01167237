"""Protein-centric Fmax: threshold sweep over the harmonic mean of precision
and recall.

At threshold tau, a protein's predicted set P(tau) holds every term scored at
or above tau. Precision averages |P∩T|/|P| over the m(tau) proteins with a
nonempty P(tau); recall averages |P∩T|/|T| over all n proteins in the truth
set. Thresholds where m(tau)=0 leave precision undefined and are excluded
from the sweep. The grid is the 100 points 0.01..1.00.

Predictions and truth are `ontology.Annotations` tables (dicts are converted
on entry). An absent pair is a term the protein does not predict, or does not
hold in the truth; a truth protein with no predictions counts in recall only.
The sweep bins every score once against the grid and counts per protein with
suffix sums, then adds the proteins' precision and recall in sorted protein
order, so reports keep the bits of a protein-by-protein sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .ontology import Annotations, as_annotations

GRID = tuple(round(k / 100.0, 2) for k in range(1, 101))


@dataclass(frozen=True)
class CurvePoint:
    tau: float
    pr: float
    rc: float
    f: float
    m: int


@dataclass(frozen=True)
class EvalResult:
    fmax: float
    tau_star: float | None
    curve: tuple[CurvePoint, ...]
    n: int
    namespace: str = ""


def _columns(table: Annotations, exclude: frozenset[str]) -> list[int]:
    return [j for j, t in enumerate(table.terms) if t not in exclude]


def _validate(pred: Annotations, truth: Annotations, exclude: frozenset[str]) -> np.ndarray:
    """Truth's present pairs outside the excluded terms, as a [proteins,
    terms] mask; raises on inputs the sweep cannot score."""
    if not len(truth):
        raise EvaluationError("evaluation needs at least one protein with ground truth")
    for protein in pred.proteins:
        if protein not in truth:
            raise EvaluationError(f"prediction for unknown protein {protein!r}")
    known = np.zeros(truth.scores.shape, dtype=bool)
    cols = _columns(truth, exclude)
    known[:, cols] = ~np.isnan(truth.scores[:, cols])
    empty = np.flatnonzero(~known.any(axis=1))
    if empty.size:
        raise EvaluationError(f"protein {truth.proteins[empty[0]]!r} has no ground-truth terms")
    return known


def _at_least(cells: np.ndarray, rows: int, width: int, column: np.ndarray) -> np.ndarray:
    """[rows, taus] counts of the cells whose bin lies above each tau's slot.
    A cell is its bin plus its row's offset, row * width."""
    counts = np.bincount(cells, minlength=rows * width).reshape(rows, width)
    return counts[:, ::-1].cumsum(axis=1)[:, ::-1][:, column]


def fmax(pred, truth, namespace: str = "", exclude_terms=(), grid=GRID) -> EvalResult:
    """Sweep the grid and return the best F with its smallest maximizing tau.

    pred and truth are tables or dicts (see `ontology.as_annotations`); an
    absent pair is an unpredicted term, and exclude_terms drops whole terms.
    Each score falls in the bin of the grid points at or below it, so the
    sweep keeps exact `s >= tau` ties. If every threshold has m(tau)=0 (no
    predictions at all), the curve is empty and fmax is 0.
    """
    pred, truth = as_annotations(pred), as_annotations(truth)
    exclude = frozenset(exclude_terms)
    known = _validate(pred, truth, exclude)
    proteins = sorted(truth.proteins)
    n = len(proteins)
    known = known[[truth.protein_index[p] for p in proteins]]
    # pred's scores on the rows of the sorted truth, -inf where absent
    # (searchsorted would sort NaN after every grid point)
    cols = _columns(pred, exclude)
    scores = np.full((n, len(cols)), -np.inf)
    rows = np.array([pred.protein_index.get(p, -1) for p in proteins], dtype=np.int64)
    have = np.flatnonzero(rows >= 0)
    scores[have] = pred.scores[np.ix_(rows[have], cols)]
    scores[np.isnan(scores)] = -np.inf
    truth_cols = np.array([truth.term_index.get(pred.terms[j], -1) for j in cols],
                          dtype=np.int64)
    is_true = np.zeros(scores.shape, dtype=bool)
    shared = np.flatnonzero(truth_cols >= 0)
    is_true[:, shared] = known[:, truth_cols[shared]]

    taus = np.asarray(grid, dtype=np.float64)
    points = np.sort(taus)
    width = len(points) + 1
    # bin b of a score: b grid points lie at or below it
    bins = np.searchsorted(points, scores, side="right")
    bins += width * np.arange(n)[:, None]
    # column of each tau in the suffix counts: the bins above its sorted slot
    column = np.searchsorted(points, taus, side="left") + 1
    pred_count = _at_least(bins.ravel(), n, width, column)
    inter = _at_least(bins[is_true], n, width, column)
    active = pred_count > 0
    m_count = active.sum(axis=0)
    # sums over proteins in sorted order, one protein after another
    pr_sum = np.where(active, inter / np.maximum(pred_count, 1), 0.0).cumsum(axis=0)[-1]
    rc_sum = (inter / known.sum(axis=1)[:, None]).cumsum(axis=0)[-1]
    curve = []
    best_f = 0.0
    tau_star = None
    for j, tau in enumerate(taus):
        if m_count[j] == 0:
            continue
        pr = pr_sum[j] / m_count[j]
        rc = rc_sum[j] / n
        f = 0.0 if pr + rc == 0 else 2.0 * pr * rc / (pr + rc)
        curve.append(CurvePoint(tau=float(tau), pr=float(pr), rc=float(rc),
                                f=float(f), m=int(m_count[j])))
        if f > best_f:
            best_f = f
            tau_star = float(tau)
    if tau_star is None and curve:
        tau_star = curve[0].tau  # all F values are exactly zero
    return EvalResult(fmax=float(best_f), tau_star=tau_star, curve=tuple(curve),
                      n=n, namespace=namespace)


def stratified_eval(pred, truth, lengths: dict[str, int], min_len: int,
                    namespace: str = "", exclude_terms=()) -> EvalResult:
    """Fmax restricted to proteins longer than min_len residues. The inputs
    are checked against the full truth first, so a prediction for a protein
    outside the truth is an error even when the stratum would drop it."""
    pred, truth = as_annotations(pred), as_annotations(truth)
    _validate(pred, truth, frozenset(exclude_terms))
    missing = [p for p in truth.proteins if p not in lengths]
    if missing:
        raise EvaluationError(f"no length available for proteins {missing[:5]}")
    keep = [p for p in truth.proteins if lengths[p] > min_len]
    if not keep:
        raise EvaluationError(
            f"stratum is empty: no protein longer than {min_len} residues"
        )
    kept = set(keep)
    return fmax(pred.rows(p for p in pred.proteins if p in kept), truth.rows(keep),
                namespace=namespace, exclude_terms=exclude_terms)


def result_to_json(result: EvalResult) -> dict:
    return {
        "namespace": result.namespace,
        "fmax": result.fmax,
        "tau_star": result.tau_star,
        "n": result.n,
        "curve": [
            {"tau": p.tau, "pr": p.pr, "rc": p.rc, "f": p.f, "m": p.m}
            for p in result.curve
        ],
    }


def write_report(path, result: EvalResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_to_json(result), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_curve_tsv(path, result: EvalResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tau\tpr\trc\tf\tm\n")
        for p in result.curve:
            fh.write(f"{p.tau:.2f}\t{p.pr:.9g}\t{p.rc:.9g}\t{p.f:.9g}\t{p.m}\n")
