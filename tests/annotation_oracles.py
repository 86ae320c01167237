"""The dict-of-dict annotation code that the score table replaced, kept
unchanged as reference oracles: `close_truth`, `close_scores`,
`load_annotations`, `save_annotations` and `fmax` walk dicts of
protein -> {term -> score}; `precision_at` and `recall_at` score one
threshold, and `ancestors` walks a graph's parent sets. Tests compare the
table path in `eslong.ontology` and `eslong.evaluation` with these, field by
field."""

import io

import numpy as np

from eslong.errors import EvaluationError, IngestionError, OntologyError
from eslong.evaluation import GRID, CurvePoint, EvalResult
from eslong.ontology import OntologyGraph

# protein id -> {term id -> score}
AnnotationSet = dict[str, dict[str, float]]

# id(graph) -> (graph, {term -> ancestors}); holding the graph keeps its id
# from being reused by another graph while the entry exists
_ancestor_cache: dict = {}


def ancestors(graph: OntologyGraph, term: str) -> frozenset[str]:
    """All proper ancestors of term (memoized walk to the root)."""
    if term not in graph.parents:
        raise OntologyError(f"unknown term {term!r}")
    memo = _ancestor_cache.setdefault(id(graph), (graph, {}))[1]
    cached = memo.get(term)
    if cached is not None:
        return cached
    acc: set[str] = set()
    stack = list(graph.parents[term])
    while stack:
        parent = stack.pop()
        if parent not in acc:
            acc.add(parent)
            stack.extend(graph.parents[parent])
    result = frozenset(acc)
    memo[term] = result
    return result


def _check_terms(annotations: AnnotationSet, graph: OntologyGraph) -> None:
    for protein, terms in annotations.items():
        for term, score in terms.items():
            if term not in graph.parents:
                raise OntologyError(f"protein {protein!r} uses unknown term {term!r}")
            if not (0.0 <= score <= 1.0):
                raise OntologyError(
                    f"protein {protein!r} term {term!r} has score {score} outside [0, 1]"
                )


def close_truth(truth: AnnotationSet, graph: OntologyGraph) -> AnnotationSet:
    """True-path closure: every ancestor of an annotated term is annotated at 1.0."""
    _check_terms(truth, graph)
    closed: AnnotationSet = {}
    for protein, terms in truth.items():
        full = set(terms)
        for term in terms:
            full |= ancestors(graph, term)
        closed[protein] = {t: 1.0 for t in full}
    return closed


def close_scores(pred: AnnotationSet, graph: OntologyGraph) -> AnnotationSet:
    """Max-propagate scores toward the root so parent >= child on every edge."""
    _check_terms(pred, graph)
    closed: AnnotationSet = {}
    for protein, terms in pred.items():
        scores = dict(terms)
        for term in graph.topo_order:  # children first
            if term in scores:
                for parent in graph.parents[term]:
                    if scores.get(parent, 0.0) < scores[term]:
                        scores[parent] = scores[term]
        closed[protein] = scores
    return closed


def load_annotations(source) -> AnnotationSet:
    """Parse protein<TAB>term[<TAB>score] lines; a missing score means 1.0."""
    if isinstance(source, str) and "\n" not in source and "\t" not in source:
        with open(source, "r", encoding="utf-8") as fh:
            return load_annotations(fh)
    if isinstance(source, str):
        source = io.StringIO(source)
    annotations: AnnotationSet = {}
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 2:
            protein, term = parts
            score = 1.0
        elif len(parts) == 3:
            protein, term, raw = parts
            try:
                score = float(raw)
            except ValueError as exc:
                raise IngestionError(f"annotation line {lineno}: bad score {raw!r}") from exc
        else:
            raise IngestionError(f"annotation line {lineno}: expected 2 or 3 columns")
        if not (0.0 <= score <= 1.0):
            raise IngestionError(f"annotation line {lineno}: score {score} outside [0, 1]")
        annotations.setdefault(protein, {})[term] = score
    return annotations


def save_annotations(path, annotations: AnnotationSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for protein in sorted(annotations):
            for term in sorted(annotations[protein]):
                fh.write(f"{protein}\t{term}\t{annotations[protein][term]:.6g}\n")
def _restrict(terms: dict[str, float], exclude: frozenset[str]) -> dict[str, float]:
    if not exclude:
        return terms
    return {t: s for t, s in terms.items() if t not in exclude}


def _validate(pred, truth, exclude):
    if not truth:
        raise EvaluationError("evaluation needs at least one protein with ground truth")
    for protein in pred:
        if protein not in truth:
            raise EvaluationError(f"prediction for unknown protein {protein!r}")
    for protein, terms in truth.items():
        if not _restrict(terms, exclude):
            raise EvaluationError(f"protein {protein!r} has no ground-truth terms")


def precision_at(pred, truth, tau: float, exclude_terms=()) -> tuple[float, int]:
    """(precision at tau, m(tau)); (0.0, 0) when no protein predicts anything."""
    exclude = frozenset(exclude_terms)
    _validate(pred, truth, exclude)
    total = 0.0
    m = 0
    for protein, terms in pred.items():
        chosen = {t for t, s in _restrict(terms, exclude).items() if s >= tau}
        if not chosen:
            continue
        m += 1
        true_terms = set(_restrict(truth[protein], exclude))
        total += len(chosen & true_terms) / len(chosen)
    if m == 0:
        return 0.0, 0
    return total / m, m


def recall_at(pred, truth, tau: float, exclude_terms=()) -> float:
    """Recall at tau, averaged over every protein in the truth set."""
    exclude = frozenset(exclude_terms)
    _validate(pred, truth, exclude)
    total = 0.0
    for protein, true_raw in truth.items():
        true_terms = set(_restrict(true_raw, exclude))
        chosen = {
            t for t, s in _restrict(pred.get(protein, {}), exclude).items() if s >= tau
        }
        total += len(chosen & true_terms) / len(true_terms)
    return total / len(truth)


def fmax(pred, truth, namespace: str = "", exclude_terms=(), grid=GRID) -> EvalResult:
    """Sweep the grid and return the best F with its smallest maximizing tau.

    If every threshold has m(tau)=0 (no predictions at all), the curve is
    empty and fmax is 0.
    """
    exclude = frozenset(exclude_terms)
    _validate(pred, truth, exclude)
    proteins = sorted(truth)
    n = len(proteins)
    taus = np.asarray(grid, dtype=np.float64)
    pr_sum = np.zeros(len(taus))
    rc_sum = np.zeros(len(taus))
    m_count = np.zeros(len(taus), dtype=np.int64)
    for protein in proteins:
        true_terms = set(_restrict(truth[protein], exclude))
        scored = _restrict(pred.get(protein, {}), exclude)
        if scored:
            items = sorted(scored.items(), key=lambda kv: kv[1])
            scores = np.array([s for _, s in items], dtype=np.float64)
            is_true = np.array([t in true_terms for t, _ in items], dtype=np.float64)
            # suffix sums: how many predictions / correct predictions score >= tau
            first_idx = np.searchsorted(scores, taus, side="left")
            pred_count = len(scores) - first_idx
            true_suffix = np.concatenate([np.cumsum(is_true[::-1])[::-1], [0.0]])
            inter = true_suffix[first_idx]
            active = pred_count > 0
            m_count += active
            with np.errstate(invalid="ignore", divide="ignore"):
                pr_sum += np.where(active, inter / np.maximum(pred_count, 1), 0.0)
            rc_sum += inter / len(true_terms)
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
