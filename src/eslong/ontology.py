"""GO-style ontology graphs and annotation closures.

A graph is a DAG of is-a edges with a single root; annotating a term implies
annotating every ancestor (ground truth closes with score 1.0, predictions
close by max-propagating scores toward the root so parents never score below
their children).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

from .errors import IngestionError, OntologyError

NAMESPACES = ("BPO", "CCO", "MFO")

# protein id -> {term id -> score}
AnnotationSet = dict[str, dict[str, float]]


@dataclass(frozen=True)
class OntologyGraph:
    namespace: str
    parents: dict[str, frozenset[str]]
    root: str
    topo_order: tuple[str, ...]  # children strictly before parents
    _ancestor_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def terms(self) -> frozenset[str]:
        return frozenset(self.parents)

    def ancestors(self, term: str) -> frozenset[str]:
        """All proper ancestors of term (memoized walk to the root)."""
        if term not in self.parents:
            raise OntologyError(f"unknown term {term!r}")
        cached = self._ancestor_cache.get(term)
        if cached is not None:
            return cached
        acc: set[str] = set()
        stack = list(self.parents[term])
        while stack:
            parent = stack.pop()
            if parent not in acc:
                acc.add(parent)
                stack.extend(self.parents[parent])
        result = frozenset(acc)
        self._ancestor_cache[term] = result
        return result


def load_ontology(source, namespace: str) -> OntologyGraph:
    """Build a validated graph from child<TAB>parent lines (path, IO, or str).

    Rejects cycles, multiple parentless terms (a dangling parent shows up as a
    spurious second root), and anything that cannot reach the root.
    """
    if namespace not in NAMESPACES:
        raise OntologyError(f"namespace must be one of {NAMESPACES}, got {namespace!r}")
    if isinstance(source, str) and "\n" not in source and "\t" not in source:
        with open(source, "r", encoding="utf-8") as fh:
            return load_ontology(fh, namespace)
    if isinstance(source, str):
        source = io.StringIO(source)
    parents: dict[str, set[str]] = {}
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise IngestionError(f"ontology line {lineno}: expected child<TAB>parent")
        child, parent = parts
        if child == parent:
            raise OntologyError(f"self-edge on {child!r}")
        parents.setdefault(child, set()).add(parent)
        parents.setdefault(parent, set())
    if not parents:
        raise OntologyError("ontology has no terms")
    roots = sorted(t for t, ps in parents.items() if not ps)
    if len(roots) != 1:
        raise OntologyError(
            f"expected exactly one root term, found {roots}; "
            "check for dangling parents or disconnected subgraphs"
        )
    topo = _topological_order(parents)
    return OntologyGraph(
        namespace=namespace,
        parents={t: frozenset(ps) for t, ps in parents.items()},
        root=roots[0],
        topo_order=topo,
    )


def _topological_order(parents: dict[str, set[str]]) -> tuple[str, ...]:
    """Kahn's algorithm over child->parent edges; raises on cycles."""
    out_degree = {t: len(ps) for t, ps in parents.items()}
    children: dict[str, list[str]] = {t: [] for t in parents}
    for child, ps in parents.items():
        for p in ps:
            children[p].append(child)
    ready = sorted(t for t, deg in out_degree.items() if deg == 0)  # root(s) first
    order: list[str] = []
    while ready:
        term = ready.pop()
        order.append(term)
        for child in sorted(children[term], reverse=True):
            out_degree[child] -= 1
            if out_degree[child] == 0:
                ready.append(child)
    if len(order) != len(parents):
        raise OntologyError("ontology contains a cycle")
    order.reverse()  # children before parents
    return tuple(order)


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
            full |= graph.ancestors(term)
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
