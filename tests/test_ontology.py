"""Ontology loading, validation, and true-path / score closures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annotation_oracles import ancestors
from eslong.errors import OntologyError
from eslong.ontology import (
    close_scores,
    close_truth,
    load_annotations,
    load_ontology,
    save_annotations,
)


def bfs_ancestors(parents, term):
    """Independent BFS oracle over the raw edge dict."""
    seen = set()
    frontier = list(parents[term])
    while frontier:
        t = frontier.pop(0)
        if t not in seen:
            seen.add(t)
            frontier.extend(parents[t])
    return seen


def random_dag(rng, n_terms):
    """Random single-rooted DAG: term i picks parents among lower indices."""
    names = [f"t{i}" for i in range(n_terms)]
    parents = {names[0]: set()}
    for i in range(1, n_terms):
        k = int(rng.integers(1, min(i, 3) + 1))
        choices = rng.choice(i, size=k, replace=False)
        parents[names[i]] = {names[j] for j in choices}
    return names, parents


def edges_tsv(parents):
    return "".join(
        f"{child}\t{parent}\n" for child in sorted(parents) for parent in sorted(parents[child])
    )


class TestLoadOntology:
    def test_chain(self):
        g = load_ontology("a\tb\nb\troot\n", "BPO")
        assert g.terms == {"a", "b", "root"}
        assert g.root == "root"
        assert ancestors(g, "a") == {"b", "root"}
        assert ancestors(g, "root") == frozenset()

    def test_diamond(self):
        g = load_ontology("a\tb\na\tc\nb\troot\nc\troot\n", "CCO")
        assert ancestors(g, "a") == {"b", "c", "root"}

    def test_non_utf8_file_rejected(self, tmp_path):
        from eslong.errors import IngestionError

        path = tmp_path / "onto.tsv"
        path.write_bytes(b"a\troot\nb\xff\troot\n")
        with pytest.raises(IngestionError, match="not UTF-8"):
            load_ontology(str(path), "BPO")

    def test_smallest_cycle_rejected(self):
        with pytest.raises(OntologyError, match="cycle|root"):
            load_ontology("a\tb\nb\ta\n", "MFO")

    def test_larger_cycle_rejected(self):
        with pytest.raises(OntologyError, match="cycle"):
            load_ontology("a\tb\nb\tc\nc\ta\nd\troot\na\troot\n", "MFO")

    def test_two_roots_rejected(self):
        with pytest.raises(OntologyError, match="root"):
            load_ontology("a\tb\nc\td\n", "BPO")

    def test_self_edge_rejected(self):
        with pytest.raises(OntologyError, match="self-edge"):
            load_ontology("a\ta\n", "BPO")

    def test_bad_namespace(self):
        with pytest.raises(OntologyError, match="namespace"):
            load_ontology("a\tb\n", "XXX")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(3, 12), st.integers(0, 2**32 - 1))
    def test_cycle_injection_always_rejected(self, n_terms, seed):
        rng = np.random.default_rng(seed)
        names, parents = random_dag(rng, n_terms)
        load_ontology(edges_tsv(parents), "BPO")  # sanity: valid before tampering
        # add a back-edge from an ancestor to a descendant -> cycle
        child = names[int(rng.integers(1, n_terms))]
        ancestor = next(iter(parents[child]))
        parents[ancestor].add(child)
        with pytest.raises(OntologyError):
            load_ontology(edges_tsv(parents), "BPO")


class TestCloseTruth:
    def test_chain_leaf(self):
        g = load_ontology("a\tb\nb\troot\n", "BPO")
        closed = close_truth({"P1": {"a": 1.0}}, g)
        assert closed["P1"] == {"a": 1.0, "b": 1.0, "root": 1.0}

    def test_idempotent(self):
        g = load_ontology("a\tb\nb\troot\n", "BPO")
        once = close_truth({"P1": {"a": 1.0}}, g)
        twice = close_truth(once, g)
        assert once == twice

    def test_matches_bfs_oracle_on_random_dags(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            names, parents = random_dag(rng, int(rng.integers(3, 15)))
            g = load_ontology(edges_tsv(parents), "BPO")
            leaves = [n for n in names if rng.random() < 0.4] or [names[-1]]
            closed = close_truth({"P": {t: 1.0 for t in leaves}}, g)
            expected = set(leaves)
            for t in leaves:
                expected |= bfs_ancestors(parents, t)
            assert set(closed["P"]) == expected

    def test_unknown_term_rejected(self):
        g = load_ontology("a\troot\n", "BPO")
        with pytest.raises(OntologyError, match="unknown term"):
            close_truth({"P1": {"zzz": 1.0}}, g)

    def test_monotone(self):
        g = load_ontology("a\tb\nb\troot\nc\troot\n", "BPO")
        small = close_truth({"P": {"c": 1.0}}, g)
        big = close_truth({"P": {"c": 1.0, "a": 1.0}}, g)
        assert set(small["P"]) <= set(big["P"])


def fixpoint_close_scores(pred, parents):
    """Oracle: iterate parent := max(parent, child) until nothing changes."""
    scores = dict(pred)
    changed = True
    while changed:
        changed = False
        for child, ps in parents.items():
            if child not in scores:
                continue
            for p in ps:
                if scores.get(p, 0.0) < scores[child]:
                    scores[p] = scores[child]
                    changed = True
    return scores


class TestCloseScores:
    def test_chain_max_propagation(self):
        g = load_ontology("a\tb\nb\troot\n", "BPO")
        closed = close_scores({"P": {"a": 0.9, "b": 0.2, "root": 0.0}}, g)
        assert closed["P"] == {"a": 0.9, "b": 0.9, "root": 0.9}

    def test_consistent_scores_unchanged(self):
        g = load_ontology("a\tb\nb\troot\n", "BPO")
        pred = {"P": {"a": 0.3, "b": 0.5, "root": 0.9}}
        assert close_scores(pred, g) == pred

    def test_matches_fixpoint_oracle_and_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            names, parents = random_dag(rng, int(rng.integers(3, 15)))
            g = load_ontology(edges_tsv(parents), "BPO")
            pred = {
                "P": {n: float(np.round(rng.random(), 3)) for n in names if rng.random() < 0.6}
            }
            closed = close_scores(pred, g)
            assert closed["P"] == fixpoint_close_scores(pred["P"], parents)
            for child, ps in parents.items():
                if child in closed["P"]:
                    for p in ps:
                        assert closed["P"][p] >= closed["P"][child]

    @pytest.mark.parametrize("score", [1.5, -0.1])
    def test_score_outside_unit_interval_rejected(self, score):
        g = load_ontology("a\tb\nb\troot\n", "BPO")
        with pytest.raises(OntologyError, match=r"outside \[0, 1\]"):
            close_scores({"P": {"a": 0.5, "b": score}}, g)

    def test_idempotent(self):
        g = load_ontology("a\tb\na\tc\nb\troot\nc\troot\n", "BPO")
        pred = {"P": {"a": 0.7, "c": 0.1}}
        once = close_scores(pred, g)
        assert close_scores(once, g) == once

    def test_thresholding_closed_scores_is_ancestor_closed(self):
        rng = np.random.default_rng(2)
        names, parents = random_dag(rng, 10)
        g = load_ontology(edges_tsv(parents), "BPO")
        pred = {"P": {n: float(rng.random()) for n in names[3:]}}
        closed = close_scores(pred, g)["P"]
        for tau in (0.1, 0.5, 0.9):
            chosen = {t for t, s in closed.items() if s >= tau}
            for t in chosen:
                assert bfs_ancestors(parents, t) <= chosen


class TestAnnotationsIO:
    def test_load_with_and_without_scores(self):
        ann = load_annotations("P1\ta\t0.5\nP1\tb\nP2\ta\n")
        assert ann == {"P1": {"a": 0.5, "b": 1.0}, "P2": {"a": 1.0}}

    def test_roundtrip(self, tmp_path):
        ann = {"P1": {"a": 0.25, "b": 1.0}, "P2": {"c": 0.75}}
        path = tmp_path / "ann.tsv"
        save_annotations(path, ann)
        assert load_annotations(str(path)) == ann

    def test_bad_score_rejected(self):
        from eslong.errors import IngestionError

        with pytest.raises(IngestionError):
            load_annotations("P1\ta\t1.5\n")
        with pytest.raises(IngestionError):
            load_annotations("P1\ta\tnope\n")
