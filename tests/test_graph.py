import collections
import functools
import importlib.util
import itertools
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvmr import graph
from mvmr.errors import (
    CombinatorialLimitError,
    GraphStructureError,
    MvmrError,
    PathEnumerationError,
    StandardizationError,
    UnknownNodeError,
)
from helpers import random_standardized_sem, random_mvmr_graph


def fig_2a_model(alpha=0.9, A=((0.3, 0.1), (0.2, 0.25)), c=(0.2, 0.6)):
    diagram = graph.CausalDiagram(
        ["E1", "E2", "X1", "X2", "Y"],
        [
            ("E1", "X1"),
            ("E1", "X2"),
            ("E2", "X1"),
            ("E2", "X2"),
            ("X1", "Y"),
            ("X2", "Y"),
        ],
        [("E1", "E2")],
    )
    coeffs = {
        ("E1", "X1"): A[0][0],
        ("E1", "X2"): A[0][1],
        ("E2", "X1"): A[1][0],
        ("E2", "X2"): A[1][1],
        ("X1", "Y"): c[0],
        ("X2", "Y"): c[1],
    }
    sem = graph.calibrate_unit_variances(diagram, coeffs, {("E1", "E2"): alpha})
    return diagram, sem


class TestDiagramValidation:
    def test_rejects_cycle(self):
        with pytest.raises(GraphStructureError):
            graph.CausalDiagram(["A", "B"], [("A", "B"), ("B", "A")])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphStructureError):
            graph.CausalDiagram(["A"], [("A", "A")])

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(GraphStructureError):
            graph.CausalDiagram(["A", "A"], [])

    def test_rejects_unknown_edge_node(self):
        with pytest.raises(UnknownNodeError):
            graph.CausalDiagram(["A"], [("A", "B")])

    def test_rejects_error_cov_asymmetric_beyond_absolute_tolerance(self):
        # 2e-6 apart: within numpy's default relative tolerance, far outside 1e-12
        with pytest.raises(GraphStructureError, match="symmetric"):
            graph.SemParameters(np.zeros((2, 2)), [[1.0, 0.3], [0.300002, 1.0]])
        graph.SemParameters(np.zeros((2, 2)), [[1.0, 0.3], [0.3 + 1e-13, 1.0]])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_parameters(self, value):
        C = np.zeros((2, 2))
        C[1, 0] = value
        with pytest.raises(GraphStructureError, match="must be finite"):
            graph.SemParameters(C, np.eye(2))
        with pytest.raises(GraphStructureError, match="must be finite"):
            graph.SemParameters(np.zeros((2, 2)), [[1.0, value], [value, 1.0]])
        diagram = graph.CausalDiagram(["E", "X"], [("E", "X")], [("E", "X")])
        for edges, bicov in (({("E", "X"): value}, {}), ({("E", "X"): 0.5}, {("E", "X"): value})):
            with pytest.raises(GraphStructureError, match="must be finite"):
                graph.calibrate_unit_variances(diagram, edges, bicov)
            with pytest.raises(GraphStructureError, match="must be finite"):
                graph.sem_from_values(diagram, edges, bicov)


class TestImpliedCovariance:
    def test_no_edges_identity(self):
        sem = graph.SemParameters(np.zeros((2, 2)), np.eye(2))
        assert np.array_equal(graph.implied_covariance(sem), np.eye(2))

    def test_chain_product(self):
        # E -> X (0.5), X -> Y (0.3), unit variances: sigma_EY = 0.15
        diagram = graph.CausalDiagram(["E", "X", "Y"], [("E", "X"), ("X", "Y")])
        sem = graph.calibrate_unit_variances(
            diagram, {("E", "X"): 0.5, ("X", "Y"): 0.3}
        )
        sigma = graph.implied_covariance(sem)
        assert sigma[diagram.index("E"), diagram.index("Y")] == pytest.approx(0.15, abs=1e-14)
        assert np.allclose(np.diag(sigma), 1.0, atol=1e-12)

    def test_matches_path_rule_on_random_sems(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            diagram, sem = random_standardized_sem(rng, n_nodes=6)
            sigma = graph.implied_covariance(sem)
            for a in diagram.nodes:
                for b in diagram.nodes:
                    if a == b:
                        continue
                    w = graph.wright_covariance(diagram, sem, a, b)
                    assert w == pytest.approx(
                        sigma[diagram.index(a), diagram.index(b)], abs=1e-12
                    )


def make_diagrams(seed, count):
    """The benchmark's locus diagrams, ``perfbench/inputs.make_diagrams``."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_diagrams(seed, count)


def reference_calibrated_error_cov(diagram, coefficients, error_cov=None):
    """Error covariance of :func:`graph.calibrate_unit_variances` by its
    original formula: a ``sum`` of numpy scalars per node, checked once."""
    p = diagram.n_nodes
    C, psi = np.zeros((p, p)), np.zeros((p, p))
    for (s, t), value in coefficients.items():
        C[diagram.index(t), diagram.index(s)] = value
    for (a, b), value in (error_cov or {}).items():
        psi[diagram.index(a), diagram.index(b)] = psi[diagram.index(b), diagram.index(a)] = value
    B = np.linalg.solve(np.eye(p) - C, np.eye(p))
    order = [diagram.index(n) for n in diagram.topological_order()]
    off = psi.copy()
    np.fill_diagonal(off, 0.0)
    diag = np.zeros(p)
    for i in order:
        other = B[i] @ off @ B[i]
        settled = sum(B[i, k] ** 2 * diag[k] for k in order[: order.index(i)])
        value = 1.0 - other - settled
        if value <= 0:
            raise StandardizationError(
                f"cannot standardize node {diagram.nodes[i]!r}: "
                f"required error variance {value:.4g} <= 0"
            )
        diag[i] = value
    np.fill_diagonal(psi, diag)
    graph.SemParameters(C, psi)  # the same checks
    return psi


def outcome_of(fn, *args):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        return "ok", fn(*args)
    except (GraphStructureError, StandardizationError) as exc:
        return type(exc), str(exc)


class TestSemCache:
    def test_matrices_are_read_only_copies(self):
        C, psi = np.zeros((2, 2)), np.eye(2)
        sem = graph.SemParameters(C, psi)
        with pytest.raises(ValueError):
            sem.coefficients[1, 0] = 0.5
        with pytest.raises(ValueError):
            sem.error_cov[0, 0] = 2.0
        with pytest.raises(AttributeError):
            sem.coefficients = np.array([[0.0, 0.0], [0.5, 0.0]])
        C[1, 0] = 0.5  # the caller's arrays stay writable and apart
        assert sem.coefficients[1, 0] == 0.0
        assert np.array_equal(graph.implied_covariance(sem), np.eye(2))

    def test_implied_covariance_returns_a_fresh_copy(self):
        diagram, sem = fig_2a_model()
        first = graph.implied_covariance(sem)
        expected = first.copy()
        first[:] = 7.0
        assert np.array_equal(graph.implied_covariance(sem), expected)
        assert graph.wright_covariance(diagram, sem, "E1", "Y") == pytest.approx(0.291, abs=1e-12)

    def test_calibration_bitwise_equals_the_reference_formula(self):
        cases = []
        for seed in (1, 2):
            for d in make_diagrams(seed, 240):
                diagram = graph.CausalDiagram(d["nodes"], [(s, t) for s, t, _ in d["edges"]], [(a, b) for a, b, _ in d["bicov"]])
                cases.append((diagram, {(s, t): c for s, t, c in d["edges"]}, {(a, b): c for a, b, c in d["bicov"]}))
        rng = np.random.default_rng(1503)
        for _ in range(300):
            diagram = random_mixed_diagram(rng)
            coefficients = {edge: rng.uniform(-0.6, 0.6) for edge in diagram.directed_edges}
            bicov = {edge: rng.uniform(-0.4, 0.4) for edge in diagram.bidirected_edges}
            cases.append((diagram, coefficients, bicov))
        kinds = collections.Counter()
        for diagram, coefficients, bicov in cases:
            kind, expected = outcome_of(reference_calibrated_error_cov, diagram, coefficients, bicov)
            got = outcome_of(graph.calibrate_unit_variances, diagram, coefficients, bicov)
            if kind == "ok":
                assert got[0] == "ok" and got[1].error_cov.tobytes() == expected.tobytes()
            else:
                assert got == (kind, expected)
            kinds[kind] += 1
        assert kinds["ok"] >= 600 and len(kinds) == 3  # both error kinds reached


    def test_wright_refusal_repeats_and_the_sem_stays_immutable(self):
        diagram = graph.CausalDiagram(["E", "X"], [("E", "X")])
        sem = graph.sem_from_values(diagram, {("E", "X"): 0.5})  # var(X) = 1.25
        refusal = (StandardizationError, "path sums require unit implied variances; max |var - 1| = 2.500e-01")
        assert [outcome_of(graph.wright_covariance, diagram, sem, "E", "X") for _ in range(3)] == [refusal] * 3
        below = graph.sem_from_values(diagram, {("E", "X"): 0.5}, error_var={"X": 0.5})  # var(X) = 0.75
        assert [outcome_of(graph.wright_covariance, diagram, below, "X", "E") for _ in range(2)] == [refusal] * 2
        for name in ("coefficients", "error_cov", "_implied", "_unit_variance_gap"):
            with pytest.raises(AttributeError, match="SemParameters is immutable"):
                setattr(sem, name, None)
        assert outcome_of(graph.wright_covariance, diagram, sem, "E", "X") == refusal
        standardized = graph.calibrate_unit_variances(diagram, {("E", "X"): 0.5})
        assert [graph.wright_covariance(diagram, standardized, "E", "X") for _ in range(2)] == [0.5, 0.5]


class TestWrightCovariance:
    def test_disconnected_nodes_zero(self):
        diagram = graph.CausalDiagram(["A", "B"], [])
        sem = graph.SemParameters(np.zeros((2, 2)), np.eye(2))
        assert graph.wright_covariance(diagram, sem, "A", "B") == 0.0

    def test_fig2a_four_paths(self):
        diagram, sem = fig_2a_model()
        paths = graph.enumerate_paths(diagram, "E1", "Y")
        assert len(paths) == 4
        value = graph.wright_covariance(diagram, sem, "E1", "Y")
        # direct: 0.3*0.2 + 0.1*0.6; through the LD edge: 0.9*(0.2*0.2 + 0.25*0.6)
        assert value == pytest.approx(0.291, abs=1e-12)
        sigma = graph.implied_covariance(sem)
        assert value == pytest.approx(
            sigma[diagram.index("E1"), diagram.index("Y")], abs=1e-12
        )

    def test_collider_path_contributes_nothing(self):
        # E1 -> X <- E2 with a direct bidirected E1 <-> E2: only the
        # bidirected edge carries covariance
        diagram = graph.CausalDiagram(
            ["E1", "E2", "X"], [("E1", "X"), ("E2", "X")], [("E1", "E2")]
        )
        sem = graph.calibrate_unit_variances(
            diagram, {("E1", "X"): 0.4, ("E2", "X"): 0.3}, {("E1", "E2"): 0.2}
        )
        assert graph.wright_covariance(diagram, sem, "E1", "E2") == pytest.approx(
            0.2, abs=1e-14
        )

    def test_standardized_mode_enforces_unit_variances(self):
        diagram = graph.CausalDiagram(["E", "X"], [("E", "X")])
        sem = graph.sem_from_values(diagram, {("E", "X"): 0.5})  # var(X) = 1.25
        with pytest.raises(StandardizationError):
            graph.wright_covariance(diagram, sem, "E", "X")

    def test_node_cap_guard(self):
        names = [f"N{i}" for i in range(25)]
        diagram = graph.CausalDiagram(names, [])
        sem = graph.SemParameters(np.zeros((25, 25)), np.eye(25))
        with pytest.raises(PathEnumerationError, match="MAX_PATH_NODES = 20"):
            graph.wright_covariance(diagram, sem, "N0", "N1")


def all_unblocked_paths(diagram, a, b):
    """Reference search: every simple path by plain DFS, blocked ones dropped."""
    adjacency = {}
    for s, t in diagram.directed_edges:
        adjacency.setdefault(s, []).append((graph.PathEdge(graph.DIRECTED, s, t, True), t))
        adjacency.setdefault(t, []).append((graph.PathEdge(graph.DIRECTED, s, t, False), s))
    for u, v in diagram.bidirected_edges:
        adjacency.setdefault(u, []).append((graph.PathEdge(graph.BIDIRECTED, u, v, True), v))
        adjacency.setdefault(v, []).append((graph.PathEdge(graph.BIDIRECTED, u, v, False), u))
    found = []

    def extend(node_seq, edge_seq):
        for edge, nxt in adjacency.get(node_seq[-1], ()):
            if nxt in node_seq:
                continue
            if nxt == b:
                found.append(graph.Path(tuple(node_seq) + (nxt,), tuple(edge_seq) + (edge,)))
            else:
                extend(node_seq + [nxt], edge_seq + [edge])

    extend([a], [])
    return [path for path in found if not has_collider(path)]


def has_collider(path):
    """Whether some interior node of ``path`` has arrowheads on both sides."""
    return any(
        path.edges[k - 1].arrow_at(node) and path.edges[k].arrow_at(node)
        for k, node in enumerate(path.nodes[1:-1], start=1)
    )


def random_mixed_diagram(rng):
    """An MVMR-shaped diagram plus a few random extra bidirected edges."""
    sabotage = rng.choice([None, "pleiotropy", "missing_variant"])
    diagram = random_mvmr_graph(rng, n_exposures=int(rng.integers(1, 4)), sabotage=sabotage)[0]
    bidirected = set(diagram.bidirected_edges)
    for _ in range(int(rng.integers(0, 4))):
        a, b = rng.choice(diagram.nodes, size=2, replace=False)
        bidirected.add((min(a, b), max(a, b)))
    return graph.CausalDiagram(diagram.nodes, diagram.directed_edges, sorted(bidirected))


class TestPathEnumeration:
    def test_matches_exhaustive_search_in_order(self):
        rng = np.random.default_rng(2002)
        for _ in range(120):
            diagram = random_mixed_diagram(rng)
            for a in diagram.nodes:
                for b in diagram.nodes:
                    if a == b:
                        continue
                    expected = all_unblocked_paths(diagram, a, b)
                    assert graph.enumerate_paths(diagram, a, b) == expected
                    assert graph.enumerate_paths(diagram, a, b) == expected  # memoised

    def test_returned_list_is_a_copy(self):
        diagram, _ = fig_2a_model()
        paths = graph.enumerate_paths(diagram, "E1", "Y")
        paths.clear()
        assert len(graph.enumerate_paths(diagram, "E1", "Y")) == 4

    def test_guards_run_on_memoised_pairs(self):
        diagram, _ = fig_2a_model()
        assert len(graph.enumerate_paths(diagram, "E1", "Y")) == 4
        with pytest.raises(UnknownNodeError):
            graph.enumerate_paths(diagram, "E1", "missing")
        with pytest.raises(GraphStructureError):
            graph.enumerate_paths(diagram, "E1", "E1")

    def test_diagrams_over_the_cap_are_refused(self):
        names = [f"N{i}" for i in range(25)]
        diagram = graph.CausalDiagram(names, [("N0", "N1")])
        with pytest.raises(PathEnumerationError, match="MAX_PATH_NODES = 20"):
            graph.enumerate_paths(diagram, "N0", "N1")
        with pytest.raises(UnknownNodeError):  # unknown nodes are named first
            graph.enumerate_paths(diagram, "N0", "missing")

    def test_memo_does_not_change_equality_or_hash(self):
        warm, _ = fig_2a_model()
        fresh, _ = fig_2a_model()
        graph.enumerate_paths(warm, "E1", "Y")
        graph.check_instrumental_set(warm, ["E1", "E2"], ["X1", "X2"], "Y")
        assert warm == fresh
        assert hash(warm) == hash(fresh)
        assert repr(warm) == repr(fresh)


class TestDSeparation:
    def test_exposure_edges_removed(self):
        diagram, _, instruments, exposures, outcome, _ = random_mvmr_graph(
            np.random.default_rng(0), n_exposures=2
        )
        removed = [(x, outcome) for x in exposures]
        for e in instruments:
            assert graph.d_separated(diagram, e, outcome, removed)

    def test_open_chain_connected(self):
        diagram = graph.CausalDiagram(["E", "X", "Y"], [("E", "X"), ("X", "Y")])
        assert not graph.d_separated(diagram, "E", "Y")

    def test_isolated_nodes_separated(self):
        diagram = graph.CausalDiagram(["A", "B"], [])
        assert graph.d_separated(diagram, "A", "B")

    def test_unknown_node_lookup_error(self):
        diagram = graph.CausalDiagram(["A", "B"], [])
        with pytest.raises(UnknownNodeError):
            graph.d_separated(diagram, "A", "Z")

    def test_removed_edges_must_exist(self):
        diagram = graph.CausalDiagram(["A", "B"], [("A", "B")])
        with pytest.raises(GraphStructureError):
            graph.d_separated(diagram, "A", "B", [("B", "A")])

    def test_memoised_verdicts_equal_a_fresh_diagrams(self):
        # one diagram answers every query from its memos, each in two
        # orders of its removed edges; a set with an edge the diagram lacks
        # must be refused every time, and a == b is never separated
        rng = np.random.default_rng(3003)
        kinds = collections.Counter()
        for _ in range(40):
            diagram = random_mixed_diagram(rng)
            edges = list(diagram.directed_edges)
            lacking = [(t, s) for s, t in edges]
            queries = []
            for _ in range(25):
                a, b = (str(n) for n in rng.choice(diagram.nodes, size=2))
                removed = [edges[k] for k in rng.choice(len(edges), size=int(rng.integers(0, len(edges) + 1)), replace=False)]
                if rng.random() < 0.2:
                    removed.append(lacking[int(rng.integers(len(lacking)))])
                queries += [(a, b, removed), (a, b, removed[::-1])]
            for a, b, removed in queries * 2:
                fresh = graph.CausalDiagram(diagram.nodes, diagram.directed_edges, diagram.bidirected_edges)
                expected = outcome_of(graph.d_separated, fresh, a, b, removed)
                assert outcome_of(graph.d_separated, diagram, a, b, removed) == expected
                kinds["same node" if a == b else expected[0] if expected[0] != "ok" else expected[1]] += 1
        assert min(kinds[k] for k in ("same node", GraphStructureError, True, False)) >= 100, kinds

    def test_separation_implies_zero_covariance(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 40:
            diagram, sem = random_standardized_sem(rng, n_nodes=6)
            sigma = graph.implied_covariance(sem)
            for a in diagram.nodes:
                for b in diagram.nodes:
                    if a < b and graph.d_separated(diagram, a, b):
                        assert abs(sigma[diagram.index(a), diagram.index(b)]) < 1e-12
                        checked += 1


def reference_check(diagram, instruments, exposures, outcome):
    """The instrumental-set check without memos: a malformed question is
    refused as the check refuses it, every fact is recomputed for the
    subset at hand and condition 3 tries every ordering afresh."""
    instruments, exposures = list(instruments), list(exposures)
    for node in [outcome, *instruments, *exposures]:
        diagram.index(node)
    if outcome in instruments or outcome in exposures:
        raise ValueError("outcome cannot appear among instruments or exposures")
    if len(set(instruments)) != len(instruments):
        raise ValueError("duplicate instruments")
    if len(set(exposures)) != len(exposures):
        raise ValueError("duplicate exposures")
    if set(instruments) & set(exposures):
        raise ValueError("instruments and exposures must be disjoint")
    if len(instruments) != len(exposures):
        raise ValueError("need exactly one instrument per exposure; pre-select a square subset (see find_instrumental_subset)")
    if len(exposures) > graph.MAX_SET_SIZE:
        raise CombinatorialLimitError(f"instrumental-set search over {len(exposures)}! orderings not supported (at most {graph.MAX_SET_SIZE} instruments)")
    descendants = diagram.descendants(outcome)
    exposure_edges = {x for x in exposures if diagram.has_directed(x, outcome)}
    candidate_paths, connected = {}, set()
    for e in instruments:
        if e in descendants:
            return graph.InstrumentalSetResult(False, 1, None, f"instrument {e!r} is a descendant of {outcome!r}")
        per_exposure = {x: [] for x in exposures}
        for path in graph.enumerate_paths(diagram, e, outcome):
            final = path.final_directed_edge()
            if final is not None and final[0] in exposure_edges:
                per_exposure[final[0]].append(path)
            else:
                connected.add(e)
        candidate_paths[e] = per_exposure
    usable = [{j for j, x in enumerate(exposures) if candidate_paths[e][x]} for e in instruments]
    if not graph._perfect_matching_exists(usable, len(exposures)):
        detail = "no assignment of unblocked instrument-outcome paths covers every exposure edge"
        return graph.InstrumentalSetResult(False, 1, None, detail)
    for e in instruments:
        if e in connected:
            detail = f"instrument {e!r} stays d-connected to {outcome!r} after removing all exposure edges"
            return graph.InstrumentalSetResult(False, 2, None, detail)

    def search(remaining_instruments, remaining_exposures, chosen):
        if not remaining_instruments:
            return list(chosen)
        for e in remaining_instruments:
            for x in remaining_exposures:
                for path in candidate_paths[e][x]:
                    if any(not graph._pair_ok(earlier, path) for _, earlier in chosen):
                        continue
                    chosen.append((e, path))
                    found = search(
                        [i for i in remaining_instruments if i != e],
                        [j for j in remaining_exposures if j != x],
                        chosen,
                    )
                    if found is not None:
                        return found
                    chosen.pop()
        return None

    witness = search(instruments, exposures, [])
    if witness is None:
        detail = "no instrument ordering and path choice satisfies the pairwise common-variable rule"
        return graph.InstrumentalSetResult(False, 3, None, detail)
    return graph.InstrumentalSetResult(True, None, tuple(witness), "instrumental set")


def reference_find(diagram, candidates, exposures, outcome):
    last = None
    for subset in itertools.combinations(candidates, len(exposures)):
        last = reference_check(diagram, subset, exposures, outcome)
        if last.satisfied:
            return list(subset), last
    return None, last


def verdict(result):
    return result.satisfied, result.failed_condition, result.witness, result.detail


def search_outcome(find, diagram, candidates, exposures, outcome):
    """``(subset, verdict)`` of a subset search, or ``(exception type, message)``."""
    try:
        subset, result = find(diagram, candidates, exposures, outcome)
    except (MvmrError, ValueError) as exc:
        return type(exc), str(exc)
    return subset, None if result is None else verdict(result)


@functools.cache
def locus_diagrams():
    return make_diagrams(1, 24)


@st.composite
def subset_questions(draw):
    """A diagram with the candidate list, exposures and outcome of one
    subset search, some of them malformed."""
    shape = draw(st.sampled_from(["mixed"] * 4 + ["locus"] * 4 + ["tagging"] * 2 + ["over_cap", "wide"]))
    if shape == "wide":  # more exposures than MAX_SET_SIZE
        K = graph.MAX_SET_SIZE + 1
        es, xs = [f"E{i}" for i in range(K + 1)], [f"X{i}" for i in range(K)]
        diagram = graph.CausalDiagram(es + xs + ["Y"], [(e, x) for e, x in zip(es, xs)] + [(x, "Y") for x in xs], list(zip(es, es[1:])))
        return diagram, draw(st.lists(st.sampled_from(es), min_size=K - 1, max_size=K + 1, unique=True)), xs, "Y"
    if shape == "locus":  # a benchmark diagram, with a direct E1 -> Y edge at times
        d = draw(st.sampled_from(locus_diagrams()))
        pleiotropy = [("E1", "Y")] if draw(st.booleans()) else []
        diagram = graph.CausalDiagram(d["nodes"], [(s, t) for s, t, _ in d["edges"]] + pleiotropy, [(a, b) for a, b, _ in d["bicov"]])
    elif shape == "tagging":  # E1 on every exposure, the other variants in LD with it and at times on one
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        K = int(rng.integers(2, 4))
        es, xs = [f"E{i + 1}" for i in range(K + int(rng.integers(0, 3)))], [f"X{k + 1}" for k in range(K)]
        directed = [("E1", x) for x in xs] + [(x, "Y") for x in xs] + [(e, str(rng.choice(xs))) for e in es[1:] if rng.random() < 0.4]
        diagram = graph.CausalDiagram(es + xs + ["Y"], directed, [("E1", e) for e in es[1:]])
    else:  # a random diagram with one or two more variants, each in LD with one variant and at times on an exposure
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        diagram = random_mixed_diagram(rng)
        extra = [f"F{i}" for i in range(int(rng.integers(1, 3)))]
        es = [n for n in diagram.nodes if n.startswith("E")]
        xs = [n for n in diagram.nodes if n.startswith("X")]
        directed = [(f, str(rng.choice(xs))) for f in extra if rng.random() < 0.3]
        bidirected = {(str(rng.choice(es)), f) for f in extra}
        diagram = graph.CausalDiagram(diagram.nodes + tuple(extra), diagram.directed_edges + tuple(directed), sorted(set(diagram.bidirected_edges) | bidirected))
    if shape == "over_cap":  # descendants of Y beyond MAX_PATH_NODES: Y -> N0 -> N1 -> ...
        filler = [f"N{i}" for i in range(graph.MAX_PATH_NODES + 1 - diagram.n_nodes)]
        chain = tuple(zip(["Y", *filler], filler))
        diagram = graph.CausalDiagram(diagram.nodes + tuple(filler), diagram.directed_edges + chain, diagram.bidirected_edges)
    nodes = list(diagram.nodes)
    outcome = draw(st.sampled_from(["Y"] * 3 * len(nodes) + nodes + ["unknown"]))
    xs = draw(st.permutations([n for n in nodes if n.startswith("X")]))
    exposures = xs[: len(xs) - draw(st.integers(0, len(xs)))]
    pool = draw(st.permutations([n for n in nodes if n != outcome and n not in exposures]))
    candidates = pool[: len(pool) - draw(st.integers(0, len(pool) - len(exposures) + 1))]  # at times one too few
    for names, fault in ((exposures, ["Y", "unknown", *exposures]), (candidates, ["unknown", outcome, *exposures, *candidates])):
        if fault and draw(st.integers(0, 4)) == 0:  # an unknown node, the outcome, an exposure or a duplicate
            names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(fault)))
    return diagram, candidates, exposures, outcome


class TestInstrumentalSet:
    def test_memoised_screen_gives_the_reference_verdicts(self):
        # several outcomes and exposure sets per diagram, so most checks read
        # a memo that earlier questions about the diagram filled; the random
        # diagrams fail condition 2 often, the benchmark's ones condition 3
        rng = np.random.default_rng(1515)
        cases = []
        for _ in range(60):
            diagram = random_mixed_diagram(rng)
            es = [n for n in diagram.nodes if n.startswith("E")]
            xs = [n for n in diagram.nodes if n.startswith("X")]
            a, b = (str(n) for n in rng.choice(diagram.nodes, size=2, replace=False))
            cases.append((diagram, [("Y", xs, es), ("Y", xs[1:] or xs, es), ("Y", xs[:1], None), (xs[-1], ["E1"], None), (a, [b], None)]))
        for d in make_diagrams(1, 60):
            diagram = graph.CausalDiagram(d["nodes"], [(s, t) for s, t, _ in d["edges"]], [(a, b) for a, b, _ in d["bicov"]])
            cases.append((diagram, [("Y", d["exposures"], d["instruments"]), ("X1", ["E1"], None)]))
        conditions = collections.Counter()
        for diagram, questions in cases:
            fresh = graph.CausalDiagram(diagram.nodes, diagram.directed_edges, diagram.bidirected_edges)
            for outcome, exposures, candidates in questions:
                if candidates is None:
                    candidates = [n for n in diagram.nodes if n != outcome and n not in exposures]
                subset, result = graph.find_instrumental_subset(diagram, candidates, exposures, outcome)
                ref_subset, ref = reference_find(diagram, candidates, exposures, outcome)
                assert (subset, verdict(result)) == (ref_subset, verdict(ref))
                for instruments in itertools.combinations(candidates, len(exposures)):
                    expected = verdict(reference_check(diagram, instruments, exposures, outcome))
                    assert verdict(graph.check_instrumental_set(diagram, instruments, exposures, outcome)) == expected
                    assert verdict(graph.check_instrumental_set(fresh, instruments, exposures, outcome)) == expected
                    conditions[expected[1]] += 1
        assert min(conditions[c] for c in (None, 1, 2, 3)) >= 20, conditions

    @settings(max_examples=400, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(subset_questions())
    def test_subset_search_gives_the_reference_answer(self, question):
        # the candidates' facts, the skipped combinations and the pruned
        # search change no subset, verdict, exception or message; asked
        # twice, so that the second answer reads the memos of the first
        diagram, candidates, exposures, outcome = question
        fresh = graph.CausalDiagram(diagram.nodes, diagram.directed_edges, diagram.bidirected_edges)
        expected = search_outcome(reference_find, fresh, candidates, exposures, outcome)
        for _ in range(2):
            assert search_outcome(graph.find_instrumental_subset, diagram, candidates, exposures, outcome) == expected
        if len(candidates) < len(exposures):
            assert expected == (None, None)

    def test_descendant_instrument_fails_condition_one_above_the_path_cap(self):
        filler = [f"N{i}" for i in range(20)]
        diagram = graph.CausalDiagram(
            ["E1", "E2", "X1", "X2", "Y"] + filler,
            [("E1", "X1"), ("E2", "X2"), ("X1", "Y"), ("X2", "Y"), ("Y", "N0")],
        )
        result = graph.check_instrumental_set(diagram, ["N0", "E1"], ["X1", "X2"], "Y")
        assert verdict(result) == (False, 1, None, "instrument 'N0' is a descendant of 'Y'")
        with pytest.raises(PathEnumerationError):  # E1's paths come first
            graph.check_instrumental_set(diagram, ["E1", "N0"], ["X1", "X2"], "Y")
        with pytest.raises(PathEnumerationError):
            graph.check_instrumental_set(diagram, ["E1", "E2"], ["X1", "X2"], "Y")

    def test_fig1b_satisfied(self):
        diagram = graph.CausalDiagram(
            ["E1", "E2", "X1", "X2", "Y"],
            [("E1", "X1"), ("E2", "X2"), ("X1", "Y"), ("X2", "Y")],
            [("E1", "E2"), ("X1", "Y"), ("X2", "Y"), ("X1", "X2")],
        )
        result = graph.check_instrumental_set(diagram, ["E1", "E2"], ["X1", "X2"], "Y")
        assert result.satisfied
        assert result.failed_condition is None
        assert len(result.witness) == 2

    def test_fig1c_fails_condition_three(self):
        # one causal variant; the second connects to the exposures only
        # through LD with the first
        diagram = graph.CausalDiagram(
            ["E1", "E2", "X1", "X2", "Y"],
            [("E1", "X1"), ("E1", "X2"), ("X1", "Y"), ("X2", "Y")],
            [("E1", "E2")],
        )
        result = graph.check_instrumental_set(diagram, ["E1", "E2"], ["X1", "X2"], "Y")
        assert not result.satisfied
        assert result.failed_condition == 3

    def test_classical_single_iv(self):
        diagram = graph.CausalDiagram(
            ["E", "X", "Y"], [("E", "X"), ("X", "Y")], [("X", "Y")]
        )
        assert graph.check_instrumental_set(diagram, ["E"], ["X"], "Y").satisfied

    def test_pleiotropy_fails_condition_two(self):
        diagram = random_mvmr_graph(
            np.random.default_rng(3), n_exposures=2, sabotage="pleiotropy"
        )[0]
        result = graph.check_instrumental_set(diagram, ["E1", "E2"], ["X1", "X2"], "Y")
        assert not result.satisfied
        assert result.failed_condition == 2

    def test_outcome_among_instruments_rejected(self):
        diagram = graph.CausalDiagram(["E", "X", "Y"], [("E", "X"), ("X", "Y")])
        with pytest.raises(ValueError):
            graph.check_instrumental_set(diagram, ["Y"], ["X"], "Y")

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sabotage = rng.choice([None, "pleiotropy", "missing_variant"])
            diagram, sem, instruments, exposures, outcome, _ = random_mvmr_graph(
                rng, n_exposures=3, sabotage=sabotage
            )
            base = graph.check_instrumental_set(diagram, instruments, exposures, outcome)
            order = rng.permutation(len(instruments))
            shuffled = graph.check_instrumental_set(
                diagram, [instruments[i] for i in order], exposures, outcome
            )
            assert base.satisfied == shuffled.satisfied

    def test_condition_two_read_off_the_paths_equals_d_separation(self):
        # every ordering of each diagram's instruments; condition 1 is checked
        # first, so only its passes reach condition 2
        rng = np.random.default_rng(4004)
        reached = failed = 0
        for _ in range(150):
            diagram = random_mixed_diagram(rng)
            instruments = [n for n in diagram.nodes if n.startswith("E")]
            exposures = [n for n in diagram.nodes if n.startswith("X")]
            removed = [(x, "Y") for x in exposures if diagram.has_directed(x, "Y")]
            for ordering in itertools.permutations(instruments):
                result = graph.check_instrumental_set(diagram, ordering, exposures, "Y")
                if result.failed_condition == 1:
                    continue
                reached += 1
                connected = [e for e in ordering if not graph.d_separated(diagram, e, "Y", removed)]
                if connected:
                    failed += 1
                    expected = (False, 2, None, f"instrument {connected[0]!r} stays d-connected to 'Y' after removing all exposure edges")
                    assert (result.satisfied, result.failed_condition, result.witness, result.detail) == expected
                else:
                    assert result.failed_condition in (None, 3)
        assert failed >= 100 and reached - failed >= 100  # 224 and 195

    def test_combinatorial_cap(self):
        K = 9
        nodes = [f"E{i}" for i in range(K)] + [f"X{i}" for i in range(K)] + ["Y"]
        edges = [(f"E{i}", f"X{i}") for i in range(K)] + [
            (f"X{i}", "Y") for i in range(K)
        ]
        diagram = graph.CausalDiagram(nodes, edges)
        with pytest.raises(CombinatorialLimitError):
            graph.check_instrumental_set(
                diagram,
                [f"E{i}" for i in range(K)],
                [f"X{i}" for i in range(K)],
                "Y",
            )

    def test_find_instrumental_subset(self):
        # three candidate variants, two causal: some square subset works
        diagram = graph.CausalDiagram(
            ["E1", "E2", "E3", "X1", "X2", "Y"],
            [("E1", "X1"), ("E2", "X2"), ("X1", "Y"), ("X2", "Y")],
            [("E1", "E2"), ("E2", "E3"), ("E1", "E3")],
        )
        subset, result = graph.find_instrumental_subset(
            diagram, ["E1", "E2", "E3"], ["X1", "X2"], "Y"
        )
        assert result.satisfied
        assert set(subset) == {"E1", "E2"}


class TestDiagramText:
    def test_round_trip_semantics(self):
        text = """
        # comment line
        edge E -> X 0.5
        edge X -> Y 0.3
        bicov X <-> Y 0.1
        var E 1.0
        var X 0.75
        var Y 0.8
        """
        diagram, sem = graph.parse_diagram_text(text)
        assert diagram.nodes == ("E", "X", "Y")
        assert sem.coefficient(diagram, "E", "X") == 0.5
        assert sem.error_covariance(diagram, "X", "Y") == 0.1
        assert sem.error_covariance(diagram, "E", "E") == 1.0

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(GraphStructureError):
            graph.parse_diagram_text("edge A -> B 0.5\nedge A -> B 0.2")

    def test_malformed_line_rejected(self):
        with pytest.raises(GraphStructureError):
            graph.parse_diagram_text("edge A => B 0.5")

    @pytest.mark.parametrize("line", ["edge A -> B inf", "bicov A <-> B nan", "var A -inf", "edge A -> B 1e999"])
    def test_non_finite_value_rejected_with_its_line(self, line):
        with pytest.raises(GraphStructureError, match="line 2: non-finite value"):
            graph.parse_diagram_text(f"edge A -> C 0.5\n{line}")
