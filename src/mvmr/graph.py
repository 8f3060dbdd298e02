"""Linear structural equation models on mixed causal diagrams.

A causal diagram is a directed acyclic graph augmented with bidirected
edges that stand for correlated error terms (unobserved confounding).
Together with a coefficient matrix C and an error covariance matrix Psi
it defines the linear model

    X_i = sum_j C[i, j] * X_j + U_i,      cov(U_i, U_j) = Psi[i, j]

whose implied covariance matrix is (I - C)^-1 Psi (I - C^T)^-1.  For a
standardized model (unit implied variances) the same covariances can be
obtained by summing path products over unblocked paths (the method of path
coefficients); both routes are implemented here and cross-checked in the
test suite.  The path search never steps through a collider, so it only
ever walks unblocked paths, and it memoises them per endpoint pair on the
immutable diagram, so the instrumental-set search and the path sums share
one enumeration.

The module also provides the graphical instrumental-set check that
underpins identification of direct effects in multivariable MR with
correlated instruments.  Each question is answered once per diagram: the
diagram memoises every fact it gives alone (paths, screens, descendants,
pairwise path compatibility, and for d-separation the parent map of each
removed-edge set and each node's ancestry in it).  A subset search reads
each candidate's facts once, skips the subsets those facts already fail
on conditions 1 or 2, and runs the one pruned witness search of
condition 3 only on the rest.  Each SEM solves for its implied covariance
and its distance from unit variances once.  Both objects are immutable,
so no memo goes stale.  Unconditional d-separation for any diagram, above
the path cap ``MAX_PATH_NODES`` too, is a separate ancestral-set test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CombinatorialLimitError,
    GraphStructureError,
    PathEnumerationError,
    StandardizationError,
    UnknownNodeError,
)

DIRECTED = "directed"
BIDIRECTED = "bidirected"
MAX_SET_SIZE = 8  # largest instrumental set whose orderings the check searches
MAX_PATH_NODES = 20  # largest diagram whose unblocked paths are enumerated


def _normalize_pair(a, b):
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class CausalDiagram:
    """Mixed graph of directed (causal) and bidirected (confounding) edges.

    Parameters
    ----------
    nodes : sequence of str
        Unique variable names.
    directed_edges : sequence of (source, target)
        Directed edges; must form an acyclic graph.
    bidirected_edges : sequence of (a, b)
        Unordered pairs of nodes with correlated errors.
    """

    nodes: tuple
    directed_edges: tuple
    bidirected_edges: tuple = ()

    def __init__(self, nodes, directed_edges, bidirected_edges=()):
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(
            self, "directed_edges", tuple((s, t) for s, t in directed_edges)
        )
        object.__setattr__(
            self,
            "bidirected_edges",
            tuple(_normalize_pair(a, b) for a, b in bidirected_edges),
        )
        self._validate()

    def _validate(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphStructureError("node names must be unique")
        known = set(self.nodes)
        for s, t in self.directed_edges:
            if s not in known or t not in known:
                raise UnknownNodeError(f"edge ({s}, {t}) references unknown node")
            if s == t:
                raise GraphStructureError(f"self loop on {s!r}")
        for a, b in self.bidirected_edges:
            if a not in known or b not in known:
                raise UnknownNodeError(f"bidirected edge ({a}, {b}) references unknown node")
            if a == b:
                raise GraphStructureError(f"bidirected self loop on {a!r}")
        if len(set(self.directed_edges)) != len(self.directed_edges):
            raise GraphStructureError("duplicate directed edge")
        if len(set(self.bidirected_edges)) != len(self.bidirected_edges):
            raise GraphStructureError("duplicate bidirected edge")
        self._topological_order  # raises on cycles

    @property
    def n_nodes(self):
        return len(self.nodes)

    # The diagram is immutable, so its lookups are built once on first use.
    # They live in the instance ``__dict__``, outside the dataclass fields,
    # and so take no part in ``==``, ``hash`` or ``repr``.

    @cached_property
    def _position(self):
        return {node: k for k, node in enumerate(self.nodes)}

    @cached_property
    def _directed_set(self):
        return frozenset(self.directed_edges)

    @cached_property
    def _bidirected_set(self):
        return frozenset(self.bidirected_edges)

    @cached_property
    def _adjacency(self):
        """node -> steps ``(edge, next node, arrowhead at node, arrowhead at
        next node)``, directed edges first, each in declaration order."""
        steps = {node: [] for node in self.nodes}
        for s, t in self.directed_edges:
            steps[s].append((PathEdge(DIRECTED, s, t, True), t, False, True))
            steps[t].append((PathEdge(DIRECTED, s, t, False), s, True, False))
        for u, v in self.bidirected_edges:
            steps[u].append((PathEdge(BIDIRECTED, u, v, True), v, True, True))
            steps[v].append((PathEdge(BIDIRECTED, u, v, False), u, True, True))
        return {node: tuple(out) for node, out in steps.items()}

    @cached_property
    def _memo(self):
        """Facts computed once per diagram: ``("paths", a, b)`` the unblocked
        paths from a to b, ``("descendants", y)`` those of y, ``("screen",
        e, y)`` :func:`_screen` of e for y, ``("pair", id(p), id(q))``
        :func:`_pair_ok` of paths p and q (the "paths" entries keep every
        path alive, so the ids stay valid), and for :func:`d_separated`
        ``("parents", removed)`` the parent map once the frozen edge set
        ``removed`` goes and ``("ancestry", removed, n)`` the ancestors of
        n in it (a set naming an edge the diagram lacks is never stored)."""
        return {}

    def index(self, node):
        try:
            return self._position[node]
        except (KeyError, TypeError):
            raise UnknownNodeError(f"unknown node {node!r}") from None

    def has_directed(self, source, target):
        return (source, target) in self._directed_set

    def has_bidirected(self, a, b):
        return _normalize_pair(a, b) in self._bidirected_set

    def children(self, node):
        self.index(node)
        return [
            nxt for edge, nxt, _, _ in self._adjacency[node]
            if edge.kind == DIRECTED and edge.forward
        ]

    def topological_order(self):
        """Node list with every edge source before its target."""
        return list(self._topological_order)

    @cached_property
    def _topological_order(self):
        """Raises :class:`GraphStructureError` on a directed cycle."""
        indeg = {n: 0 for n in self.nodes}
        for _, t in self.directed_edges:
            indeg[t] += 1
        frontier = [n for n in self.nodes if indeg[n] == 0]
        order = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for child in self.children(node):
                indeg[child] -= 1
                if indeg[child] == 0:
                    frontier.append(child)
        if len(order) != len(self.nodes):
            raise GraphStructureError("directed edges contain a cycle")
        return tuple(order)

    def descendants(self, node):
        """All nodes reachable from ``node`` along directed edges, incl. itself."""
        self.index(node)
        seen = {node}
        stack = [node]
        while stack:
            for child in self.children(stack.pop()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen


def _require_finite(C, psi):
    if not (np.all(np.isfinite(C)) and np.all(np.isfinite(psi))):
        raise GraphStructureError("coefficients and error covariances must be finite")


class SemParameters:
    """Coefficients and error covariances for a linear SEM.

    ``coefficients[i, j]`` is the direct effect of node j on node i, so a
    directed edge (j -> i) in the companion diagram corresponds to a
    nonzero entry at ``[i, j]``.  ``error_cov`` is the symmetric matrix of
    error (co)variances; off-diagonal entries correspond to bidirected
    edges.  Both are read-only copies and cannot be rebound, so the implied
    covariance matrix, and its largest distance from unit variances, are
    computed once per object.
    """

    def __init__(self, coefficients, error_cov):
        C = np.array(coefficients, dtype=float)
        psi = np.array(error_cov, dtype=float)
        C.flags.writeable = psi.flags.writeable = False
        object.__setattr__(self, "coefficients", C)
        object.__setattr__(self, "error_cov", psi)
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise GraphStructureError("coefficient matrix must be square")
        if psi.shape != C.shape:
            raise GraphStructureError("error covariance shape mismatch")
        _require_finite(C, psi)
        if not np.all(np.abs(psi - psi.T) <= 1e-12):
            raise GraphStructureError("error covariance must be symmetric")
        if np.any(np.diag(psi) <= 0):
            raise GraphStructureError("error variances must be positive")
        eigmin = np.linalg.eigvalsh(psi).min()
        if eigmin < -1e-10:
            raise GraphStructureError(
                f"error covariance not positive semidefinite (min eig {eigmin:.3e})"
            )

    def __setattr__(self, name, value):
        raise AttributeError(f"SemParameters is immutable; cannot set {name!r}")

    @property
    def n_nodes(self):
        return self.coefficients.shape[0]

    def coefficient(self, diagram, source, target):
        return self.coefficients[diagram.index(target), diagram.index(source)]

    def error_covariance(self, diagram, a, b):
        return self.error_cov[diagram.index(a), diagram.index(b)]

    @cached_property
    def _implied(self):
        p = self.n_nodes
        try:
            B = np.linalg.solve(np.eye(p) - self.coefficients, np.eye(p))
        except np.linalg.LinAlgError:
            raise GraphStructureError(
                "(I - C) is singular; the structural system contains a cycle"
            ) from None
        sigma = B @ self.error_cov @ B.T
        return (sigma + sigma.T) / 2.0

    @cached_property
    def _unit_variance_gap(self):
        """max |var - 1| over the implied variances."""
        return np.max(np.abs(np.diag(self._implied) - 1.0))


def sem_from_values(diagram, coefficients, error_cov=None, error_var=None):
    """Build :class:`SemParameters` from per-edge dictionaries.

    Parameters
    ----------
    coefficients : dict
        Maps directed edges ``(source, target)`` to coefficients.
    error_cov : dict, optional
        Maps bidirected pairs ``(a, b)`` to error covariances.
    error_var : dict, optional
        Per-node error variances; default 1.0.
    """
    return SemParameters(*_edge_matrices(diagram, coefficients, error_cov, error_var))


def _edge_matrices(diagram, coefficients, error_cov=None, error_var=None):
    """``(C, Psi)`` of :func:`sem_from_values`, filled but not yet checked."""
    p = diagram.n_nodes
    C = np.zeros((p, p))
    for (s, t), value in coefficients.items():
        if not diagram.has_directed(s, t):
            raise GraphStructureError(f"no directed edge {s} -> {t} in diagram")
        C[diagram.index(t), diagram.index(s)] = value
    psi = np.zeros((p, p))
    for node in diagram.nodes:
        variance = 1.0 if error_var is None else error_var.get(node, 1.0)
        psi[diagram.index(node), diagram.index(node)] = variance
    if error_cov:
        for (a, b), value in error_cov.items():
            if not diagram.has_bidirected(a, b):
                raise GraphStructureError(f"no bidirected edge {a} <-> {b} in diagram")
            i, j = diagram.index(a), diagram.index(b)
            psi[i, j] = psi[j, i] = value
    return C, psi


def implied_covariance(sem):
    """Model-implied covariance matrix ``(I - C)^-1 Psi (I - C^T)^-1``.

    Exact closed form, no sampling, solved once per SEM; each call gets a
    fresh copy.  Raises :class:`GraphStructureError` if (I - C) is
    singular, which cannot happen for acyclic systems.
    """
    return sem._implied.copy()


def calibrate_unit_variances(diagram, coefficients, error_cov=None):
    """Choose diagonal error variances so all implied variances equal one.

    Solves for the error variances node by node in topological order given
    the edge coefficients and bidirected error covariances.  Raises
    :class:`StandardizationError` when the requested coefficients leave no
    room for a positive error variance (implied variance already >= 1).
    The calibrated error covariance is checked once, by :class:`SemParameters`.
    """
    p = diagram.n_nodes
    C, psi = _edge_matrices(diagram, coefficients, error_cov)
    _require_finite(C, psi)  # before the solve, which reads inf as a singular (I - C)
    B = np.linalg.solve(np.eye(p) - C, np.eye(p))
    order = [diagram.index(n) for n in diagram._topological_order]
    off = psi.copy()
    np.fill_diagonal(off, 0.0)
    diag = [0.0] * p
    for pos, i in enumerate(order):
        other = float(B[i] @ off @ B[i])
        row = B[i].tolist()
        settled = 0.0  # a plain loop: sum() of floats compensates from Python 3.12
        for k in order[:pos]:
            settled += row[k] * row[k] * diag[k]
        value = 1.0 - other - settled
        if value <= 0:
            raise StandardizationError(
                f"cannot standardize node {diagram.nodes[i]!r}: "
                f"required error variance {value:.4g} <= 0"
            )
        diag[i] = value
    np.fill_diagonal(psi, diag)
    return SemParameters(C, psi)


# ---------------------------------------------------------------------------
# Path machinery


@dataclass(frozen=True)
class PathEdge:
    kind: str
    source: str
    target: str
    forward: bool  # True when walked tail->head (directed) or a->b order

    def arrow_at(self, node):
        """Whether this edge carries an arrowhead at ``node``."""
        if self.kind == BIDIRECTED:
            return True
        return node == self.target


@dataclass(frozen=True)
class Path:
    """A walk between two nodes visiting each node at most once."""

    nodes: tuple
    edges: tuple

    def __len__(self):
        return len(self.edges)

    def weight(self, diagram, sem):
        """Product of edge parameters along the path."""
        value = 1.0
        for edge in self.edges:
            if edge.kind == DIRECTED:
                value *= sem.coefficient(diagram, edge.source, edge.target)
            else:
                value *= sem.error_covariance(diagram, edge.source, edge.target)
        return value

    def final_directed_edge(self):
        last = self.edges[-1]
        if last.kind == DIRECTED and last.forward:
            return (last.source, last.target)
        return None


def enumerate_paths(diagram, a, b):
    """All unblocked paths between ``a`` and ``b``, in depth-first order.

    Each node appears at most once per path.  With no conditioning set a
    path is blocked exactly when some interior node is a collider, so the
    search never steps out of a node it entered through an arrowhead along
    an edge that also points at it: every path it finishes is unblocked and
    nothing blocked is walked past its first collider.  The result is
    memoised on the immutable diagram; each call gets a fresh list.  A
    diagram of more than ``MAX_PATH_NODES`` nodes is refused, because the
    number of mixed-edge paths grows combinatorially.
    """
    diagram.index(a)
    diagram.index(b)
    if diagram.n_nodes > MAX_PATH_NODES:
        raise PathEnumerationError(
            f"diagram has {diagram.n_nodes} nodes, exceeding the path "
            f"enumeration cap MAX_PATH_NODES = {MAX_PATH_NODES}"
        )
    if a == b:
        raise GraphStructureError("path enumeration requires distinct endpoints")

    memo = diagram._memo
    paths = memo.get(("paths", a, b))
    if paths is None:
        paths = memo[("paths", a, b)] = _unblocked_paths(diagram._adjacency, a, b)
    return list(paths)


def _unblocked_paths(adjacency, a, b):
    paths = []
    visited = {a}
    node_seq = [a]
    edge_seq = []

    def extend(node, entered_by_arrow):
        for edge, nxt, head_here, head_there in adjacency[node]:
            if nxt in visited or (entered_by_arrow and head_here):
                continue
            node_seq.append(nxt)
            edge_seq.append(edge)
            if nxt == b:
                paths.append(Path(tuple(node_seq), tuple(edge_seq)))
            else:
                visited.add(nxt)
                extend(nxt, head_there)
                visited.remove(nxt)
            node_seq.pop()
            edge_seq.pop()

    extend(a, False)
    return tuple(paths)


def wright_covariance(diagram, sem, a, b):
    """Covariance of two variables of a standardized model by summing the
    edge-parameter products of the unblocked paths between them.

    Valid only when the model's implied variances are all one, which is
    verified up to 1e-8; :func:`implied_covariance` serves any model.
    """
    diagram.index(a)
    diagram.index(b)
    gap = sem._unit_variance_gap
    if gap > 1e-8:
        raise StandardizationError(
            f"path sums require unit implied variances; max |var - 1| = {gap:.3e}"
        )
    if a == b:
        return 1.0
    total = 0.0
    for path in enumerate_paths(diagram, a, b):
        total += path.weight(diagram, sem)
    return total


# ---------------------------------------------------------------------------
# d-separation


def d_separated(diagram, a, b, removed_edges=()):
    """Unconditional d-separation after deleting the given directed edges.

    Two nodes are d-separated when no unblocked path connects them, which
    for an empty conditioning set is equivalent to sharing no ancestor in
    the graph where each bidirected edge is replaced by a latent common
    parent.  The parent map of each removed-edge set and each ancestry in
    it are memoised on the diagram.
    """
    diagram.index(a)
    diagram.index(b)
    removed = frozenset(removed_edges)
    memo = diagram._memo
    parents = memo.get(("parents", removed))
    if parents is None:
        extra = removed - diagram._directed_set
        if extra:
            raise GraphStructureError(f"removed edges not in diagram: {sorted(extra)}")
        parents = memo[("parents", removed)] = _parents(diagram, removed)
    if a == b:
        return False
    return _ancestry(memo, parents, removed, a).isdisjoint(_ancestry(memo, parents, removed, b))


def _parents(diagram, removed):
    """node -> parents once the edges ``removed`` go, each bidirected edge
    replaced by a latent common parent."""
    parents = {n: [] for n in diagram.nodes}
    for s, t in diagram.directed_edges:
        if (s, t) not in removed:
            parents[t].append(s)
    for k, (u, v) in enumerate(diagram.bidirected_edges):
        latent = ("__latent__", k)
        parents[latent] = ()
        parents[u].append(latent)
        parents[v].append(latent)
    return parents


def _ancestry(memo, parents, removed, node):
    key = ("ancestry", removed, node)
    seen = memo.get(key)
    if seen is None:
        seen = {node}
        stack = [node]
        while stack:
            for parent in parents[stack.pop()]:
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        seen = memo[key] = frozenset(seen)
    return seen


# ---------------------------------------------------------------------------
# Instrumental sets


@dataclass
class InstrumentalSetResult:
    satisfied: bool
    failed_condition: int | None = None
    witness: tuple | None = None  # ordered (instrument, Path) pairs
    detail: str = ""

    def __bool__(self):
        return self.satisfied


def _suffix_points_to(path, position):
    """Whether the truncation of ``path`` from node ``position`` onwards
    points at that node (arrowhead on the suffix's first edge)."""
    if position == len(path.nodes) - 1:  # suffix is the endpoint itself
        return True
    return path.edges[position].arrow_at(path.nodes[position])


def _prefix_points_to(path, position):
    """Whether the truncation of ``path`` up to node ``position`` points at
    that node (arrowhead on the prefix's last edge)."""
    if position == 0:
        return True
    return path.edges[position - 1].arrow_at(path.nodes[position])


def _pair_ok(path_i, path_j):
    """Condition-3 compatibility of an earlier path with a later one."""
    nodes_i = path_i.nodes
    if path_j.nodes[0] in nodes_i:  # the later path's instrument
        return False
    for pos_j, node in enumerate(path_j.nodes):
        if node not in nodes_i:
            continue
        if node == nodes_i[-1] and node == path_j.nodes[-1]:
            continue  # shared outcome endpoint; both final edges point at it
        if not _suffix_points_to(path_i, nodes_i.index(node)):
            return False
        if not _prefix_points_to(path_j, pos_j):
            return False
    return True


def _perfect_matching_exists(candidates, n):
    """Bipartite matching test: candidates[i] = set of usable columns."""
    match = [-1] * n

    def augment(i, seen):
        for j in candidates[i]:
            if j in seen:
                continue
            seen.add(j)
            if match[j] == -1 or augment(match[j], seen):
                match[j] = i
                return True
        return False

    return all(augment(i, set()) for i in range(n))


def _screen(diagram, instrument, outcome):
    """The instrument's unblocked paths to the outcome in enumeration order,
    grouped by x if they end in ``x -> outcome``, else under ``None``.
    Memoised on the diagram; a diagram over the path cap raises before any
    screen is stored."""
    key = ("screen", instrument, outcome)
    groups = diagram._memo.get(key)
    if groups is None:
        groups = {}
        for path in enumerate_paths(diagram, instrument, outcome):
            final = path.final_directed_edge()
            groups.setdefault(final and final[0], []).append(path)
        diagram._memo[key] = groups
    return groups


def _descendants(diagram, node):
    """Memoised frozenset of ``diagram.descendants(node)``."""
    key = ("descendants", node)
    found = diagram._memo.get(key)
    if found is None:
        found = diagram._memo[key] = frozenset(diagram.descendants(node))
    return found


def _validate(diagram, instruments, exposures, outcome):
    """Refuse a malformed question to :func:`check_instrumental_set`."""
    diagram.index(outcome)
    for node in itertools.chain(instruments, exposures):
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
        raise ValueError(
            "need exactly one instrument per exposure; pre-select a square "
            "subset (see find_instrumental_subset)"
        )
    K = len(exposures)
    if K > MAX_SET_SIZE:
        raise CombinatorialLimitError(
            f"instrumental-set search over {K}! orderings not supported "
            f"(at most {MAX_SET_SIZE} instruments)"
        )


def check_instrumental_set(diagram, instruments, exposures, outcome):
    """Check the graphical instrumental-set condition.

    Searches for an ordering of the instruments together with one unblocked
    path per instrument, each ending in a distinct exposure -> outcome edge,
    such that

    1. every instrument is a non-descendant of the outcome and owns such a
       path,
    2. every instrument is d-separated from the outcome once all
       exposure -> outcome edges are removed, and
    3. later instruments do not appear on earlier paths, and whenever two
       chosen paths share a variable V, the earlier path's tail (from V to
       the outcome) and the later path's head (up to V) both point at V.

    Returns an :class:`InstrumentalSetResult` carrying the witness pairs on
    success and the first violated condition otherwise.  Each instrument's
    paths, sorted for conditions 1 and 2, and each pairwise test of
    condition 3 are memoised on the immutable diagram, so every question
    about one diagram classifies each instrument and tests each path pair
    once.
    """
    instruments = list(instruments)
    exposures = list(exposures)
    _validate(diagram, instruments, exposures, outcome)

    # Condition 1: non-descendance plus existence of a compatible path
    # assignment (instrument -> exposure edge) in the bipartite sense.
    outcome_descendants = _descendants(diagram, outcome)
    screens = []
    for e in instruments:
        if e in outcome_descendants:
            return InstrumentalSetResult(
                False, 1, None, f"instrument {e!r} is a descendant of {outcome!r}"
            )
        screens.append(_screen(diagram, e, outcome))

    usable = [{j for j, x in enumerate(exposures) if x in screen} for screen in screens]
    if not _perfect_matching_exists(usable, len(exposures)):
        return InstrumentalSetResult(
            False,
            1,
            None,
            "no assignment of unblocked instrument-outcome paths covers "
            "every exposure edge",
        )

    # Condition 2: d-separation once all exposure -> outcome edges go.  A
    # removed edge can only be the last edge of a path to the outcome, so an
    # instrument stays d-connected exactly when one of its unblocked paths
    # does not end in an exposure edge.
    wanted = set(exposures)
    connected = [e for e, screen in zip(instruments, screens) if not screen.keys() <= wanted]
    if connected:
        return InstrumentalSetResult(
            False,
            2,
            None,
            f"instrument {connected[0]!r} stays d-connected to {outcome!r} after "
            "removing all exposure edges",
        )

    witness = _witness(diagram._memo, instruments, exposures, screens)
    if witness is None:
        return InstrumentalSetResult(
            False,
            3,
            None,
            "no instrument ordering and path choice satisfies the pairwise "
            "common-variable rule",
        )
    return InstrumentalSetResult(True, None, witness, "instrumental set")


def _witness(memo, instruments, exposures, screens):
    """Condition 3: the first ordered witness ``((instrument, path), ...)``,
    or ``None``.

    A depth-first search over the flattened (instrument, exposure, path)
    list in that order; each step takes the first item left that is
    compatible with every path chosen so far, so the witness is the one a
    plain search over every ordering finds first.  Sets of items are int
    bitmasks.  Pruning cuts only branches without a witness: a chosen set
    already found dead (the order of its paths is immaterial), or one that
    leaves some remaining instrument no allowed path.
    """
    items = [
        (i, j, path)
        for i, screen in enumerate(screens)
        for j, x in enumerate(exposures)
        for path in screen.get(x, ())
    ]
    own = [0] * len(instruments)  # instrument -> its items
    taken = [0] * len(exposures)  # exposure -> its items
    for t, (i, j, _) in enumerate(items):
        own[i] |= 1 << t
        taken[j] |= 1 << t
    # item c -> the items tested as later paths after it, and those that passed
    tested = [own[i] | taken[j] for i, j, _ in items]
    later = [0] * len(items)
    dead = set()
    chosen = []

    def compatible_after(c, allowed):
        untested = allowed & ~tested[c]
        if untested:
            earlier = items[c][2]
            tested[c] |= untested
            while untested:
                bit = untested & -untested
                untested ^= bit
                path = items[bit.bit_length() - 1][2]
                key = ("pair", id(earlier), id(path))
                ok = memo.get(key)
                if ok is None:
                    ok = memo[key] = _pair_ok(earlier, path)
                if ok:
                    later[c] |= bit
        return allowed & later[c]

    def search(state, allowed, left):
        if left == 0:
            return True
        if state in dead:
            return False
        # a used instrument has no allowed item left, so fewer instruments
        # with one than instruments to place means one of these is starved
        if sum(1 for mask in own if allowed & mask) == left:
            rest = allowed
            while rest:
                bit = rest & -rest
                rest ^= bit
                c = bit.bit_length() - 1
                chosen.append(c)
                if search(state | bit, compatible_after(c, allowed), left - 1):
                    return True
                chosen.pop()
        dead.add(state)
        return False

    if not search(0, (1 << len(items)) - 1, len(instruments)):
        return None
    return tuple((instruments[items[c][0]], items[c][2]) for c in chosen)


def _is_node(diagram, node):
    try:
        return node in diagram._position
    except TypeError:  # unhashable
        return False


def find_instrumental_subset(diagram, candidates, exposures, outcome):
    """First square subset of ``candidates`` forming an instrumental set.

    Returns ``(subset, result)``: ``subset`` is the first qualifying
    combination in ``itertools.combinations`` order, with its
    :func:`check_instrumental_set` result.  When none qualifies, ``subset``
    is ``None`` and ``result`` the verdict of the last combination, from
    one exact check (``None`` if there are fewer candidates than
    exposures).  A combination that the check refuses raises where the
    search reaches it.

    Each candidate's facts are read once: whether it descends from the
    outcome, and from its screen the exposures it reaches and whether it
    stays d-connected once the exposure edges go.  A combination these
    facts already fail on conditions 1 or 2 is skipped, so the full check
    and its witness search run only on the rest; when some exposure is
    reached by no candidate that passes alone, none is tried.
    """
    candidates, exposures = list(candidates), list(exposures)
    K = len(exposures)
    if len(candidates) < K:
        return None, None
    last = candidates[len(candidates) - K:]
    _validate(diagram, candidates[:K], exposures, outcome)  # the question's own faults
    # a list of distinct nodes other than the outcome and the exposures
    # makes every combination well formed; else each one is validated
    plain = (
        all(_is_node(diagram, e) for e in candidates)
        and len(set(candidates)) == len(candidates)
        and outcome not in candidates
        and set(candidates).isdisjoint(exposures)
    )
    outcome_descendants = _descendants(diagram, outcome)
    position = {x: j for j, x in enumerate(exposures)}
    reaches = {}

    def reach(e):
        """The exposure positions e has unblocked paths through, or None if
        e fails alone: it descends from the outcome (condition 1) or one of
        its paths ends in another edge (condition 2)."""
        if e not in reaches:
            if e in outcome_descendants:
                reaches[e] = None
            else:  # raises over the path cap, as the check does
                screen = _screen(diagram, e, outcome)
                reaches[e] = {position[x] for x in screen} if screen.keys() <= position.keys() else None
        return reaches[e]

    def passes(subset):
        """Whether the facts leave conditions 1 and 2 open; read in the
        check's order, so that over the path cap they raise where it does."""
        usable = []
        for e in subset:
            if reach(e) is None:
                return False
            usable.append(reach(e))
        return _perfect_matching_exists(usable, K)

    if plain and diagram.n_nodes <= MAX_PATH_NODES:  # no fact can raise
        candidates = [e for e in candidates if reach(e) is not None]
        if len(set().union(*map(reach, candidates))) < K:  # an exposure none of them reaches
            candidates = []
    for subset in itertools.combinations(candidates, K):
        if not plain:
            _validate(diagram, subset, exposures, outcome)
        if passes(subset):
            result = check_instrumental_set(diagram, subset, exposures, outcome)
            if result.satisfied:
                return list(subset), result
    return None, check_instrumental_set(diagram, last, exposures, outcome)


# ---------------------------------------------------------------------------
# Diagram text format


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise GraphStructureError(f"non-finite value {text!r}")
    return value


def parse_diagram_text(text):
    """Parse the one-declaration-per-line diagram format.

    Recognised lines (``#`` starts a comment)::

        edge A -> B 0.4      # directed edge with coefficient
        bicov A <-> B 0.25   # bidirected edge with error covariance
        var A 0.8            # error variance (default 1.0)

    Duplicate declarations and non-finite values are rejected with a
    :class:`GraphStructureError` naming the line.  Returns ``(diagram, sem)``.
    """
    nodes = []
    seen_nodes = set()
    coefficients = {}
    bicovs = {}
    variances = {}

    def register(name):
        if name not in seen_nodes:
            seen_nodes.add(name)
            nodes.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "edge" and len(parts) == 5 and parts[2] == "->":
                key = (parts[1], parts[3])
                if key in coefficients:
                    raise GraphStructureError(f"duplicate edge declaration {key}")
                coefficients[key] = _finite_float(parts[4])
                register(parts[1])
                register(parts[3])
            elif parts[0] == "bicov" and len(parts) == 5 and parts[2] == "<->":
                key = _normalize_pair(parts[1], parts[3])
                if key in bicovs:
                    raise GraphStructureError(f"duplicate bicov declaration {key}")
                bicovs[key] = _finite_float(parts[4])
                register(parts[1])
                register(parts[3])
            elif parts[0] == "var" and len(parts) == 3:
                if parts[1] in variances:
                    raise GraphStructureError(
                        f"duplicate var declaration for {parts[1]!r}"
                    )
                variances[parts[1]] = _finite_float(parts[2])
                register(parts[1])
            else:
                raise GraphStructureError(f"unrecognised declaration: {line!r}")
        except ValueError as exc:
            raise GraphStructureError(f"line {lineno}: {exc}") from None

    diagram = CausalDiagram(nodes, list(coefficients), list(bicovs))
    sem = sem_from_values(diagram, coefficients, bicovs, variances)
    return diagram, sem
