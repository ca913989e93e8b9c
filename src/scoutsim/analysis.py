"""Exact structural analysis of a scout's underlying automaton.

Under the empty environment a single scout's state marginal is a finite
Markov chain.  This module reduces a protocol to that chain, decomposes it
into strongly connected classes, solves stationary distributions exactly
whenever the rule probabilities are rational (fraction-free elimination on
integers, see :func:`_solve_exact`), and derives the quantities the
structural dichotomies hinge on: per-class drift vectors, displacement
degeneracy with explicit potential offsets or a witness cycle, product
chains of scout pairs, the difference drift, and thick-ray domains.

Exactness matters here: whether a drift is zero, and whether return
displacements vanish identically, are sign/support questions that floating
point cannot settle.  The support is decided once, by :func:`_edges`: a
zero-probability entry is no edge (:attr:`ReducedKernel.support`).  The
classes, stationary laws, degeneracy potentials (one breadth-first search,
:func:`_bfs`) and the product walk all read it.  :func:`difference_drift`
walks the product only to find its first reachable recurrent class, and
never solves that class's law: by independence its drift is drift1 - drift2.

Sampling from the reduced chain runs on the engine's one stepped simulator:
:func:`_kernel_sim` writes the kernel's rows as a protocol of wildcard
rules and :class:`engine.VectorSim` steps it.  Return triples
(:func:`kernel_renewal_samples`) read a one-scout copy, and pilot runs for
ray widths (:func:`ray_domain`) the second scout of a two-scout copy, so
step t+1 of chain i uses the uniform at counter (i, lane, t) with lane 0
and 1.  Being keyed by the absolute counter, no value depends on the block
lengths or on when finished chains are dropped.  A kernel that VectorSim
cannot step is refused: one of more than 63 states (ProtocolError) or of
a dimension above 2 (PreconditionError), such as the full product of two
planar kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import PreconditionError
from .protocol import EnvPattern, Outcome, ProtocolError, ScoutProtocol, TransitionRule
from .engine import VectorSim, _compile, _unpack

STATIONARY_RESIDUAL_TOL = 1e-12
# an estimated ray width reads this many pilot runs of this many steps
_PILOT_RUNS = 200
_PILOT_STEPS = 512
# kernel_renewal_samples raises when a chain has not returned in this many steps
_RETURN_STEPS = 10**7


@dataclass(frozen=True)
class KernelEntry:
    probability: Fraction | float
    to: int
    move: tuple[int, ...]


def _edges(row) -> tuple[KernelEntry, ...]:
    """A row's positive-probability entries: the one place the module decides
    that a zero-probability entry is no edge.  Exactly: a rational below float
    range is an edge, and a float product that underflowed to 0.0 is not."""
    return tuple(e for e in row if e.probability > 0)


@dataclass(frozen=True)
class ReducedKernel:
    """Empty-environment transition kernel of one scout."""

    dim: int
    states: tuple[str, ...]
    rows: tuple[tuple[KernelEntry, ...], ...]
    initial_state: int = 0

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def is_exact(self) -> bool:
        """Every probability is a Fraction and every row sums to exactly 1.

        Computed once per kernel: the rows are immutable.
        """
        for row in self.rows:
            total = Fraction(0)
            for e in row:
                if not isinstance(e.probability, Fraction):
                    return False
                total += e.probability
            if total != 1:
                return False
        return True

    @cached_property
    def support(self) -> tuple[tuple[KernelEntry, ...], ...]:
        """Each state's edges (see :func:`_edges`): the support digraph."""
        return tuple(_edges(row) for row in self.rows)


def reduce_kernel(p: ScoutProtocol, scout: int = 1) -> ReducedKernel:
    """Kernel rows a scout would follow if it never sensed anyone (1-based scout)."""
    if not 1 <= scout <= p.scouts:
        raise ValueError(f"scout index {scout} out of range 1..{p.scouts}")
    comp = _compile(p)
    rows = []
    for q in range(comp.n_states):
        row_idx = comp.dispatch_row(q, 0)
        if row_idx < 0:
            raise ProtocolError(
                f"state {p.state_names[q]!r} has no empty-environment rule")
        rule = p.rules[row_idx]
        rows.append(tuple(KernelEntry(o.probability, comp.state_index[o.state], o.move)
                          for o in rule.outcomes))
    return ReducedKernel(p.dim, p.state_names, tuple(rows),
                         initial_state=comp.state_index[p.initial_states[scout - 1]])


# ---------------------------------------------------------------------------
# class decomposition


@dataclass
class DegeneracyVerdict:
    """Outcome of the displacement-potential check on one recurrent class.

    Degenerate means every support cycle has zero net displacement; the
    offsets then pin each state to a single point relative to the class
    anchor.  Otherwise some cycle with nonzero net displacement exists and
    is returned as a witness.
    """

    degenerate: bool
    offsets: dict[str, tuple[int, ...]] | None = None
    witness_cycle: tuple[tuple[str, tuple[int, ...], str], ...] | None = None
    radius: float = 0.0

    def to_json(self) -> dict:
        return {
            "degenerate": self.degenerate,
            "offsets": None if self.offsets is None else
                {k: list(v) for k, v in self.offsets.items()},
            "witness_cycle": None if self.witness_cycle is None else
                [[a, list(m), b] for a, m, b in self.witness_cycle],
            "radius": self.radius,
        }


@dataclass
class ClassInfo:
    states: tuple[str, ...]
    recurrent: bool
    pi: list | None = None                      # stationary distribution (Fraction or float)
    drift: tuple | None = None                  # per-step expected displacement
    degeneracy: DegeneracyVerdict | None = None
    ray_direction: tuple[float, ...] | None = None
    ray_zero_flag: bool = False

    def to_json(self) -> dict:
        def num(x):
            if isinstance(x, Fraction):
                return str(x)
            return None if x is None else float(x)
        return {
            "states": list(self.states),
            "recurrent": self.recurrent,
            "pi": None if self.pi is None else [num(v) for v in self.pi],
            "drift": None if self.drift is None else [num(v) for v in self.drift],
            "degeneracy": None if self.degeneracy is None else self.degeneracy.to_json(),
            "ray_direction": None if self.ray_direction is None else list(self.ray_direction),
            "ray_zero_flag": self.ray_zero_flag,
        }


@dataclass
class ClassReport:
    kernel: ReducedKernel
    classes: list[ClassInfo]

    def recurrent_classes(self) -> list[ClassInfo]:
        return [c for c in self.classes if c.recurrent]

    def to_json(self) -> dict:
        return {"states": list(self.kernel.states),
                "classes": [c.to_json() for c in self.classes]}


def classes(k: ReducedKernel) -> ClassReport:
    """Strongly connected classes of the support digraph with recurrence flags.

    A class is recurrent exactly when no support edge leaves it.
    """
    return ClassReport(k, [ClassInfo(tuple(k.states[q] for q in mem), closed)
                           for mem, closed in _components([[e.to for e in row]
                                                           for row in k.support])])


def _components(succ: Sequence[Sequence[int]]) -> list[tuple[list[int], bool]]:
    """Strongly connected classes of the digraph with successor lists
    ``succ``, ordered by their lowest member, members ascending, each with
    whether no edge leaves it.

    One depth-first pass of Tarjan's algorithm (SIAM J. Comput. 1972),
    linear in nodes plus edges.  It keeps its own stack of (node, successor
    iterator) frames, so no graph meets the recursion limit.  Self-loops
    and repeated edges change nothing.
    """
    n = len(succ)
    order = [-1] * n  # discovery index of each node, -1 before it
    low = [0] * n  # lowest discovery index it reaches on the stack
    label = [-1] * n  # class of each node, -1 while it is on the stack
    stack: list[int] = []
    found: list[list[int]] = []
    seen = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = seen
        seen += 1
        stack.append(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            q, edges = frames[-1]
            for to in edges:
                if order[to] < 0:
                    order[to] = low[to] = seen
                    seen += 1
                    stack.append(to)
                    frames.append((to, iter(succ[to])))
                    break
                if label[to] < 0:
                    low[q] = min(low[q], order[to])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[q])
                if low[q] == order[q]:
                    mem = []
                    while not mem or mem[-1] != q:
                        mem.append(stack.pop())
                        label[mem[-1]] = len(found)
                    found.append(sorted(mem))
    return [(mem, all(label[to] == label[mem[0]] for q in mem for to in succ[q]))
            for mem in sorted(found)]


# ---------------------------------------------------------------------------
# stationary distributions and drift


def _solve_exact(A: Sequence[Sequence], b: Sequence) -> list[Fraction]:
    """Solve A x = b for a nonsingular rational (int or Fraction) system.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968) on integers: each
    row of [A | b] is first scaled by the lcm of its denominators.  Step k
    replaces every entry off the pivot row by (p_k m_ij - m_ik m_kj) / p_{k-1},
    where p_k is the step's pivot and p_{-1} = 1.  By Sylvester's identity
    every entry is then a minor of the scaled (row-permuted) matrix, so each
    division is exact and no rational arithmetic runs.  At the end every
    diagonal entry is the last pivot, +-det, and x_i = m_in / m_ii.  A
    column with no nonzero pivot candidate means A is singular.
    """
    n = len(A)
    M = []
    for row, rhs in zip(A, b):
        entries = list(row) + [rhs]
        scale = math.lcm(*(x.denominator for x in entries))
        M.append([x.numerator * (scale // x.denominator) for x in entries])
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if M[r][k]), None)
        if pivot is None:
            raise ArithmeticError("singular system")
        M[k], M[pivot] = M[pivot], M[k]
        row_k = M[k]
        p = row_k[k]
        for i, row in enumerate(M):
            if i == k:
                continue
            f = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (p * row[j] - f * row_k[j]) // prev
            row[k] = 0
            if i < k:
                row[i] = p
        prev = p
    return [Fraction(row[n], row[i]) for i, row in enumerate(M)]


def stationary_distribution(k: ReducedKernel, cls: Sequence[str]):
    """Stationary law of the chain restricted to a recurrent class.

    Exact rationals when the kernel is rational: the balance equations
    (P^T - I) pi = 0, one of them replaced by sum(pi) = 1, are solved by
    :func:`_solve_exact` and the result is checked against every balance
    equation.  Otherwise a float solve checked to residual 1e-12.
    """
    idx = [k.states.index(s) for s in cls]
    pos = {q: j for j, q in enumerate(idx)}
    m = len(idx)
    edges = []  # (from, to, probability) on the class
    for j, q in enumerate(idx):
        for e in k.support[q]:
            if e.to not in pos:
                raise PreconditionError(f"class {cls} is not closed")
            edges.append((j, pos[e.to], e.probability))
    if k.is_exact:
        A = [[0] * m for _ in range(m)]       # A = P^T - I on the class
        for j, to, p in edges:
            A[to][j] += p
        for j in range(m):
            A[j][j] -= 1
        pi = _solve_exact(A[:-1] + [[1] * m], [0] * (m - 1) + [1])
        # exact residual check on pi scaled to integers
        den = math.lcm(*(x.denominator for x in pi))
        scaled = [x.numerator * (den // x.denominator) for x in pi]
        if any(sum(a * v for a, v in zip(row, scaled)) for row in A):
            raise ArithmeticError("exact stationarity failed")
        return pi
    Pm = np.zeros((m, m))
    for j, to, p in edges:
        Pm[j, to] += float(p)
    A = np.zeros((m + 1, m))
    A[:m] = Pm.T - np.eye(m)
    A[m, :] = 1.0
    b = np.zeros(m + 1)
    b[m] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.max(np.abs(pi @ Pm - pi)))
    if resid > STATIONARY_RESIDUAL_TOL:
        raise ArithmeticError(f"stationary residual {resid} exceeds tolerance")
    return [float(x) for x in pi]


def _recurrent_class(k: ReducedKernel, cls: Sequence[str]) -> ClassInfo:
    """The class of ``k`` whose states are ``cls``, which must be recurrent."""
    cls_set = frozenset(cls)
    info = next((c for c in classes(k).classes if frozenset(c.states) == cls_set), None)
    if info is None:
        raise PreconditionError(f"{sorted(cls)} is not a class of the kernel")
    if not info.recurrent:
        raise PreconditionError(f"class {sorted(cls)} is transient")
    return info


def _drift(k: ReducedKernel, states: Sequence[str], pi) -> tuple:
    """sum_q pi(q) * E[move | q] over a class with stationary law ``pi``."""
    zero = Fraction(0) if k.is_exact else 0.0
    drift = [zero] * k.dim
    for weight, name in zip(pi, states):
        q = k.states.index(name)
        for e in k.rows[q]:
            for a in range(k.dim):
                drift[a] = drift[a] + weight * e.probability * e.move[a]
    return tuple(drift)


def effective_drift(k: ReducedKernel, cls: Sequence[str]):
    """Mean displacement per unit time on a recurrent class.

    Computed as sum_q pi(q) * E[move | q]; by the renewal-reward identity
    this equals the displacement-per-return over return-time ratio at any
    state of the class.  Exact rationals on the rational path.
    """
    info = _recurrent_class(k, cls)
    return _drift(k, info.states, stationary_distribution(k, info.states))


# ---------------------------------------------------------------------------
# degeneracy (displacement potentials)


def degeneracy_check(k: ReducedKernel, cls: Sequence[str]) -> DegeneracyVerdict:
    """Decide whether return displacements vanish identically on a class.

    Breadth-first potential propagation over support edges: x[root] = 0 and
    every support edge q -> q' with move m must satisfy x[q'] = x[q] + m.
    Any conflict yields a cycle with nonzero net displacement.
    """
    return _degeneracy(k, _recurrent_class(k, cls).states)


def _degeneracy(k: ReducedKernel, states: Sequence[str]) -> DegeneracyVerdict:
    root = min(k.states.index(s) for s in states)
    tree = _bfs(k.support, root)  # the class: it is closed and strongly connected
    x = {}
    for q, link in tree.items():
        x[q] = (0,) * k.dim if link is None else \
            tuple(a + m for a, m in zip(x[link[0]], link[1]))
    # the first inconsistent support edge in (BFS order, row order)
    conflict = next(((q, e.move, e.to) for q in tree for e in k.support[q]
                     if x[e.to] != tuple(a + m for a, m in zip(x[q], e.move))), None)
    if conflict is None:
        offsets = {k.states[q]: x[q] for q in sorted(tree)}
        radius = max((max(abs(c) for c in v) for v in offsets.values()), default=0)
        return DegeneracyVerdict(True, offsets=offsets, radius=float(radius))

    q, move, to = conflict
    back = _tree_path(_bfs(k.support, to), root)
    back_disp = tuple(sum(m[a] for _, m, _ in back) for a in range(k.dim))
    net1 = tuple(xa + ma + ba for xa, ma, ba in zip(x[q], move, back_disp))
    if any(net1):
        cycle = _tree_path(tree, q) + [conflict] + back
    else:
        # the all-tree route to `to` closes to a different (hence nonzero) sum
        cycle = _tree_path(tree, to) + back
    named = tuple((k.states[a], m, k.states[b]) for a, m, b in cycle)
    return DegeneracyVerdict(False, witness_cycle=named)


def _bfs(support, root: int) -> dict[int, tuple[int, tuple[int, ...]] | None]:
    """Breadth-first tree over ``support`` (rows of entries, by state) from
    ``root``: each reached state -> (parent, move), root -> None, in
    discovery order."""
    tree = {root: None}
    order = [root]
    for q in order:
        for e in support[q]:
            if e.to not in tree:
                tree[e.to] = (q, e.move)
                order.append(e.to)
    return tree


def _tree_path(tree, node: int) -> list[tuple[int, tuple[int, ...], int]]:
    """Edges (parent, move, child) of ``tree`` from its root to ``node``."""
    path = []
    while tree[node] is not None:
        par, move = tree[node]
        path.append((par, move, node))
        node = par
    return path[::-1]


# ---------------------------------------------------------------------------
# renewal sampling


@dataclass
class RenewalSamples:
    """Return-time triples at a marked state: displacement, duration, 2*duration."""

    zeta: np.ndarray   # (n, d) displacements over a return
    nu: np.ndarray     # (n,) return times
    R: np.ndarray      # (n,) look-around radii, 2 * nu

    @property
    def n(self) -> int:
        return int(self.nu.size)


def _kernel_sim(k: ReducedKernel, starts: Sequence[int], count: int,
                root_seed: int) -> VectorSim:
    """``count`` replicas of len(starts) independent copies of the reduced
    chain at the origin, copy i from state ``starts[i]``: the kernel's rows
    as a protocol of wildcard rules, one per state, for :class:`VectorSim`."""
    rules = tuple(TransitionRule(name, EnvPattern.wildcard(),
                                 tuple(Outcome(e.probability, k.states[e.to], e.move)
                                       for e in row))
                  for name, row in zip(k.states, k.rows))
    p = ScoutProtocol(k.dim, len(starts), k.states, (0,) * k.dim,
                      tuple(k.states[q] for q in starts), rules)
    return VectorSim(p, count, root_seed)


def kernel_renewal_samples(k: ReducedKernel, q0: str, count: int,
                           root_seed: int) -> RenewalSamples:
    """Sample i.i.d. return triples of the reduced chain observed at q0.

    The triples' law does not depend on history before the first visit to
    q0, so chains start at q0 directly: one scout of :func:`_kernel_sim`
    per chain, on lane 0, stopped at its first return.
    """
    rep = classes(k)
    home = next((c for c in rep.classes if q0 in c.states), None)
    if home is None or not home.recurrent:
        raise PreconditionError(f"state {q0!r} is not in a recurrent class")

    q0_idx = k.states.index(q0)
    zeta = np.zeros((count, k.dim), dtype=np.int64)
    nu = np.zeros(count, dtype=np.int64)
    sim = _kernel_sim(k, [q0_idx], count, root_seed)
    for t0, keys, states in sim.blocks(_RETURN_STEPS):
        back = states[..., 0] == q0_idx  # (B, R), or (1, R) on the i.i.d. branch
        done = back.any(axis=0)
        first = back[:, done].argmax(axis=0)
        ids = sim.replicas[done]
        zeta[ids] = _unpack(keys[first, done, 0], k.dim)
        nu[ids] = t0 + 1 + first  # all chains started at q0 at step 0
        sim.drop(done)
    if sim.n_active:
        raise RuntimeError("return sampling exceeded the step budget")
    return RenewalSamples(zeta, nu, 2 * nu)


# ---------------------------------------------------------------------------
# product chains


def _product_walk(k1: ReducedKernel, k2: ReducedKernel) -> dict[int, list[int]]:
    """Successors of each joint state q1 * n2 + q2 that two independent
    scouts reach from their initial pair.  A pair of support edges is an
    edge by the rule of :func:`_edges`: a product of two rationals always
    is (so it is not formed), and a float product that underflowed is not."""
    s1, s2, n2 = k1.support, k2.support, k2.n_states
    succ: dict[int, list[int]] = {}
    todo = [k1.initial_state * n2 + k2.initial_state]
    while todo:
        q = todo.pop()
        if q not in succ:
            q1, q2 = divmod(q, n2)
            succ[q] = row = [e1.to * n2 + e2.to for e1 in s1[q1] for e2 in s2[q2]
                             if isinstance(e1.probability, Fraction)
                             and isinstance(e2.probability, Fraction)
                             or e1.probability * e2.probability > 0]
            todo += row
    return succ


def difference_drift(p_or_pair):
    """Drift vector of the difference walk of two independent scouts.

    Accepts a two-scout protocol or a (kernel, kernel) pair.  The class is
    the first recurrent class reachable from the joint initial state, in
    the full product kernel's order; the product is walked only to find it
    and its law is never solved.  By independence that law has the scouts'
    own laws as marginals, so the drift is drift1 - drift2 over the scouts'
    classes that hold its factors.  A factor class that is not closed (only
    where a float product underflowed) raises PreconditionError.
    """
    if isinstance(p_or_pair, ScoutProtocol):
        if p_or_pair.scouts != 2:
            raise PreconditionError("joint product chain needs exactly two scouts")
        k1, k2 = reduce_kernel(p_or_pair, 1), reduce_kernel(p_or_pair, 2)
    else:
        k1, k2 = p_or_pair
    if k1.dim != k2.dim:
        raise ValueError("kernels must share a dimension")
    succ = _product_walk(k1, k2)
    joint = sorted(succ)
    index = {q: i for i, q in enumerate(joint)}
    first = next(mem for mem, closed in _components([[index[to] for to in succ[q]]
                                                     for q in joint]) if closed)
    drifts = []
    for k, q in zip((k1, k2), divmod(joint[first[0]], k2.n_states)):
        cls = next(c.states for c in classes(k).classes if k.states[q] in c.states)
        drifts.append(_drift(k, cls, stationary_distribution(k, cls)))
    return tuple(a - b for a, b in zip(*drifts))


# ---------------------------------------------------------------------------
# thick rays


@dataclass(frozen=True)
class ThickRay:
    """Half-strip of width M: |<x, a_perp>| < M and <x, a> > -M.

    ``direction None`` is the zero-drift flag; membership then degenerates
    to the sup-norm ball of radius M.
    """

    direction: tuple[float, float] | None
    width: float

    def contains(self, x: Sequence[float]) -> bool:
        if self.direction is None:
            return max(abs(float(v)) for v in x) < self.width
        ax, ay = self.direction
        along = float(x[0]) * ax + float(x[1]) * ay
        perp = -float(x[0]) * ay + float(x[1]) * ax
        return abs(perp) < self.width and along > -self.width

    def to_json(self) -> dict:
        return {"direction": None if self.direction is None else list(self.direction),
                "width": self.width,
                "zero_flag": self.direction is None}


@dataclass
class ClassRay:
    states: tuple[str, ...]
    ray: ThickRay
    width_source: str          # "user" | "estimate" | "exact-offsets"
    ambiguous_zero_drift: bool = False

    def to_json(self) -> dict:
        body = self.ray.to_json()
        body.update({"states": list(self.states), "width_source": self.width_source,
                     "ambiguous_zero_drift": self.ambiguous_zero_drift})
        return body


@dataclass
class RayDomain:
    rays: list[ClassRay]

    def contains(self, x: Sequence[float]) -> bool:
        """Membership in the union of the per-class rays."""
        return any(r.ray.contains(x) for r in self.rays)

    def to_json(self) -> dict:
        return {"rays": [r.to_json() for r in self.rays]}


def _estimate_half_width(k: ReducedKernel, cls: Sequence[str], direction,
                         root_seed: int) -> float:
    """99th-percentile excursion perpendicular to the drift over
    _PILOT_RUNS pilot runs of _PILOT_STEPS steps, in sup norm without a
    drift.  A pilot run is the second of two :func:`_kernel_sim` copies
    from the class's first state, so it draws lane 1."""
    start = k.states.index(cls[0])
    sim = _kernel_sim(k, [start, start], _PILOT_RUNS, root_seed)
    worst = np.zeros(_PILOT_RUNS)
    for _, keys, _ in sim.blocks(_PILOT_STEPS):
        pos = _unpack(keys[..., 1], k.dim)
        if direction is None:
            cur = np.abs(pos).max(axis=2)
        else:
            ax, ay = direction
            cur = np.abs(-pos[..., 0] * ay + pos[..., 1] * ax)
        np.maximum(worst, cur.max(axis=0), out=worst)
    return float(np.quantile(worst, 0.99)) + 1.0


def ray_domain(report: ClassReport, M: float | None = None,
               root_seed: int = 0) -> RayDomain:
    """Per-recurrent-class thick rays of a single-scout planar kernel.

    Reads the ray directions and degeneracy verdicts of ``report``, the
    :func:`analyze_protocol` (or :func:`analyze_kernel`) report of the
    scout.  The width is user-supplied or estimated from pilot runs (and
    labeled accordingly); for a degenerate zero-drift class the exact
    offset radius plus the state count is used.  Zero-drift classes carry
    the zero flag: the intended region is a bounded set whose canonical
    shape is not pinned down, so membership falls back to a sup-norm ball,
    and the ray is marked ambiguous unless the class is degenerate.  A user
    width must be finite and positive.
    """
    if M is not None and not (math.isfinite(M) and M > 0):
        raise ValueError(f"ray width must be finite and > 0, got {M}")
    k = report.kernel
    if k.dim != 2:
        raise PreconditionError("ray domains are defined on the plane")
    rays = []
    for info in report.recurrent_classes():
        direction = info.ray_direction
        degenerate = direction is None and info.degeneracy.degenerate
        if M is not None:
            width, source = float(M), "user"
        elif degenerate:
            width, source = info.degeneracy.radius + k.n_states, "exact-offsets"
        else:
            width = _estimate_half_width(k, info.states, direction, root_seed)
            source = "estimate"
        rays.append(ClassRay(info.states, ThickRay(direction, width), source,
                             ambiguous_zero_drift=direction is None and not degenerate))
    return RayDomain(rays)


# ---------------------------------------------------------------------------
# full report


def analyze_kernel(k: ReducedKernel) -> ClassReport:
    """Class decomposition with stationary laws, drifts, and degeneracy verdicts."""
    rep = classes(k)
    for info in rep.recurrent_classes():
        info.pi = stationary_distribution(k, info.states)
        info.drift = drift = _drift(k, info.states, info.pi)
        info.degeneracy = _degeneracy(k, info.states)
        fl = [float(v) for v in drift]
        norm = math.sqrt(sum(v * v for v in fl))
        if norm > 0:
            info.ray_direction = tuple(v / norm for v in fl)
        else:
            info.ray_zero_flag = True
    return rep


def analyze_protocol(p: ScoutProtocol, scout: int = 1) -> ClassReport:
    return analyze_kernel(reduce_kernel(p, scout))
