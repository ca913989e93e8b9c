"""Exact automaton analysis: classes, drift, degeneracy, products, rays."""

import hashlib
import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from scoutsim import analysis, builtin, parse_protocol, streams
from scoutsim.analysis import (KernelEntry, PreconditionError, ReducedKernel, ThickRay,
                               analyze_protocol, classes, degeneracy_check,
                               difference_drift, effective_drift,
                               kernel_renewal_samples, ray_domain,
                               reduce_kernel, stationary_distribution)
from scoutsim.analysis import _components, _kernel_sim, _solve_exact
from scoutsim.engine import _unpack
from scoutsim.protocol import ProtocolError
from scoutsim.tails import SurvivalCurve, fit_tail

from conftest import product_kernel, random_rational_kernel, uniform_scalar

HALF_DRIFT = ("dim 1\nscouts 1\nstates a b\ninit 1 a\n"
              "trans a * -> 1 b (+1)\ntrans b * -> 1 a (0)\n")


def _kernel(text):
    return reduce_kernel(parse_protocol(text))


def test_reduce_srw():
    k = reduce_kernel(builtin("srw", d=1))
    assert k.n_states == 1
    assert sorted(float(e.probability) for e in k.rows[0]) == [0.5, 0.5]


def test_reduce_ignores_colocation_rules():
    text = ("dim 1\nscouts 2\nstates a b\ninit 1 a\ninit 2 b\n"
            "trans a {b} -> 1 a (+1)\ntrans a * -> 1 a (0)\n"
            "trans b * -> 1 b (0)\n")
    k = reduce_kernel(parse_protocol(text), scout=1)
    entry = k.rows[k.states.index("a")][0]
    assert entry.move == (0,)


def test_reduce_anchored_sweeper():
    # the co-location reset is invisible under the empty environment: the
    # return states become absorbing drifts
    k = reduce_kernel(builtin("anchored_geometric", d=1, p="1/2"), scout=2)
    rep = classes(k)
    rec = {c.states: c.recurrent for c in rep.classes}
    assert rec[("b-home-",)] and rec[("b-home+",)]
    assert not rec[("b-out+",)] and not rec[("b-out-",)]
    assert effective_drift(k, ("b-home-",)) == (Fraction(-1),)
    assert effective_drift(k, ("b-home+",)) == (Fraction(1),)


def test_classes_single_selfloop():
    k = _kernel("dim 1\nscouts 1\nstates a\ninit 1 a\ntrans a * -> 1 a (0)\n")
    rep = classes(k)
    assert len(rep.classes) == 1 and rep.classes[0].recurrent


def test_classes_chain_transient():
    k = _kernel("dim 1\nscouts 1\nstates a b\ninit 1 a\n"
                "trans a * -> 1 b (0)\ntrans b * -> 1 b (0)\n")
    rep = classes(k)
    flags = {c.states: c.recurrent for c in rep.classes}
    assert flags == {("a",): False, ("b",): True}


def test_classes_two_closed():
    k = _kernel("dim 1\nscouts 1\nstates a b\ninit 1 a\n"
                "trans a * -> 1 a (0)\ntrans b * -> 1 b (0)\n")
    rep = classes(k)
    assert all(c.recurrent for c in rep.classes)
    assert len(rep.classes) == 2


def _components_scipy(succ):
    """The former body of analysis._components, on scipy's csgraph: the
    reference for the Tarjan pass that replaced it."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    rows_idx = [q for q, row in enumerate(succ) for _ in row]
    cols_idx = [to for row in succ for to in row]
    graph = csr_matrix((np.ones(len(rows_idx)), (rows_idx, cols_idx)), shape=(len(succ),) * 2)
    labels = connected_components(graph, directed=True, connection="strong")[1].tolist()
    members = {}
    for q, lab in enumerate(labels):
        members.setdefault(lab, []).append(q)
    return [(mem, all(labels[to] == labels[mem[0]] for q in mem for to in succ[q]))
            for mem in sorted(members.values(), key=min)]


def test_components_match_scipy_reference():
    # random digraphs of 0-200 nodes, sparse to dense, with empty rows,
    # self-loops and repeated edges (drawn with replacement)
    rng = np.random.default_rng(2024)
    for trial in range(400):
        n = int(rng.integers(0, 12 if trial % 2 else 201))
        degree = rng.random() * 4
        succ = [rng.integers(0, n, size=rng.poisson(degree)).tolist() if n else []
                for _ in range(n)]
        if n and trial % 5 == 0:
            succ[0] = [0, 0] + succ[0]
        assert _components(succ) == _components_scipy(succ), trial


@pytest.mark.parametrize("cycle", [False, True], ids=["path", "cycle"])
def test_components_deep_graph_needs_no_recursion(cycle):
    # a depth-first search 20,000 nodes deep: far past the recursion limit
    n = 20000
    succ = [[q + 1] for q in range(n - 1)] + [[0] if cycle else []]
    got = _components(succ)
    assert got == _components_scipy(succ)
    assert len(got) == (1 if cycle else n)


def test_stationary_exact_two_state():
    k = _kernel(HALF_DRIFT)
    pi = stationary_distribution(k, ("a", "b"))
    assert pi == [Fraction(1, 2), Fraction(1, 2)]


def test_stationary_float_fallback():
    # float probabilities route through the least-squares path with a
    # residual check; values match the exact solution of the same chain
    from scoutsim.analysis import KernelEntry, ReducedKernel
    rows = (
        (KernelEntry(0.25, 0, (1,)), KernelEntry(0.75, 1, (-1,))),
        (KernelEntry(1.0, 0, (0,)),),
    )
    k = ReducedKernel(1, ("a", "b"), rows)
    assert not k.is_exact
    pi = stationary_distribution(k, ("a", "b"))
    assert pi[0] == pytest.approx(4 / 7, abs=1e-12)
    assert pi[1] == pytest.approx(3 / 7, abs=1e-12)
    drift = effective_drift(k, ("a", "b"))
    assert drift[0] == pytest.approx(4 / 7 * (0.25 - 0.75) + 3 / 7 * 0.0, abs=1e-12)


def test_stationary_residual_on_random_kernels():
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = random_rational_kernel(rng, int(rng.integers(2, 6)), 1)
        rep = classes(k)
        for info in rep.recurrent_classes():
            pi = stationary_distribution(k, info.states)
            P = [[sum((e.probability for e in row if e.to == q2), Fraction(0))
                  for q2 in range(k.n_states)] for row in k.rows]
            idx = [k.states.index(s) for s in info.states]
            for j2, q2 in enumerate(idx):
                acc = sum(pi[j] * P[q][q2] for j, q in enumerate(idx))
                assert acc == pi[j2]  # exact rational stationarity


ZERO_EXIT = ("dim 1\nscouts 1\nstates a c\ninit 1 a\n"
             "trans a * -> 1 a (+1) | 0 c (0)\ntrans c * -> 1 c (0)\n")


def test_stationary_ignores_zero_probability_exits():
    # a zero entry leaving a class is no edge, in classes() and in the solve
    from scoutsim.analysis import KernelEntry
    k = _kernel(ZERO_EXIT)
    assert [c.recurrent for c in classes(k).classes] == [True, True]
    assert stationary_distribution(k, ("a",)) == [1]
    assert effective_drift(k, ("a",)) == (Fraction(1),)
    rows = ((KernelEntry(1.0, 0, (1,)), KernelEntry(0.0, 1, (0,))),
            (KernelEntry(1.0, 1, (0,)),))
    k = ReducedKernel(1, ("a", "c"), rows)
    assert not k.is_exact
    assert stationary_distribution(k, ("a",)) == [1.0]


def test_stationary_zero_entries_change_nothing():
    # zero entries added inside a class leave the law bit for bit unchanged
    from scoutsim.analysis import KernelEntry
    rng = np.random.default_rng(8)
    for _ in range(10):
        k = random_rational_kernel(rng, int(rng.integers(2, 6)), 1)
        for info in classes(k).recurrent_classes():
            idx = [k.states.index(s) for s in info.states]
            padded = tuple(row + (KernelEntry(Fraction(0), idx[0], (0,)),)
                           if q in idx else row for q, row in enumerate(k.rows))
            for conv in (lambda p: p, float):
                base, extra = (ReducedKernel(1, k.states, tuple(
                    tuple(KernelEntry(conv(e.probability), e.to, e.move) for e in row)
                    for row in rows)) for rows in (k.rows, padded))
                assert stationary_distribution(base, info.states) == \
                    stationary_distribution(extra, info.states)


# exact linear solves


def reference_solve(A, b):
    """Independent oracle: Fraction Gaussian elimination with back substitution.

    Returns None for a singular system.
    """
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(A, b)]
    for k in range(n):
        pivot = next((r for r in range(k, n) if M[r][k] != 0), None)
        if pivot is None:
            return None
        M[k], M[pivot] = M[pivot], M[k]
        for r in range(k + 1, n):
            f = M[r][k] / M[k][k]
            M[r] = [x - f * y for x, y in zip(M[r], M[k])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        acc = M[i][n] - sum(M[i][j] * x[j] for j in range(i + 1, n))
        x[i] = acc / M[i][i]
    return x


RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 6, 7, 12])))


@st.composite
def rational_systems(draw):
    n = draw(st.integers(1, 12))
    A = [[draw(RATIONALS) for _ in range(n)] for _ in range(n)]
    # zero leading entries force row swaps in the first columns
    for k in range(draw(st.integers(0, n - 1))):
        A[k][k] = Fraction(0)
    b = [draw(RATIONALS) for _ in range(n)]
    return A, b


@settings(max_examples=60, deadline=None)
@given(rational_systems())
def test_solve_exact_matches_reference(system):
    A, b = system
    want = reference_solve(A, b)
    assume(want is not None)
    got = _solve_exact(A, b)
    assert got == want
    assert all(type(x) is Fraction for x in got)


@settings(max_examples=40, deadline=None)
@given(rational_systems(), st.data())
def test_solve_exact_singular_raises(system, data):
    A, b = system
    n = len(A)
    # make one row a rational combination of the others (or zero for n = 1)
    r = data.draw(st.integers(0, n - 1))
    coef = [data.draw(RATIONALS) for _ in range(n)]
    A[r] = [sum((coef[i] * A[i][j] for i in range(n) if i != r), Fraction(0))
            for j in range(n)]
    assert reference_solve(A, b) is None
    with pytest.raises(ArithmeticError, match="singular"):
        _solve_exact(A, b)


def test_solve_exact_swaps_mid_elimination():
    # the second pivot vanishes after the first step and must be swapped in
    A = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    b = [Fraction(1, 3), Fraction(1, 6), 1]
    assert _solve_exact(A, b) == reference_solve(A, b)
    assert _solve_exact([[0, Fraction(1, 3)], [Fraction(2, 7), 0]], [1, 1]) == \
        [Fraction(7, 2), Fraction(3)]


def test_drift_deterministic_plus():
    k = _kernel("dim 1\nscouts 1\nstates a\ninit 1 a\ntrans a * -> 1 a (+1)\n")
    assert effective_drift(k, ("a",)) == (Fraction(1),)


def test_drift_zero_cycle():
    k = _kernel("dim 1\nscouts 1\nstates a b\ninit 1 a\n"
                "trans a * -> 1 b (+1)\ntrans b * -> 1 a (-1)\n")
    assert effective_drift(k, ("a", "b")) == (Fraction(0),)


def test_drift_half():
    k = _kernel(HALF_DRIFT)
    assert effective_drift(k, ("a", "b")) == (Fraction(1, 2),)


def test_drift_requires_recurrent():
    k = _kernel("dim 1\nscouts 1\nstates a b\ninit 1 a\n"
                "trans a * -> 1 b (0)\ntrans b * -> 1 b (0)\n")
    with pytest.raises(PreconditionError, match="transient"):
        effective_drift(k, ("a",))


# degeneracy


def test_degenerate_offsets():
    k = _kernel("dim 1\nscouts 1\nstates a b\ninit 1 a\n"
                "trans a * -> 1 b (+1)\ntrans b * -> 1 a (-1)\n")
    v = degeneracy_check(k, ("a", "b"))
    assert v.degenerate
    assert v.offsets == {"a": (0,), "b": (1,)}
    assert v.radius == 1


def test_nondegenerate_witness_cycle():
    k = _kernel("dim 1\nscouts 1\nstates a b\ninit 1 a\n"
                "trans a * -> 1 b (+1)\ntrans b * -> 1 a (+1)\n")
    v = degeneracy_check(k, ("a", "b"))
    assert not v.degenerate
    disp = sum(m[0] for _, m, _ in v.witness_cycle)
    assert disp != 0
    assert v.witness_cycle[0][0] == v.witness_cycle[-1][2]  # closed cycle


def test_nondegenerate_selfloop_conflict():
    k = reduce_kernel(builtin("srw", d=1))
    v = degeneracy_check(k, ("walk",))
    assert not v.degenerate
    assert sum(m[0] for _, m, _ in v.witness_cycle) != 0


def test_degeneracy_matches_simulated_confinement():
    from conftest import random_degenerate_kernel
    from scoutsim import streams
    rng = np.random.default_rng(8)
    k = random_degenerate_kernel(rng, 4, 2)
    v = degeneracy_check(k, k.states)
    assert v.degenerate
    # simulate from the BFS root: position must always equal the offset
    table = streams.Categorical([[e.probability for e in row] for row in k.rows])
    root = k.states.index(next(iter(v.offsets)))
    q = root
    pos = np.zeros(2, dtype=np.int64)
    base = np.array(v.offsets[k.states[root]])
    for t in range(3000):
        u = uniform_scalar(77, 0, 0, t)
        e = k.rows[q][bisect_right(table.lists[q], u)]
        pos += e.move
        q = e.to
        assert tuple(pos + base) == v.offsets[k.states[q]]


# renewal samples


def test_renewal_deterministic_selfloop():
    p = parse_protocol("dim 1\nscouts 1\nstates a\ninit 1 a\ntrans a * -> 1 a (+1)\n")
    rs = kernel_renewal_samples(reduce_kernel(p, 1), "a", 20, 1)
    assert np.all(rs.zeta[:, 0] == 1)
    assert np.all(rs.nu == 1)
    assert np.all(rs.R == 2)


def test_renewal_two_cycle():
    p = parse_protocol(HALF_DRIFT)
    rs = kernel_renewal_samples(reduce_kernel(p, 1), "a", 20, 1)
    assert np.all(rs.zeta[:, 0] == 1)
    assert np.all(rs.nu == 2)
    assert np.all(rs.R == 4)


def test_renewal_reward_identity_on_random_kernels():
    # E[zeta - d * nu] = 0 exactly; a 3-sigma t-test on sampled returns
    rng = np.random.default_rng(11)
    for trial in range(5):
        k = random_rational_kernel(rng, int(rng.integers(2, 7)), 1)
        rep = classes(k)
        info = rep.recurrent_classes()[0]
        d = effective_drift(k, info.states)[0]
        rs = kernel_renewal_samples(k, info.states[0], 4000, root_seed=trial)
        resid = rs.zeta[:, 0] - float(d) * rs.nu
        m = resid.mean()
        s = resid.std(ddof=1) / np.sqrt(resid.size)
        assert abs(m) <= 3 * s + 1e-12


def test_srw_renewal_drift_zero():
    k = reduce_kernel(builtin("srw", d=1))
    rs = kernel_renewal_samples(k, "walk", 30000, root_seed=3)
    assert abs(rs.zeta[:, 0].mean()) <= 4 * rs.zeta[:, 0].std(ddof=1) / np.sqrt(rs.n)
    assert effective_drift(k, ("walk",)) == (Fraction(0),)


def test_return_time_exponential_tail():
    # irreducible kernels have geometric-type return tails: semi-log linear
    k = _kernel("dim 1\nscouts 1\nstates a b\ninit 1 a\n"
                "trans a * -> 1 b (0)\ntrans b * -> 0.5 a (0) | 0.5 b (0)\n")
    rs = kernel_renewal_samples(k, "a", 20000, root_seed=9)
    grid = np.arange(1, 16, dtype=np.int64)
    counts = (rs.nu[None, :] > grid[:, None]).sum(axis=1).astype(float)
    curve = SurvivalCurve(grid, counts, float(rs.n))
    fit = fit_tail(curve, "exponential")
    assert fit.r_squared >= 0.95
    assert fit.slope < 0


def test_renewal_step_budget(monkeypatch):
    k = _kernel(HALF_DRIFT)
    monkeypatch.setattr(analysis, "_RETURN_STEPS", 1)
    with pytest.raises(RuntimeError, match="step budget"):
        kernel_renewal_samples(k, "a", 5, root_seed=0)
    monkeypatch.setattr(analysis, "_RETURN_STEPS", 2)
    assert np.all(kernel_renewal_samples(k, "a", 5, root_seed=0).nu == 2)


# sha256 of the (zeta, nu) bytes, recorded with the per-step sampling loop
# that block stepping replaced
RENEWAL_DIGESTS = [
    "9f685197799a6b883a59ab4b9d27349233ea985909a1e26351770914e5ff26a1",
    "78a9deffb3feaac6911dc55a9fac7fbfecaf2b910a99c3d2a07ce9aea8a9880a",
    "d833e85b37e20e7112073e3d00524e025e8c94f5ea919313a10d32b1161e547f",
    "287fd207dbb4dea18ef50e7cc4234093dfc513043feb5b4d055ac5471e7bba99",
]


def _renewal_digest(rs):
    return hashlib.sha256(rs.zeta.tobytes() + rs.nu.tobytes()).hexdigest()


def test_renewal_samples_pinned():
    rng = np.random.default_rng(1414)
    for i, digest in enumerate(RENEWAL_DIGESTS):
        k = random_rational_kernel(rng, int(rng.integers(2, 6)), 1 + i % 2)
        q0 = classes(k).recurrent_classes()[0].states[0]
        assert _renewal_digest(kernel_renewal_samples(k, q0, 3000, root_seed=40 + i)) == digest
    rs = kernel_renewal_samples(reduce_kernel(builtin("srw", d=2)), "walk", 2000, root_seed=7)
    assert _renewal_digest(rs) == \
        "0e50058e58f4279b1e9f06a007b0413ca7ec2e3cf00b5e73607f36eade0f59d7"


# the reduced chain on VectorSim


def _walk_stepwise(k, start, count, root_seed, lane, cap):
    """Reference: the per-step loop of the reduced chain, one streams call
    per step and one bisection per chain.  States (count, cap) and
    displacements (count, cap, d)."""
    table = streams.Categorical([[e.probability for e in row] for row in k.rows])
    reps = np.arange(count, dtype=np.int64)
    state = [start] * count
    pos = np.zeros((count, k.dim), dtype=np.int64)
    states = np.empty((count, cap), dtype=np.int64)
    disp = np.empty((count, cap, k.dim), dtype=np.int64)
    for t in range(cap):
        u = streams.uniforms(root_seed, reps, np.int64(lane), np.int64(t))
        entries = [k.rows[q][bisect_right(table.lists[q], x)]
                   for q, x in zip(state, u.tolist())]
        pos = pos + [e.move for e in entries]
        state = [e.to for e in entries]
        states[:, t] = state
        disp[:, t] = pos
    return states, disp


def _float_rows(k):
    return ReducedKernel(k.dim, k.states, tuple(
        tuple(KernelEntry(float(e.probability), e.to, e.move) for e in row)
        for row in k.rows))


def _self_absorbing(d):
    """One state that steps +-1 along the first axis: VectorSim's i.i.d. branch."""
    moves = [(s,) + (0,) * (d - 1) for s in (1, -1)]
    return ReducedKernel(d, ("a",), ((KernelEntry(Fraction(1, 3), 0, moves[0]),
                                      KernelEntry(Fraction(2, 3), 0, moves[1])),))


@pytest.mark.parametrize("cap", [1, 33, 100])
@pytest.mark.parametrize("lane", [0, 1])
@pytest.mark.parametrize("d", [1, 2])
def test_chain_walk_matches_stepwise_loop(cap, lane, d):
    # lane L is the last of L + 1 copies of the chain
    rng = np.random.default_rng(cap * 10 + lane * 2 + d)
    for trial in range(5):
        k = random_rational_kernel(rng, int(rng.integers(1, 7)), d)
        if trial == 3:
            k = _float_rows(k)
        elif trial == 4:
            k = _self_absorbing(d)
        start, count, seed = int(rng.integers(k.n_states)), 37, int(rng.integers(1000))
        want_states, want_disp = _walk_stepwise(k, start, count, seed, lane, cap)
        sim = _kernel_sim(k, [start] * (lane + 1), count, seed)
        end = 0
        for t0, keys, states in sim.blocks(cap):
            assert t0 == end
            end = t0 + keys.shape[0]
            rows = sim.replicas
            got = np.broadcast_to(states[..., lane], keys.shape[:2])
            assert np.array_equal(got.T, want_states[rows, t0:end])
            assert np.array_equal(_unpack(keys[..., lane], d).swapaxes(0, 1),
                                  want_disp[rows, t0:end])
            # drop chains at uneven times, a block at a time
            sim.drop(rng.random(rows.size) < (0.3 if t0 % 3 else 0.0))
        assert end == cap or sim.n_active == 0


def test_kernel_sampling_refuses_what_vectorsim_cannot_step():
    # the full product of two planar kernels has dim 4, past the grid keys
    k = reduce_kernel(builtin("srw", d=2))
    full = product_kernel(k, k)
    assert full.dim == 4
    with pytest.raises(PreconditionError, match="grid keys cover d = 1 and 2"):
        kernel_renewal_samples(full, "walk|walk", 5, root_seed=0)
    # a product of two 8-state kernels has 64 states
    big = random_rational_kernel(np.random.default_rng(8), 8, 1)
    wide = product_kernel(big, big)
    with pytest.raises(ProtocolError, match="more than 63 states"):
        kernel_renewal_samples(wide, classes(wide).recurrent_classes()[0].states[0], 5, 0)
    # a product of line kernels is planar and still samples
    line = reduce_kernel(builtin("srw", d=1))
    assert kernel_renewal_samples(product_kernel(line, line), "walk|walk", 5, 0).zeta.shape == (5, 2)


def _return_nonzero_probability_reference(k, truncate=60):
    """Reference: the helper in conftest before it converted each row to
    float once; the same floats summed in the same order."""
    from collections import defaultdict
    dist = {(0, (0,) * k.dim): 1.0}
    hit_nonzero = 0.0
    for _ in range(truncate):
        new = defaultdict(float)
        for (q, disp), w in dist.items():
            for e in k.rows[q]:
                nd = tuple(a + m for a, m in zip(disp, e.move))
                p = w * float(e.probability)
                if e.to == 0:
                    if any(nd):
                        hit_nonzero += p
                else:
                    new[(e.to, nd)] += p
        dist = new
        if not dist:
            break
    return hit_nonzero


def test_return_nonzero_probability_matches_reference():
    from conftest import random_degenerate_kernel, return_nonzero_probability
    rng = np.random.default_rng(66)
    for trial in range(12):
        make = random_degenerate_kernel if trial % 3 == 0 else random_rational_kernel
        k = make(rng, int(rng.integers(2, 5)), 1 + trial % 2)
        assert return_nonzero_probability(k, 25) == _return_nonzero_probability_reference(k, 25)


# product chains


def test_product_two_deterministic():
    up = _kernel("dim 1\nscouts 1\nstates a\ninit 1 a\ntrans a * -> 1 a (+1)\n")
    assert difference_drift((up, up)) == (Fraction(0),)


def test_product_difference_drift_example():
    half = _kernel(HALF_DRIFT)
    up = _kernel("dim 1\nscouts 1\nstates a\ninit 1 a\ntrans a * -> 1 a (+1)\n")
    assert difference_drift((up, half)) == (Fraction(1, 2),)


def test_product_srw_pair():
    k = reduce_kernel(builtin("srw", d=1))
    assert difference_drift((k, k)) == (Fraction(0),)


def test_joint_product_chain_protocol():
    text = ("dim 1\nscouts 2\nstates a b\ninit 1 a\ninit 2 b\n"
            "trans a * -> 1 a (+1)\ntrans b * -> 0.5 b (+1) | 0.5 b (-1)\n")
    p = parse_protocol(text)
    k1, k2 = reduce_kernel(p, 1), reduce_kernel(p, 2)
    kd = product_kernel(k1, k2, difference=True)
    assert kd.dim == 1
    assert difference_drift(p) == (Fraction(1),)
    full = product_kernel(k1, k2)
    assert full.dim == 2


def test_difference_drift_identity_random_pairs():
    rng = np.random.default_rng(13)
    for _ in range(10):
        k1 = random_rational_kernel(rng, int(rng.integers(1, 5)), 1)
        k2 = random_rational_kernel(rng, int(rng.integers(1, 5)), 1)
        rep1 = classes(k1).recurrent_classes()[0]
        rep2 = classes(k2).recurrent_classes()[0]
        # restrict both to one recurrent class to make them irreducible
        d1 = effective_drift(k1, rep1.states)[0]
        d2 = effective_drift(k2, rep2.states)[0]
        kd = product_kernel(k1, k2, difference=True)
        repd = classes(kd)
        for info in repd.recurrent_classes():
            dd = effective_drift(kd, info.states)[0]
            if rep1.states == tuple(k1.states) and rep2.states == tuple(k2.states):
                assert dd == d1 - d2
                assert abs(float(dd) - (float(d1) - float(d2))) <= 1e-12


# rays


def test_ray_membership_examples():
    ray = ThickRay((1.0, 0.0), 5.0)
    assert ray.contains((10, 2))
    assert not ray.contains((10, 7))
    assert not ray.contains((-6, 0))


def test_ray_domain_drifted_class():
    text = ("dim 2\nscouts 1\nstates a\ninit 1 a\ntrans a * -> 1 a (+1,0)\n")
    dom = ray_domain(analyze_protocol(parse_protocol(text)), M=5.0)
    assert len(dom.rays) == 1
    r = dom.rays[0]
    assert r.ray.direction == (1.0, 0.0)
    assert r.width_source == "user"
    assert dom.contains((100, 0))
    assert not dom.contains((0, 100))


def test_ray_domain_degenerate_class():
    text = ("dim 2\nscouts 1\nstates a b\ninit 1 a\n"
            "trans a * -> 1 b (+1,0)\ntrans b * -> 1 a (-1,0)\n")
    p = parse_protocol(text)
    dom = ray_domain(analyze_protocol(p))
    r = dom.rays[0]
    assert r.ray.direction is None
    assert r.width_source == "exact-offsets"
    assert r.ray.width == 1 + 2  # offset radius + state count
    assert r.ray.contains((0, 0)) and not r.ray.contains((5, 0))


def test_ray_domain_zero_drift_flagged():
    dom = ray_domain(analyze_protocol(builtin("srw", d=2)), root_seed=4)
    r = dom.rays[0]
    assert r.ray.direction is None
    assert r.ambiguous_zero_drift
    assert r.width_source == "estimate"
    assert r.ray.width > 1


@pytest.mark.parametrize("width", [math.nan, math.inf, -5.0, 0.0])
def test_ray_domain_rejects_bad_width(width):
    with pytest.raises(ValueError, match="finite and > 0"):
        ray_domain(analyze_protocol(builtin("srw", d=2)), M=width)


def test_ray_domain_needs_plane():
    with pytest.raises(PreconditionError, match="plane"):
        ray_domain(analyze_protocol(builtin("srw", d=1)))


def test_analyze_protocol_report():
    rep = analyze_protocol(builtin("srw", d=1))
    info = rep.classes[0]
    assert info.recurrent
    assert info.drift == (Fraction(0),)
    assert info.pi == [Fraction(1)]
    assert not info.degeneracy.degenerate
    body = rep.to_json()
    assert body["classes"][0]["pi"] == ["1"]


def test_analyze_deterministic_plus_ray_direction():
    p = parse_protocol("dim 1\nscouts 1\nstates a\ninit 1 a\ntrans a * -> 1 a (+1)\n")
    rep = analyze_protocol(p)
    assert rep.classes[0].ray_direction == (1.0,)


def _full_kernel_difference_drift(k1, k2):
    """Reference: the full (n1 * n2)-state difference kernel, the first
    recurrent class reachable from the joint initial state, and its drift."""
    kd = product_kernel(k1, k2, difference=True)
    seen, frontier = {kd.initial_state}, [kd.initial_state]
    while frontier:
        q = frontier.pop()
        for e in kd.rows[q]:
            if e.probability > 0 and e.to not in seen:
                seen.add(e.to)
                frontier.append(e.to)
    rec = [c for c in classes(kd).classes
           if c.recurrent and kd.states.index(c.states[0]) in seen]
    return effective_drift(kd, rec[0].states)


def test_difference_drift_equals_full_kernel_drift():
    from conftest import random_two_scout_protocol
    rng = np.random.default_rng(21)
    for trial in range(40):
        p = random_two_scout_protocol(rng, 1 + trial % 2)
        want = _full_kernel_difference_drift(reduce_kernel(p, 1), reduce_kernel(p, 2))
        assert difference_drift(p) == want
    for trial in range(40):
        # several classes, transient states and periodic chains, on the
        # line and on the plane
        d = 1 + trial // 20
        k1 = random_rational_kernel(rng, int(rng.integers(1, 7)), d)
        k2 = random_rational_kernel(rng, int(rng.integers(1, 7)), d)
        k2 = ReducedKernel(k2.dim, k2.states, k2.rows, int(rng.integers(k2.n_states)))
        assert difference_drift((k1, k2)) == _full_kernel_difference_drift(k1, k2)
    periodic = _kernel("dim 1\nscouts 1\nstates a b\ninit 1 a\n"
                       "trans a * -> 1 b (+1)\ntrans b * -> 1 a (0)\n")
    assert difference_drift((periodic, periodic)) == \
        _full_kernel_difference_drift(periodic, periodic) == (Fraction(0),)
    # two reachable recurrent classes with different drifts: both ways
    # choose the first, whose lowest joint state comes first
    fork = _kernel("dim 1\nscouts 1\nstates s up down\ninit 1 s\n"
                   "trans s * -> 1/2 up (0) | 1/2 down (0)\n"
                   "trans up * -> 1 up (+1)\ntrans down * -> 1 down (-1)\n")
    still = _kernel("dim 1\nscouts 1\nstates z\ninit 1 z\ntrans z * -> 1 z (0)\n")
    assert difference_drift((fork, still)) == \
        _full_kernel_difference_drift(fork, still) == (Fraction(1),)
    assert difference_drift((still, fork)) == (Fraction(-1),)
    # phase: scout 1 alternates a, b and scout 2 forks to z0 or z3 on the
    # same step, so a|z0 is never reached and the first reachable class
    # lies over {z3} (drift 0 - (-1)), though scout 2's first recurrent
    # class is {z0, z5} (drift 0 - 1)
    flip = _kernel("dim 1\nscouts 1\nstates a b\ninit 1 a\n"
                   "trans a * -> 1 b (0)\ntrans b * -> 1 a (0)\n")
    phased = _kernel("dim 1\nscouts 1\nstates s z0 z3 z5\ninit 1 s\n"
                     "trans s * -> 1/2 z0 (0) | 1/2 z3 (0)\n"
                     "trans z0 * -> 1 z5 (+1)\ntrans z5 * -> 1 z0 (+1)\n"
                     "trans z3 * -> 1 z3 (-1)\n")
    assert classes(phased).recurrent_classes()[0].states == ("z0", "z5")
    assert difference_drift((flip, phased)) == \
        _full_kernel_difference_drift(flip, phased) == (Fraction(1),)
    # a zero-probability outcome leads nowhere reachable
    zero = parse_protocol("dim 1\nscouts 2\nstates a b c\ninit 1 a\ninit 2 b\n"
                          "trans a * -> 1 a (+1) | 0 c (0)\ntrans b * -> 1 b (0)\n"
                          "trans c * -> 1 c (0)\n")
    assert difference_drift(zero) == (Fraction(1),)
    # each scout leaves its start for a class reached with probability
    # 1e-200; both at once has probability 1e-400, 0.0 as a float, so the
    # joint class b|d is not reachable and b|e is the first one
    eps = 1e-200
    k1 = ReducedKernel(1, ("a", "b", "f"), (
        (KernelEntry(1 - eps, 2, (0,)), KernelEntry(eps, 1, (0,))),
        (KernelEntry(1.0, 1, (1,)),),
        (KernelEntry(1.0, 2, (0,)),)))
    k2 = ReducedKernel(1, ("c", "d", "e"), (
        (KernelEntry(1 - eps, 2, (0,)), KernelEntry(eps, 1, (0,))),
        (KernelEntry(1.0, 1, (0,)),),
        (KernelEntry(1.0, 2, (5,)),)))
    assert eps * eps == 0.0
    assert difference_drift((k1, k2)) == _full_kernel_difference_drift(k1, k2) == (-4.0,)
    # scout 1 leaves a for b only with probability 10**-400, an edge of its
    # own class {a, b}; times scout 2's float 0.5 it underflows, so the
    # first product class lies over {a} alone, part of scout 1's class
    tiny = Fraction(1, 10**400)
    k1 = ReducedKernel(1, ("a", "b"), (
        (KernelEntry(1 - tiny, 0, (1,)), KernelEntry(tiny, 1, (0,))),
        (KernelEntry(Fraction(1), 0, (0,)),)))
    k2 = ReducedKernel(1, ("c", "d"), (
        (KernelEntry(0.5, 0, (0,)), KernelEntry(0.5, 1, (2,))),
        (KernelEntry(0.5, 0, (0,)), KernelEntry(0.5, 1, (0,)))))
    assert tiny * 0.5 == 0.0 and classes(k1).classes[0].states == ("a", "b")
    got, want = difference_drift((k1, k2)), _full_kernel_difference_drift(k1, k2)
    assert abs(got[0] - want[0]) <= 1e-12 and abs(got[0] - 0.5) <= 1e-12


def test_difference_drift_transient_factor_raises():
    # a leaves for the absorbing b only with probability 10**-400; times
    # scout 2's float 1.0 that underflows, so the product class {a|c} is
    # closed while a is transient in its own kernel
    tiny = Fraction(1, 10**400)
    k1 = ReducedKernel(1, ("a", "b"), (
        (KernelEntry(1 - tiny, 0, (1,)), KernelEntry(tiny, 1, (0,))),
        (KernelEntry(Fraction(1), 1, (0,)),)))
    k2 = ReducedKernel(1, ("c",), ((KernelEntry(1.0, 0, (0,)),),))
    with pytest.raises(PreconditionError, match=r"class \('a',\) is not closed"):
        difference_drift((k1, k2))
