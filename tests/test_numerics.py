import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg._matfuncs_expm import pick_pade_structure

from latticedress import checks, numerics
from latticedress.algebra import PRUNE_THRESHOLD, OperatorSeries
from latticedress.checks import ScanError, _LambdaContext, equal_time_scan
from latticedress.dressing import dress
from latticedress.models import build_model, free_hamiltonian
from latticedress.modes import FieldSpecies, LatticeSpec, ModeSystem
from latticedress.numerics import (
    BasisError,
    CouplingMatrices,
    FockBasis,
    OracleError,
    SeriesAssembler,
    conjugate_numeric,
    dressing_matrices,
    field_at_origin_time_zero,
    matrix_of_terms,
    restricted_norm,
)

from conftest import evaluate, matrix_of, mode, rspt2_shift


# ---------------------------------------------------------------------------
# basis construction


def test_single_mode_dimension(system1):
    assert FockBasis(system1, 4, 4).dimension == 5


def test_total_cutoff_zero_is_vacuum_only(system3):
    basis = FockBasis(system3, 4, 0)
    assert basis.dimension == 1
    assert basis.occupations.tolist() == [[0, 0, 0]]
    assert basis.vacuum_index() == 0


def test_graded_enumeration(system3):
    basis = FockBasis(system3, 2, 2)
    assert basis.occupations[0].tolist() == [0, 0, 0]
    assert list(basis.totals) == sorted(basis.totals)
    # 1 vacuum + 3 singles + 6 doubles
    assert basis.dimension == 10
    assert len(basis.block_indices(1)) == 4
    # the key order is the grading: total quanta, then lexicographic
    for per_mode, total in [(2, 2), (2, 4), (4, 3)]:
        listed = map(tuple, FockBasis._enumerate(3, per_mode, total).tolist())
        want = sorted(listed, key=lambda v: (sum(v), v))
        got = FockBasis(system3, per_mode, total).occupations.tolist()
        assert [tuple(v) for v in got] == want


@pytest.mark.parametrize("n_modes, per_mode, total",
                         [(5, 6, 6), (3, 2, 4), (1, 3, 0), (6, 4, 5), (4, 7, 3)])
def test_enumerate_matches_tuple_listing(n_modes, per_mode, total):
    # reference: extend every vector by each occupation that fits, in order
    want = [()]
    for _ in range(n_modes):
        want = [v + (q,) for v in want for q in range(per_mode + 1) if sum(v) + q <= total]
    got = FockBasis._enumerate(n_modes, per_mode, total)
    assert got.dtype == np.int64 and got.shape == (len(want), n_modes)
    assert [tuple(v) for v in got.tolist()] == want


def test_per_mode_cutoff_binds(system1):
    assert FockBasis(system1, 2, 10).dimension == 3


def test_invalid_cutoffs_rejected(system3):
    with pytest.raises(BasisError):
        FockBasis(system3, 0, 4)
    with pytest.raises(BasisError):
        FockBasis(system3, 4, -1)


def test_dimension_limit(system3):
    with pytest.raises(BasisError, match="limit"):
        FockBasis(system3, 4, 4, dimension_limit=10)


@pytest.mark.parametrize("n_modes", range(1, 7))
def test_count_matches_enumeration(n_modes):
    # per-mode caps 1..7 against totals 0..6: the cap binds below the total
    for total in range(7):
        for per_mode in range(1, 8):
            want = len(FockBasis._enumerate(n_modes, per_mode, total))
            assert FockBasis._count(n_modes, per_mode, total) == want


def test_dimension_limit_refuses_before_listing(system5, monkeypatch):
    def refuse(*args):
        raise AssertionError("states listed before the dimension limit was checked")

    monkeypatch.setattr(FockBasis, "_enumerate", staticmethod(refuse))
    with pytest.raises(BasisError) as exc:
        FockBasis(system5, 36, 36)
    assert str(exc.value) == "basis dimension 749398 exceeds the limit 200000"


def test_index_of_finds_every_state_and_nothing_else(system3):
    basis = FockBasis(system3, 2, 3)
    assert [basis.index_of(v) for v in basis.occupations] == list(range(basis.dimension))
    # above the total cutoff, above the per-mode cutoff, negative, wrong length
    for occ in [(1, 1, 2), (0, 3, 0), (0, -1, 0), (0, 0), (0, 0, 0, 0)]:
        with pytest.raises(BasisError, match="not a state of this basis"):
            basis.index_of(occ)
    with pytest.raises(BasisError, match="not a state of this basis"):
        FockBasis(system3, 4, 0).index_of((0, 1, 0))


def test_foreign_mode_rejected(system3, system5):
    basis = FockBasis(system3, 2, 2)
    with pytest.raises(BasisError, match="unknown"):
        matrix_of_terms({((mode(system5, 2),), ()): 1.0}, basis)


# ---------------------------------------------------------------------------
# matrices


def test_number_operator_is_diagonal_occupation(system3):
    basis = FockBasis(system3, 3, 3)
    z = mode(system3, 0)
    n = matrix_of_terms({((z,), (z,)): 1.0}, basis).toarray()
    pos = basis.modes.index(z)
    expected = np.diag(basis.occupations[:, pos]).astype(complex)
    assert np.allclose(n, expected)


def _ladder_matrix(basis, mode, create=False):
    sig = ((mode,), ()) if create else ((), (mode,))
    return matrix_of_terms({sig: 1.0 + 0j}, basis)


def test_ladder_matrix_elements(system1):
    basis = FockBasis(system1, 4, 4)
    z = mode(system1, 0)
    a = _ladder_matrix(basis, z).toarray()
    ad = _ladder_matrix(basis, z, create=True).toarray()
    assert a[2, 3] == pytest.approx(math.sqrt(3))
    assert np.allclose(ad, a.conj().T)
    # projection: creating on the top state yields nothing
    assert np.all(ad[:, 4] == 0)


def _apply_term(basis, creators, annihilators, state):
    """Reference: a normal-ordered monomial applied to one basis state;
    (amplitude, new_state), or None when annihilated or above a cutoff."""
    occ = list(state)
    amp = 1.0
    for m in annihilators:
        pos = basis.modes.index(m)
        n = occ[pos]
        if n == 0:
            return None
        amp *= math.sqrt(n)
        occ[pos] = n - 1
    total = sum(occ)
    for m in creators:
        pos = basis.modes.index(m)
        n = occ[pos]
        if n + 1 > basis.per_mode_cutoff or total + 1 > basis.total_cutoff:
            return None
        amp *= math.sqrt(n + 1)
        occ[pos] = n + 1
        total += 1
    return amp, tuple(occ)


def _matrix_state_by_state(terms, basis):
    """Reference assembly: every term over every basis state, in Python,
    with its own row lookup."""
    states = [tuple(v) for v in basis.occupations.tolist()]
    row_of = {v: i for i, v in enumerate(states)}
    rows, cols, vals = [], [], []
    for (creators, annihilators), coeff in terms.items():
        for col, state in enumerate(states):
            hit = _apply_term(basis, creators, annihilators, state)
            if hit is None:
                continue
            amp, new_state = hit
            rows.append(row_of[new_state])
            cols.append(col)
            vals.append(coeff * amp)
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(basis.dimension, basis.dimension), dtype=complex)


@pytest.mark.parametrize("per_mode, total, seed", [
    (2, 3, 1), (2, 3, 2), (3, 2, 3), (2, 4, 4),
])
def test_cached_action_matches_state_by_state_loop(per_mode, total, seed):
    # two species, repeated modes, and both cutoffs projecting states out
    system = ModeSystem(LatticeSpec(dim=1, sites_per_dim=3),
                        [FieldSpecies("N", 1.0), FieldSpecies("phi", 0.5)])
    basis = FockBasis(system, per_mode, total)
    rng = np.random.default_rng(seed)
    modes = system.modes
    pool = [modes[i] for i in rng.choice(len(modes), 3, replace=False)]

    def draw():
        # up to three modes from a pool of three, so modes repeat
        return tuple(sorted(pool[i] for i in rng.integers(0, 3, rng.integers(0, 4))))

    for _ in range(3):
        terms = {}
        for _ in range(12):
            terms[(draw(), draw())] = complex(rng.normal(), rng.normal())
        want = _matrix_state_by_state(terms, basis)
        got = matrix_of_terms(terms, basis)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
    # the layout's arrays are shared by every assembly, so callers cannot
    # write them
    rows, _, _, _ = basis.layout(terms)
    with pytest.raises(ValueError):
        rows[:] = 0


def _action_state_by_state(basis, creators, annihilators):
    """Reference action: (rows, cols, amps) of a monomial applied to each
    basis state in turn, cols ascending."""
    states = [tuple(v) for v in basis.occupations.tolist()]
    row_of = {v: i for i, v in enumerate(states)}
    rows, cols, amps = [], [], []
    for col, state in enumerate(states):
        hit = _apply_term(basis, creators, annihilators, state)
        if hit is not None:
            rows.append(row_of[hit[1]])
            cols.append(col)
            amps.append(hit[0])
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(amps)


def _actions(basis, sigs):
    """The layout of sigs split into one (rows, cols, amps) per signature."""
    rows, cols, amps, counts = basis.layout(sigs)
    ends = np.cumsum(counts)
    return [(rows[s:e], cols[s:e], amps[s:e]) for s, e in zip(ends - counts, ends)]


def _matrix_per_term(terms, basis):
    """Reference assembly: one coeff * amps product per term, concatenated in
    the order of the map."""
    rows, cols, vals = [], [], []
    for (creators, annihilators), coeff in terms.items():
        r, c, amps, _ = basis.layout([(creators, annihilators)])
        rows.append(r)
        cols.append(c)
        vals.append(coeff * amps)
    n = basis.dimension
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n), dtype=complex)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind in "fc":
        a, b = a.view(np.int64), b.view(np.int64)
    return a.dtype == b.dtype and np.array_equal(a, b)


def _multisets(pool, max_size):
    return [()] + [tuple(sorted(c)) for n in range(1, max_size + 1)
                   for c in itertools.combinations_with_replacement(pool, n)]


def test_state_keys_past_int64_still_find_rows(monkeypatch):
    # 65 modes: 3**65 keys overflow int64 and are Python ints; the batched
    # actions run two signatures per pass
    system = ModeSystem(LatticeSpec(dim=1, sites_per_dim=65), [FieldSpecies("phi", 1.0)])
    basis = FockBasis(system, 2, 2)
    assert basis._keys.dtype == object
    monkeypatch.setattr(numerics, "_BATCH_ELEMENTS", 2 * basis.dimension)
    a, b, c = system.modes[0], system.modes[31], system.modes[-1]
    terms = {((a,), (c,)): 1.0 + 0j, ((c,), ()): 2.0 + 0j, ((), ()): 0.5 + 0j,
             ((c, c), ()): -1j, ((), (a, b)): 0.25, ((b,), (b,)): 3.0,
             ((a, c), (b,)): 1 - 1j, ((), (c, c)): 2j, ((b, b), (a, a)): -0.5}
    for sig, got in zip(terms, _actions(basis, terms)):
        want = _action_state_by_state(basis, *sig)
        assert all(_same_bits(g, w) for g, w in zip(got, want)), sig
    got = matrix_of_terms(terms, basis)
    want = _matrix_state_by_state(terms, basis)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)
    assert basis.index_of(basis.occupations[-1]) == basis.dimension - 1


@pytest.mark.parametrize("budget", [1, "three", None],
                         ids=["one_per_pass", "three_per_pass", "default"])
def test_batched_actions_match_state_by_state_loop(monkeypatch, budget):
    # every shape up to (3, 3) over three modes of two species, so modes
    # repeat within a signature; a budget below a shape's size splits it
    system = ModeSystem(LatticeSpec(dim=1, sites_per_dim=3),
                        [FieldSpecies("N", 1.0), FieldSpecies("phi", 0.5)])
    basis = FockBasis(system, 2, 3)
    if budget == "three":
        budget = 3 * basis.dimension
    if budget is not None:
        monkeypatch.setattr(numerics, "_BATCH_ELEMENTS", budget)
    pool = [system.modes[i] for i in (0, 2, 5)]
    sigs = [(c, a) for c in _multisets(pool, 3) for a in _multisets(pool, 3)]
    assert len(sigs) == 400
    actions = _actions(basis, sigs)
    for sig, got in zip(sigs, actions):
        want = _action_state_by_state(basis, *sig)
        assert all(_same_bits(g, w) for g, w in zip(got, want)), sig
    # ((), (y, y, y)) acts on no state, the per-mode cutoff being 2, and
    # sits between live signatures of its shape, in one pass by default
    x, y, z = pool
    assert [len(actions[sigs.index(((), a))][0]) for a in
            [(x, z, z), (y, y, y), (y, y, z)]] == [1, 0, 1]
    # the layout of a permutation of the signatures is the same permutation
    # of their actions
    perm = np.random.default_rng(11).permutation(len(sigs))
    for i, got in zip(perm, _actions(basis, [sigs[i] for i in perm])):
        assert all(_same_bits(g, w) for g, w in zip(got, actions[i])), sigs[i]
    rng = np.random.default_rng(7)
    terms = {sigs[i]: complex(*rng.normal(size=2)) for i in rng.permutation(400)[:60]}
    got = matrix_of_terms(terms, basis)
    for want in (_matrix_state_by_state(terms, basis), _matrix_per_term(terms, basis)):
        assert _same_bits(got.indptr, want.indptr)
        assert _same_bits(got.indices, want.indices)
        assert _same_bits(got.data, want.data)


def test_matrix_of_terms_matches_per_term_products(system3):
    # complex, real, negative and integer coefficients: the one product over
    # the repeated coefficients keeps every bit of the per-term products
    basis = FockBasis(system3, 3, 4)
    z, p, q = system3.modes
    terms = {((z,), (p,)): 0.3 - 1.7j, ((p, p), ()): -2.5, ((), (q,)): 3,
             ((z, q), (p,)): -0.0 + 1e-3j, ((), ()): 1.25 + 0j, ((q,), (q, z)): -1j}
    got = matrix_of_terms(terms, basis)
    want = _matrix_per_term(terms, basis)
    assert _same_bits(got.indptr, want.indptr)
    assert _same_bits(got.indices, want.indices)
    assert _same_bits(got.data, want.data)
    # no term, or none that acts on a state within the cutoffs: scipy's own
    # empty matrix
    empty = sp.csr_matrix((basis.dimension, basis.dimension), dtype=complex)
    for nothing in ({}, {((q,) * 5, ()): 1.0}):
        assert _csr_bits(matrix_of_terms(nothing, basis)) == _csr_bits(empty)


def test_actions_refuse_unknown_modes_and_are_read_only(system3, system5):
    basis = FockBasis(system3, 2, 2)
    z = mode(system3, 0)
    with pytest.raises(BasisError, match="unknown"):
        basis.layout([((z,), ()), ((z,), (mode(system5, 2),))])
    # a layout is shared by every assembly from it, so no caller can write
    # it; no signatures lay out as four empty arrays of the usual dtypes
    for sigs in ([((z,), (z,)), ((), (z,))], []):
        layout = basis.layout(sigs)
        assert [x.dtype for x in layout] == [np.intp, np.intp, np.float64, np.intp]
        assert all(len(x) == 0 for x in layout) == (not sigs)
        for x in layout:
            with pytest.raises(ValueError):
                x[:0] = 0
            assert not x.flags.writeable


def test_matrix_of_series_evaluates_coupling(system1):
    z = mode(system1, 0)
    s = OperatorSeries.from_terms(system1, [((z,), (z,), 1.0)], order=1, max_order=1)
    basis = FockBasis(system1, 2, 2)
    m = matrix_of(s, basis, 0.5).toarray()
    assert m[1, 1] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# one layout per series: SeriesAssembler against the evaluated term map


def _csr_bits(m):
    """Everything that tells two CSR matrices apart, each float by its bits."""
    return (m.shape, m.data.dtype, m.data.view(np.uint64).tobytes(), m.indices.dtype,
            m.indices.tobytes(), m.indptr.dtype, m.indptr.tobytes())


@pytest.fixture(scope="module")
def oracle_series():
    """(label, series, basis) for H, R and K of phi3 and Yukawa on 3 sites at
    orders 1-3, and of a free model."""
    lattice = LatticeSpec(dim=1, sites_per_dim=3)
    out = []
    for interaction, orders in (("phi3", (1, 2, 3)), ("scalar-yukawa", (1, 2, 3)),
                                ("free", (2,))):
        for order in orders:
            model = build_model(interaction, lattice=lattice, max_order=order)
            result = dress(model)
            basis = FockBasis(model.system, 3, 3)
            for name, series in (("H", model.hamiltonian()), ("R", result.generator),
                                 ("K", result.K)):
                out.append((f"{interaction} order {order} {name}", series, basis))
    return out


@pytest.mark.parametrize("lam", [0.0, 0.02, 0.04, 0.08, 0.16, 1e-6, -0.08, -1e-6])
def test_assembler_is_the_evaluated_term_maps_matrix(oracle_series, lam):
    partly_pruned = []
    for label, series, basis in oracle_series:
        got = SeriesAssembler(series, basis)(lam)
        assert _csr_bits(got) == _csr_bits(matrix_of(series, basis, lam)), label
        if 0 < len(evaluate(series, lam)) < len(set().union(*series.orders)):
            partly_pruned.append(label)
    if abs(lam) == 1e-6:    # lam**3 * c prunes: the prune drops some entries, not all
        assert "phi3 order 3 K" in partly_pruned


def test_assembler_keeps_the_bits_at_the_prune_edge(system3):
    # coefficients at PRUNE_THRESHOLD, some with signed zero parts, summed
    # over orders: the prune decides as Python's abs does, where numpy's own
    # complex abs differs in the last bit
    rng = np.random.default_rng(26)
    sigs = list(itertools.product(_multisets(system3.modes, 2), repeat=2))
    basis = FockBasis(system3, 3, 3)
    coeffs = []
    for _ in range(12):
        orders = []
        for _ in range(4):
            sizes = PRUNE_THRESHOLD * (1 + rng.uniform(-4e-16, 4e-16, len(sigs)))
            angles = rng.uniform(0, 2 * np.pi, len(sigs))
            terms = {}
            for sig, r, a, pick in zip(sigs, sizes, angles, rng.integers(0, 5, len(sigs))):
                if pick:
                    terms[sig] = [complex(r * math.cos(a), r * math.sin(a)),
                                  complex(-0.0, r), complex(r, -0.0),
                                  complex(-0.0, -0.0)][pick - 1]
            coeffs += terms.values()
            orders.append(terms)
        series = OperatorSeries._ordered(system3, orders)
        for lam in (1.0, -1.0, 0.5):
            assert _csr_bits(SeriesAssembler(series, basis)(lam)) == \
                _csr_bits(matrix_of(series, basis, lam))
    # the data holds coefficients on which the two abs disagree
    mine = np.abs(np.array(coeffs)) <= PRUNE_THRESHOLD
    assert (mine != (np.array([abs(c) for c in coeffs]) <= PRUNE_THRESHOLD)).any()


def test_a_basis_keeps_nothing_of_its_layouts():
    # the H, R and K layouts are their assemblers' alone: once those are
    # dropped, tracemalloc's current size is back at its level from before
    # (but for what Python's and numpy's free lists keep, about 2 KB), and
    # the basis holds what it held after its construction
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3), max_order=2)
    result = dress(model)
    series = (model.hamiltonian(), result.generator, result.K)
    for s in series:    # numpy's first-use allocations, before the count
        SeriesAssembler(s, FockBasis(model.system, 6, 6))
    basis = FockBasis(model.system, 6, 6)
    held = dict(vars(basis))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assemblers = [SeriesAssembler(s, basis) for s in series]
        during = tracemalloc.get_traced_memory()[0]
        del assemblers
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < (during - before) / 10
    assert vars(basis).keys() == held.keys()
    assert all(vars(basis)[k] is v for k, v in held.items())


def _raised(f, *args):
    with pytest.raises(ArithmeticError) as info:
        f(*args)
    return type(info.value), str(info.value)


def test_assembler_raises_as_the_evaluation_does(system3):
    z, p, _ = system3.modes
    basis = FockBasis(system3, 2, 2)

    def both(orders, lam):
        series = OperatorSeries._ordered(system3, orders)
        want = _raised(matrix_of, series, basis, lam)
        assert _raised(SeriesAssembler(series, basis), lam) == want
        return want

    # lam**k is taken for the empty orders too: order 2 overflows first
    for lam in (1e200, -1e200):
        assert both([{((z,), (z,)): 1.0}, {}, {}, {((), (z,)): 2.0}], lam) == (
            OverflowError, f"coupling {lam!r} to the power 2 overflows a float")
    # finite parts whose abs overflows
    assert both([{((z,), (z,)): complex(1.7e308, 1.7e308)}], 1.0) == (
        OverflowError, "absolute value too large")
    # a kept NaN, and a product that overflows to inf, are non-finite
    # elements; the NaN follows the hypot above, which left errno at ERANGE,
    # so the reference's prune must keep it without a complex abs raising
    kind, message = both([{((z,), (p,)): complex(math.nan, 1.0)}], 0.3)
    assert kind is OracleError and "non-finite" in message
    assert both([{}, {((p,), (z,)): 1e300}], 1e10)[0] is OracleError


# ---------------------------------------------------------------------------
# ground state, with scipy.linalg.eigh as the solver


def test_free_ground_state_is_vacuum(system3):
    basis = FockBasis(system3, 3, 3)
    h = matrix_of(free_hamiltonian(system3, 0), basis, 0.0).toarray()
    energies, vectors = scipy.linalg.eigh(h)
    assert energies[0] == pytest.approx(0.0, abs=1e-12)
    assert abs(vectors[basis.vacuum_index(), 0]) == pytest.approx(1.0)
    assert energies[1] - energies[0] > 1e-10      # not degenerate


def test_interacting_vacuum_energy_is_depressed():
    model = build_model("phi3-full", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    basis = FockBasis(model.system, 6, 6)
    h = matrix_of(model.hamiltonian(), basis, 0.1).toarray()
    assert np.abs(h - h.conj().T).max() < 1e-12
    assert scipy.linalg.eigh(h, eigvals_only=True)[0] < 0.0


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_numeric_identity_for_zero_generator():
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    assert np.allclose(conjugate_numeric(np.zeros((3, 3)), h), h)


def test_conjugate_numeric_rejects_hermitian_generator():
    r = np.eye(2)
    with pytest.raises(ValueError, match="anti-Hermitian"):
        conjugate_numeric(r, np.eye(2))


def test_conjugate_numeric_preserves_spectrum():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    r = x - x.conj().T
    h = np.diag([0.0, 1.0, 1.0, 2.0, 3.0]).astype(complex)
    k = conjugate_numeric(r, h)
    assert np.allclose(np.sort(np.linalg.eigvalsh(k)), np.diag(h).real)


def test_dressing_matrices_are_consistent():
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    result = dress(model)
    basis = FockBasis(model.system, 3, 3)
    matrices = CouplingMatrices(result, basis)
    mr = matrices.pair(0.1)[1].toarray()
    mh, _, w_inv = dressing_matrices(matrices.pair(0.1), 0.1)
    # the scan context's dressed vacuum is column 0 of this exp(-R)
    ctx = _LambdaContext(matrices, 0.1, sites=[])
    psi = w_inv[:, basis.vacuum_index()]
    assert np.array_equal(ctx.vacuum, psi / np.linalg.norm(psi))
    w = scipy.linalg.expm(mr)
    assert np.allclose(w @ w_inv, np.eye(basis.dimension), atol=1e-12)
    assert np.abs(mr + mr.conj().T).max() < 1e-12
    assert np.abs(mh - mh.conj().T).max() < 1e-12


def test_coupling_matrices_assemble_each_pair_anew_and_lay_k_out_once(monkeypatch):
    # a pair is assembled for its one caller and not stored; K's layout is
    # built on first use of `transformed` and kept, its matrices not
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    matrices = CouplingMatrices(dress(model), FockBasis(model.system, 3, 3))
    calls, layouts = [], []
    assemble = numerics.SeriesAssembler.__call__
    init = numerics.SeriesAssembler.__init__

    def counted(self, lam):
        calls.append(lam)
        return assemble(self, lam)

    def laid_out(self, series, basis):
        layouts.append(series)
        init(self, series, basis)

    monkeypatch.setattr(numerics.SeriesAssembler, "__call__", counted)
    monkeypatch.setattr(numerics.SeriesAssembler, "__init__", laid_out)
    first = matrices.pair(0.1)
    assert len(calls) == 2
    second = matrices.pair(0.1)
    assert len(calls) == 4 and all(a is not b for a, b in zip(first, second))
    assert all((a != b).nnz == 0 for a, b in zip(first, second))
    assert not any(sp.issparse(v) for v in vars(matrices).values())
    k = matrices.transformed
    assert matrices.transformed is k and len(layouts) == 1
    assert matrices.transformed(0.1) is not matrices.transformed(0.1)
    assert len(layouts) == 1 and len(calls) == 6


# ---------------------------------------------------------------------------
# perturbation theory


def test_rspt2_vanishes_for_free_model(system3):
    model = build_model("free", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    basis = FockBasis(model.system, 3, 3)
    assert rspt2_shift(model, basis, "phi", (0,)) == pytest.approx(0.0)


def test_rspt2_zero_mode_is_negative():
    # the k = 0 one-particle level is the lowest in its sector: the
    # second-order shift relative to the vacuum must push it down
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    basis = FockBasis(model.system, 4, 4)
    assert rspt2_shift(model, basis, "phi", (0,)) < 0.0


# ---------------------------------------------------------------------------
# fields and norms


def test_field_is_hermitian_and_horizon_enforced():
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3,
                                                    physical_length=3.0))
    result = dress(model)
    basis = FockBasis(model.system, 3, 3)
    a = _LambdaContext(CouplingMatrices(result, basis), 0.1, sites=[(1,)]).field((1,), 0.5)
    assert np.abs(a - a.conj().T).max() < 1e-10
    with pytest.raises(ScanError, match="horizon"):
        equal_time_scan(CouplingMatrices(result, basis), times=[100.0], lambdas=[0.1],
                        site_pairs=[((0,), (1,))])


def test_field_gather_equals_dense_conjugation():
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3,
                                                    physical_length=3.0))
    basis = FockBasis(model.system, 3, 3)
    result = dress(model)
    matrices = CouplingMatrices(result, basis)
    mr = matrices.pair(0.3)[1].toarray()
    _, _, w_inv = dressing_matrices(matrices.pair(0.3), 0.3)
    w = scipy.linalg.expm(mr)
    sites = [(0,), (1,)]
    ctx = _LambdaContext(matrices, 0.3, sites)
    lat = model.system.lattice
    fields = field_at_origin_time_zero(model, basis, w_inv, w, sites)
    assert len(fields) == len(sites)
    for site, got in zip(sites, fields):
        assert np.array_equal(ctx.field(site, 0.0), got)
        x = np.array(site, dtype=float) * lat.spacing
        want = np.zeros((basis.dimension, basis.dimension), dtype=complex)
        for kvec in lat.k_vectors():
            m = model.system.mode("phi", kvec)
            phase = np.exp(1j * float(np.dot(np.array(lat.momentum(kvec)), x)))
            alpha = w_inv @ _ladder_matrix(basis, m).toarray() @ w
            coeff = 1.0 / math.sqrt(2.0 * model.system.energy(m) * lat.volume)
            want += coeff * (phase * alpha + np.conj(phase) * alpha.conj().T)
        assert np.array_equal(got, want)


def test_dressing_at_zero_generator_is_the_general_path_fed_the_exact_identity():
    # at lam = 0, and for a free model at any lam, R(lam) has no element:
    # the fields are, byte for byte, those the general path gives with
    # scipy's own exp(-0) and exp(+0), and so are the states and residuals
    # up to the sign of a zero
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3,
                                                    physical_length=3.0))
    basis = FockBasis(model.system, 4, 4)
    n = basis.dimension
    mh, w, w_inv = dressing_matrices(CouplingMatrices(dress(model), basis).pair(0.0), 0.0)
    assert w is None and w_inv is None
    assert np.array_equal(mh, matrix_of(model.hamiltonian(), basis, 0.0).toarray())
    zero = np.zeros((n, n), dtype=complex)
    exact_inv, exact = scipy.linalg.expm(-zero), scipy.linalg.expm(zero)
    sites = model.system.lattice.sites()
    bare = field_at_origin_time_zero(model, basis, None, None, sites)
    general = field_at_origin_time_zero(model, basis, exact_inv, exact, sites)
    assert [f.tobytes() for f in bare] == [f.tobytes() for f in general]
    for i in range(n):
        psi = numerics.dressed_state(None, i, n)
        assert np.array_equal(psi, exact_inv[:, i])
        assert checks._state_residual(mh, psi) == \
            checks._state_residual(mh, exact_inv[:, i])
    free = build_model("free", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    matrices = CouplingMatrices(dress(free), FockBasis(free.system, 3, 3))
    assert dressing_matrices(matrices.pair(0.3), 0.3)[1:] == (None, None)


def test_context_at_zero_generator_calls_expm_for_its_times_only(monkeypatch):
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3,
                                                    physical_length=3.0))
    matrices = CouplingMatrices(dress(model), FockBasis(model.system, 3, 3))
    calls = []
    expm = scipy.linalg.expm

    def counted(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    sites = [(0,), (1,)]
    ctx = _LambdaContext(matrices, 0.0, sites)
    assert calls == []
    for site in sites:
        ctx.field(site, 0.0)
        ctx.field(site, 1.0)
    assert len(calls) == 1          # exp(i H(0)), once for both sites
    pairs = []
    expm_pair = numerics.expm_pair

    def counted_pair(a):
        pairs.append(a.shape)
        return expm_pair(a)

    monkeypatch.setattr(numerics, "expm_pair", counted_pair)
    calls.clear()
    ctx = _LambdaContext(matrices, 0.1, sites)
    assert calls == [] and len(pairs) == 1      # exp(-R) and exp(R) as one pair
    # the fields are those that scipy's own two calls give
    mr = matrices.pair(0.1)[1].toarray()
    _, _, w_inv = dressing_matrices(matrices.pair(0.1), 0.1)
    w = expm(mr)
    assert len(calls) == 1 and np.array_equal(w_inv, expm(-mr))
    fields = field_at_origin_time_zero(matrices.result.model, matrices.basis, w_inv, w, sites)
    for site, field in zip(sites, fields):
        assert ctx.field(site, 0.0).tobytes() == field.tobytes()


def _pade_structure(a):
    """scipy's (order, scaling) for exp(a)."""
    work = np.empty((5, *a.shape), dtype=a.dtype)
    work[0] = a
    return pick_pade_structure(work)


def test_expm_pair_is_scipys_expm_bit_for_bit():
    rng = np.random.default_rng(21)
    seen = set()
    for n in (2, 9, 40):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for b in (x - x.conj().T, x, x.real):
            for norm1 in (1e-3, 0.1, 0.5, 1.5, 3.0, 20.0):
                a = b * (norm1 / np.abs(b).sum(axis=0).max())
                seen.add(_pade_structure(a))
                minus, plus = numerics.expm_pair(a)
                assert minus.tobytes() == scipy.linalg.expm(-a).tobytes()
                assert plus.tobytes() == scipy.linalg.expm(a).tobytes()
    # every Pade order, unscaled, and the scaled order 13
    assert {m for m, s in seen} == {3, 5, 7, 9, 13}
    assert (13, 0) in seen and any(s > 0 for m, s in seen)
    # scipy's own paths for each sign: a triangular, diagonal, 1 x 1 or
    # integer matrix
    for a in (np.triu(x), np.diag(np.diag(x)), x[:1, :1], np.arange(9).reshape(3, 3)):
        assert [e.tobytes() for e in numerics.expm_pair(a)] == \
            [scipy.linalg.expm(-a).tobytes(), scipy.linalg.expm(a).tobytes()]


# (coupling_strength, physical_length) of the eight inputs that perfbench's
# scan-phi3 workload draws at seed 1
SCAN_PHI3_SEED1 = [(1.0499, 5.1222), (1.0563, 4.8782), (0.9911, 4.6446), (0.9449, 4.8003),
                   (0.8603, 5.2162), (1.017, 5.3515), (0.9486, 5.2652), (1.0178, 4.979)]


@pytest.mark.parametrize("g, length", SCAN_PHI3_SEED1)
def test_dressing_pair_is_scipys_expm_on_the_scan_inputs(g, length):
    model = build_model("phi3", g=g, max_order=2,
                        lattice=LatticeSpec(dim=1, sites_per_dim=5, physical_length=length))
    matrices = CouplingMatrices(dress(model), FockBasis(model.system, 5, 5))
    for lam in (0.05, 0.1, 0.2):
        mh, mr = (m.toarray() for m in matrices.pair(lam))
        got_h, w, w_inv = dressing_matrices(matrices.pair(lam), lam, plus=True)
        assert np.array_equal(got_h, mh)
        assert w_inv.tobytes() == scipy.linalg.expm(-mr).tobytes()
        assert w.tobytes() == scipy.linalg.expm(mr).tobytes()


def _dense_bare_fields(model, basis, sites):
    """The reference of the bare field build: a dense ladder matrix per mode,
    added with its conjugate transpose into every site's field."""
    lat = model.system.lattice
    n = basis.dimension
    out = [np.zeros((n, n), dtype=complex) for _ in sites]
    for kvec in lat.k_vectors():
        m = model.system.mode(model.system.species[0].name, kvec)
        p = np.array(lat.momentum(kvec))
        rows, cols, amps, _ = basis.layout([((), (m,))])
        alpha = np.zeros((n, n), dtype=complex)
        alpha[rows, cols] = amps
        coeff = 1.0 / math.sqrt(2.0 * model.system.energy(m) * lat.volume)
        for field, site in zip(out, sites):
            phase = np.exp(1j * float(np.dot(p, np.array(site, dtype=float) * lat.spacing)))
            field += coeff * (phase * alpha + np.conj(phase) * alpha.conj().T)
    return out


@pytest.mark.parametrize("g, sites_per_dim, length",
                         [(g, 5, length) for g, length in SCAN_PHI3_SEED1] + [(1.0, 3, 3.0)])
def test_bare_field_scatter_is_the_dense_build(g, sites_per_dim, length):
    # every bit, the sign of each zero too: each entry gets one term at most
    model = build_model("phi3", g=g, max_order=2, lattice=LatticeSpec(
        dim=1, sites_per_dim=sites_per_dim, physical_length=length))
    basis = FockBasis(model.system, 5, 5)
    sites = model.system.lattice.sites()
    got = field_at_origin_time_zero(model, basis, None, None, sites)
    want = _dense_bare_fields(model, basis, sites)
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_expm_pair_without_scipys_private_kernels(monkeypatch):
    # a scipy that moves its kernels: both signs come from scipy.linalg.expm
    monkeypatch.setitem(sys.modules, "scipy.linalg._matfuncs_expm", None)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    a = 0.7 * (x - x.conj().T)
    minus, plus = numerics.expm_pair(a)
    assert minus.tobytes() == scipy.linalg.expm(-a).tobytes()
    assert plus.tobytes() == scipy.linalg.expm(a).tobytes()


def test_conjugate_numeric_makes_h_dense_after_exp_r(monkeypatch):
    events = []
    expm = scipy.linalg.expm

    class Recorded(sp.csr_matrix):
        def toarray(self, *args, **kwargs):
            events.append(("dense", self.shape))
            return super().toarray(*args, **kwargs)

    def recorded(a):
        events.append(("expm", a.shape))
        return expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", recorded)
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    matrices = CouplingMatrices(dress(model), FockBasis(model.system, 3, 3))
    mh, mr = matrices.pair(0.1)
    want = expm(mr.toarray()) @ mh.toarray() @ expm(mr.toarray()).conj().T
    events.clear()
    n = mh.shape
    got = conjugate_numeric(Recorded(mr), Recorded(mh))
    assert events == [("dense", n), ("expm", n), ("dense", n)]
    assert got.tobytes() == want.tobytes()


def _old_unitarity_defect(w):
    """The reference: the difference with a formed identity."""
    return np.abs(w @ w.conj().T - np.eye(w.shape[0])).max()


def test_unitarity_defect_equals_the_difference_with_the_identity():
    rng = np.random.default_rng(19)
    cases = []
    for n in (1, 3, 8, 21):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        cases += [scipy.linalg.expm(x - x.conj().T), x, x.real.astype(complex)]
    unitary = cases[::3]
    nan = cases[-2].copy()
    nan[1, 2] = np.nan
    for w in cases + [nan]:
        got = numerics._unitarity_defect(w)
        assert float(got).hex() == float(_old_unitarity_defect(w)).hex()
    assert max(numerics._unitarity_defect(w) for w in unitary) < 1e-12
    assert math.isnan(numerics._unitarity_defect(nan))


def test_restricted_norm_of_identity(system3):
    basis = FockBasis(system3, 3, 3)
    assert restricted_norm(np.eye(basis.dimension), basis, 1) == pytest.approx(1.0)


def test_hamiltonian_conserves_total_momentum_blocks():
    # H is block diagonal in the total crystal momentum of the Fock states
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=5))
    basis = FockBasis(model.system, 3, 3)
    h = matrix_of(model.hamiltonian(), basis, 0.1).tocoo()
    lat = model.system.lattice
    totals = basis.occupations @ np.array([m.k for m in basis.modes])
    labels = [lat.wrap_k(t.tolist()) for t in totals]
    assert any(labels[i] != labels[0] for i in h.row)
    assert max((abs(v) for i, j, v in zip(h.row, h.col, h.data)
                if labels[i] != labels[j]), default=0.0) == 0.0
