import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from latticedress.checks import ScanError, _LambdaContext, equal_time_scan
from latticedress.dressing import dress
from latticedress.models import build_model, free_hamiltonian
from latticedress.modes import FieldSpecies, LatticeSpec, ModeSystem
from latticedress.numerics import (
    BasisError,
    FockBasis,
    conjugate_numeric,
    dressing_matrices,
    field_at_origin_time_zero,
    matrix_of,
    matrix_of_terms,
    restricted_norm,
)

from conftest import mode, rspt2_shift


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
    # the cached arrays are shared between calls, so callers cannot write them
    rows, _, _ = basis.action(*next(iter(terms)))
    with pytest.raises(ValueError):
        rows[:] = 0


def test_state_keys_past_int64_still_find_rows():
    # 65 modes at total cutoff 1: 2**65 keys overflow int64
    system = ModeSystem(LatticeSpec(dim=1, sites_per_dim=65), [FieldSpecies("phi", 1.0)])
    basis = FockBasis(system, 1, 1)
    a, b = system.modes[0], system.modes[-1]
    terms = {((a,), (b,)): 1.0 + 0j, ((b,), ()): 2.0 + 0j, ((), ()): 0.5 + 0j}
    got = matrix_of_terms(terms, basis)
    want = _matrix_state_by_state(terms, basis)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)
    assert basis.index_of(basis.occupations[-1]) == basis.dimension - 1


def test_matrix_of_series_evaluates_coupling(system1):
    z = mode(system1, 0)
    from latticedress.algebra import OperatorSeries

    s = OperatorSeries.from_terms(system1, [((z,), (z,), 1.0)], order=1, max_order=1)
    basis = FockBasis(system1, 2, 2)
    m = matrix_of(s, basis, 0.5).toarray()
    assert m[1, 1] == pytest.approx(0.5)


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
    mh, mr, w_inv = dressing_matrices(result, basis, 0.1)
    # the scan context's dressed vacuum is column 0 of this exp(-R)
    ctx = _LambdaContext(result, basis, 0.1, sites=[])
    psi = w_inv[:, basis.vacuum_index()]
    assert np.array_equal(ctx.vacuum, psi / np.linalg.norm(psi))
    w = scipy.linalg.expm(mr)
    assert np.allclose(w @ w_inv, np.eye(basis.dimension), atol=1e-12)
    assert np.abs(mr + mr.conj().T).max() < 1e-12
    assert np.abs(mh - mh.conj().T).max() < 1e-12


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
    a = _LambdaContext(result, basis, 0.1, sites=[(1,)]).field((1,), 0.5)
    assert np.abs(a - a.conj().T).max() < 1e-10
    with pytest.raises(ScanError, match="horizon"):
        equal_time_scan(model, basis, result, times=[100.0], lambdas=[0.1],
                        site_pairs=[((0,), (1,))])


def test_field_gather_equals_dense_conjugation():
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3,
                                                    physical_length=3.0))
    basis = FockBasis(model.system, 3, 3)
    result = dress(model)
    _, mr, w_inv = dressing_matrices(result, basis, 0.3)
    w = scipy.linalg.expm(mr)
    sites = [(0,), (1,)]
    ctx = _LambdaContext(result, basis, 0.3, sites)
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


def test_field_rejects_multi_species():
    model = build_model("scalar-yukawa", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    basis = FockBasis(model.system, 2, 2)
    eye = np.eye(basis.dimension)
    with pytest.raises(ValueError, match="single-species"):
        field_at_origin_time_zero(model, basis, eye, eye, [(0,)])


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
