import math

import numpy as np
import pytest
import scipy.sparse as sp

from latticedress.checks import ScanError, _LambdaContext, equal_time_scan
from latticedress.dressing import dress
from latticedress.models import build_model, free_hamiltonian
from latticedress.modes import LatticeSpec
from latticedress.numerics import (
    BasisError,
    FockBasis,
    build_basis,
    conjugate_numeric,
    dressing_matrices,
    field_at_origin_time_zero,
    ground_state,
    ladder_matrix,
    matrix_of,
    matrix_of_terms,
    momentum_block_defect,
    restricted_norm,
    rspt2_shift,
)

from conftest import mode


# ---------------------------------------------------------------------------
# basis construction


def test_single_mode_dimension(system1):
    assert FockBasis(system1, 4, 4).dimension == 5


def test_total_cutoff_zero_is_vacuum_only(system3):
    basis = FockBasis(system3, 4, 0)
    assert basis.dimension == 1
    assert basis.states == [(0, 0, 0)]


def test_graded_enumeration(system3):
    basis = FockBasis(system3, 2, 2)
    assert basis.states[0] == (0, 0, 0)
    assert list(basis.totals) == sorted(basis.totals)
    # 1 vacuum + 3 singles + 6 doubles
    assert basis.dimension == 10
    assert len(basis.block_indices(1)) == 4


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


def test_build_basis_accepts_model():
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    assert build_basis(model, 2, 2).dimension == 10


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
    pos = basis.mode_position(z)
    expected = np.diag([state[pos] for state in basis.states]).astype(complex)
    assert np.allclose(n, expected)


def test_ladder_matrix_elements(system1):
    basis = FockBasis(system1, 4, 4)
    z = mode(system1, 0)
    a = ladder_matrix(basis, z).toarray()
    ad = ladder_matrix(basis, z, create=True).toarray()
    assert a[2, 3] == pytest.approx(math.sqrt(3))
    assert np.allclose(ad, a.conj().T)
    # projection: creating on the top state yields nothing
    assert np.all(ad[:, 4] == 0)


def test_matrix_of_series_evaluates_coupling(system1):
    z = mode(system1, 0)
    from latticedress.algebra import OperatorSeries

    s = OperatorSeries.from_terms(system1, [((z,), (z,), 1.0)], order=1, max_order=1)
    basis = FockBasis(system1, 2, 2)
    m = matrix_of(s, basis, 0.5).toarray()
    assert m[1, 1] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# eigensolver


def test_free_ground_state_is_vacuum(system3):
    basis = FockBasis(system3, 3, 3)
    h = matrix_of(free_hamiltonian(system3, 0), basis, 0.0)
    gs = ground_state(h)
    assert gs.energy == pytest.approx(0.0, abs=1e-12)
    assert abs(gs.vector[basis.vacuum_index()]) == pytest.approx(1.0)
    assert gs.residual < 1e-10
    assert not gs.degenerate


def test_interacting_vacuum_energy_is_depressed():
    model = build_model("phi3-full", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    basis = FockBasis(model.system, 6, 6)
    h = matrix_of(model.hamiltonian(), basis, 0.1)
    gs = ground_state(h)
    assert gs.energy < 0.0


def test_ground_state_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        ground_state(m)


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
    mh, mr, w_inv, w = dressing_matrices(result, basis, 0.1)
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
    a = _LambdaContext(model, basis, result, 0.1).field((1,), 0.5)
    assert np.abs(a - a.conj().T).max() < 1e-10
    with pytest.raises(ScanError, match="horizon"):
        equal_time_scan(model, basis, result, times=[100.0], lambdas=[0.1],
                        site_pairs=[((0,), (1,))])


def test_field_rejects_multi_species():
    model = build_model("scalar-yukawa", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    basis = FockBasis(model.system, 2, 2)
    eye = np.eye(basis.dimension)
    with pytest.raises(ValueError, match="single-species"):
        field_at_origin_time_zero(model, basis, eye, eye, (0,))


def test_restricted_norm_of_identity(system3):
    basis = FockBasis(system3, 3, 3)
    assert restricted_norm(np.eye(basis.dimension), basis, 1) == pytest.approx(1.0)


def test_hamiltonian_conserves_total_momentum_blocks():
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=5))
    basis = FockBasis(model.system, 3, 3)
    h = matrix_of(model.hamiltonian(), basis, 0.1)
    assert momentum_block_defect(model, basis, h) == 0.0
