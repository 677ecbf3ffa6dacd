import math

import pytest

from latticedress.algebra import (
    OperatorSeries,
    classify,
    energy_denominator,
    is_bad_type,
    term_type,
)
from latticedress.models import (
    BUILTIN_INTERACTIONS,
    ModelError,
    ModelSpec,
    build_model,
    free_hamiltonian,
    momentum_defect,
)
from latticedress.modes import FieldSpecies, LatticeSpec

from conftest import mode


def _min_decay_denominator(model):
    """The smallest |energy denominator| over the interaction's terms."""
    return min(abs(energy_denominator(sig, model.system.energy))
               for sig in model.interaction.orders[1])


@pytest.fixture(scope="module")
def phi3_5():
    return build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=5))


def test_free_hamiltonian_is_diagonal(system3):
    h0 = free_hamiltonian(system3, 0)
    for (creators, annihilators), c in h0.orders[0].items():
        assert creators == annihilators and len(creators) == 1
        assert c == pytest.approx(system3.energy(creators[0]))


def test_phi3_coefficient_normalization(phi3_5):
    system = phi3_5.system
    p1, z = mode(system, 1), mode(system, 0)
    # ordered pairs (1,0) and (0,1) merge onto the same signature
    expected = 2.0 / math.sqrt(
        8.0 * system.energy(p1) ** 2 * system.energy(z) * system.lattice.volume
    )
    c = phi3_5.interaction.orders[1][(tuple(sorted((z, p1))), (p1,))]
    assert c == pytest.approx(expected)
    # degenerate pair (1,1) -> 2 appears once
    p2 = mode(system, 2)
    expected_deg = 1.0 / math.sqrt(
        8.0 * system.energy(p1) ** 2 * system.energy(p2) * system.lattice.volume
    )
    assert phi3_5.interaction.orders[1][((p1, p1), (p2,))] == pytest.approx(expected_deg)


def test_phi3_term_types_all_bad(phi3_5):
    types = {term_type(sig) for sig in phi3_5.interaction.orders[1]}
    assert types == {(2, 1), (1, 2)}
    assert all(is_bad_type(*t) for t in types)


def test_phi3_momentum_conserving_and_hermitian(phi3_5):
    lat = phi3_5.system.lattice
    assert all(
        momentum_defect(sig, lat) == (0,) for sig in phi3_5.interaction.orders[1]
    )
    assert phi3_5.interaction.hermiticity_defect() < 1e-14


def test_phi3_umklapp_present_on_5_sites(phi3_5):
    # k1 = k2 = 2 -> k3 wraps from 4 to -1: genuine umklapp channels exist
    assert phi3_5.umklapp_signatures


def test_phi3_no_decay_denominators(phi3_5):
    # equal-mass trilinear kinematics: 1 -> 2 decay is never on shell
    assert _min_decay_denominator(phi3_5) > 0.5


def test_phi3_full_carries_pure_creation_terms():
    model = build_model("phi3-full", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    types = {term_type(sig) for sig in model.interaction.orders[1]}
    assert types == {(3, 0), (2, 1), (1, 2), (0, 3)}
    assert model.interaction.hermiticity_defect() < 1e-14
    lat = model.system.lattice
    assert all(
        momentum_defect(sig, lat) == (0,) for sig in model.interaction.orders[1]
    )


def test_scalar_yukawa_structure():
    model = build_model("scalar-yukawa", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    assert [s.name for s in model.system.species] == ["N", "phi"]
    assert model.system.species_named("phi").mass == pytest.approx(0.5)
    types = {term_type(sig) for sig in model.interaction.orders[1]}
    assert types == {(2, 1), (1, 2)}
    lat = model.system.lattice
    for sig in model.interaction.orders[1]:
        assert momentum_defect(sig, lat) == (0,)
        # every term moves exactly one heavy quantum and one light quantum
        species = sorted(m.species for m in sig[0] + sig[1])
        assert species == ["N", "N", "phi"]
    assert model.interaction.hermiticity_defect() < 1e-14
    assert _min_decay_denominator(model) > 0.4


def test_free_model_has_no_interaction():
    model = build_model("free", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    assert model.interaction.is_zero()
    h = model.hamiltonian()
    assert set(classify(h)) == {(1, 1)}


def test_builder_rejections(system3):
    with pytest.raises(ModelError, match="unknown interaction"):
        build_model("phi4")
    with pytest.raises(ModelError, match="exactly one species"):
        build_model("phi3", species=[FieldSpecies("a", 1.0), FieldSpecies("b", 1.0)])
    with pytest.raises(ModelError, match="exactly two species"):
        build_model("scalar-yukawa", species=[FieldSpecies("N", 1.0)])
    with pytest.raises(ModelError, match="policy"):
        build_model("phi3", policy="aggressive")
    with pytest.raises(ModelError, match="max_order"):
        build_model("phi3", max_order=0)


def test_modelspec_rejects_non_hermitian(system3):
    z = mode(system3, 0)
    v = OperatorSeries.from_terms(system3, [((z, z), (), 1.0)], order=1)
    with pytest.raises(ModelError, match="Hermitian"):
        ModelSpec(system=system3, interaction=v)


def test_modelspec_rejects_wrong_order_content(system3):
    z = mode(system3, 0)
    v = OperatorSeries.from_terms(system3, [((z,), (z,), 1.0)], order=0, max_order=1)
    with pytest.raises(ModelError, match="order-1"):
        ModelSpec(system=system3, interaction=v)


def test_builtin_names_stable():
    assert BUILTIN_INTERACTIONS == ("phi3", "phi3-full", "scalar-yukawa", "free")
