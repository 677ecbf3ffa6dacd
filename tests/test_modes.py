import math

import pytest

from latticedress.modes import FieldSpecies, LatticeSpec, ModeIndex, ModeSystem


def test_k_vectors_symmetric_range():
    lat = LatticeSpec(dim=1, sites_per_dim=5)
    assert lat.k_vectors() == [(-2,), (-1,), (0,), (1,), (2,)]


def test_even_sites_rejected():
    with pytest.raises(ValueError, match="odd"):
        LatticeSpec(dim=1, sites_per_dim=4)


def test_wrap_k_minimum_image():
    lat = LatticeSpec(dim=1, sites_per_dim=5)
    assert lat.wrap_k((3,)) == (-2,)
    assert lat.wrap_k((-3,)) == (2,)
    assert lat.wrap_k((5,)) == (0,)
    assert lat.wrap_k((2,)) == (2,)


def test_momentum_and_volume():
    lat = LatticeSpec(dim=1, sites_per_dim=5, physical_length=2.0 * math.pi)
    assert lat.momentum((2,)) == pytest.approx((2.0,))
    assert lat.volume == pytest.approx(2.0 * math.pi)
    assert lat.spacing == pytest.approx(2.0 * math.pi / 5)


def test_min_image_distance_wraps():
    lat = LatticeSpec(dim=1, sites_per_dim=5, physical_length=5.0)
    assert lat.min_image_distance((0,), (4,)) == pytest.approx(1.0)
    assert lat.min_image_distance((0,), (2,)) == pytest.approx(2.0)


def test_dispersion(system5):
    m = system5.mode("phi", (2,))
    assert system5.energy(m) == pytest.approx(math.sqrt(4.0 + 1.0))
    assert system5.lattice.momentum(m.k) == pytest.approx((2.0,))


def test_modes_sorted_and_membership(system3):
    assert list(system3.modes) == sorted(system3.modes)
    assert system3.contains(ModeIndex("phi", (1,)))
    assert not system3.contains(ModeIndex("phi", (2,)))
    with pytest.raises(KeyError):
        system3.mode("phi", (9,))
    assert "nope" not in [s.name for s in system3.species]


def test_duplicate_species_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        ModeSystem(LatticeSpec(), [FieldSpecies("phi", 1.0), FieldSpecies("phi", 2.0)])


def test_nonpositive_mass_rejected():
    with pytest.raises(ValueError, match="mass"):
        FieldSpecies("phi", 0.0)


def test_mode_repr():
    assert repr(ModeIndex("phi", (-1,))) == "phi[-1]"
