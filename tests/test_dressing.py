import hashlib
import math
import struct

import pytest

from latticedress.algebra import (
    OperatorSeries,
    bad_part,
    commutator,
    dagger,
    energy_denominator,
    term_type,
)
from latticedress import dressing
from latticedress.dressing import (
    ZeroDenominatorError,
    _target_terms,
    bch_conjugate,
    dress,
    extract_energy_correction,
    solve_generator,
)
from latticedress.models import build_model
from latticedress.modes import LatticeSpec

from conftest import generator_consistency_defect


@pytest.fixture(scope="module")
def phi3_result():
    return dress(build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=5)))


@pytest.fixture(scope="module")
def phi3_full_result():
    return dress(build_model("phi3-full", lattice=LatticeSpec(dim=1, sites_per_dim=5)))


def test_first_order_cancels_exactly(phi3_result):
    # the whole trilinear vertex is removable, so K has no order-1 content
    assert phi3_result.K.orders[1] == {}
    assert phi3_result.removed[0] == pytest.approx(
        phi3_result.model.interaction.orders[1]
    )


def test_generator_solves_its_defining_equation(phi3_result, phi3_full_result):
    assert generator_consistency_defect(phi3_result) < 1e-12
    assert generator_consistency_defect(phi3_full_result) < 1e-12


def test_generators_are_antihermitian(phi3_result, phi3_full_result):
    for result in (phi3_result, phi3_full_result):
        for rn in result.generators:
            assert (rn + dagger(rn)).max_abs() < 1e-12


def test_no_bad_terms_left(phi3_result, phi3_full_result):
    assert bad_part(phi3_result.K).max_abs() == 0.0
    assert bad_part(phi3_full_result.K).max_abs() == 0.0


def test_generator_coefficient_is_divided_coefficient(phi3_result):
    model = phi3_result.model
    r1 = phi3_result.generators[0]
    for sig, r in r1.orders[1].items():
        c = model.interaction.orders[1][sig]
        de = energy_denominator(sig, model.system.energy)
        assert r == pytest.approx(c / de)


def test_surviving_order2_terms_are_good(phi3_result):
    types = {term_type(sig) for sig in phi3_result.K.orders[2]}
    assert types
    assert types <= {(0, 0), (1, 1), (2, 2)}


def test_vacuum_coefficient_vanishes_without_pure_creation(phi3_result):
    # the literal trilinear kernel leaves the bare vacuum an exact eigenstate
    assert phi3_result.vacuum_energy_coefficient(2) == 0j


def test_vacuum_coefficient_negative_with_pure_creation(phi3_full_result):
    c = phi3_full_result.vacuum_energy_coefficient(2)
    assert abs(c.imag) < 1e-12
    assert c.real < 0.0


def test_full_vertex_removed_types_at_order2(phi3_full_result):
    types = {term_type(sig) for sig in phi3_full_result.removed[1]}
    assert types == {(2, 0), (0, 2), (3, 1), (1, 3), (4, 0), (0, 4)}


def test_energy_correction_is_real_and_symmetric(phi3_result):
    system = phi3_result.model.system
    deltas = {
        m.k: extract_energy_correction(phi3_result, m.species, m.k)
        for m in system.modes
    }
    for k, d in deltas.items():
        assert d == pytest.approx(deltas[tuple(-c for c in k)])


def test_energy_correction_needs_order_two():
    result = dress(build_model(
        "phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3), max_order=1))
    with pytest.raises(ValueError, match="order 2"):
        extract_energy_correction(result, "phi", (0,))


def test_weidlich_hits_elastic_zero_denominators():
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=5),
                        policy="weidlich")
    with pytest.raises(ZeroDenominatorError) as exc:
        dress(model)
    assert exc.value.order == 2
    assert exc.value.policy == "weidlich"
    assert all(term_type(sig) == (2, 2) for sig, _ in exc.value.signatures)
    assert all(abs(de) < 1e-8 for _, de in exc.value.signatures)


def test_solve_generator_reports_minimum_denominator():
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    bad = model.interaction.orders[1]
    terms, min_den, near = solve_generator(bad, model, order=1)
    dens = [abs(energy_denominator(sig, model.system.energy)) for sig in bad]
    assert min_den == pytest.approx(min(dens))
    assert set(terms) == set(bad)
    assert near == []


def test_bch_with_zero_generator_is_identity(phi3_result):
    from latticedress.algebra import OperatorSeries

    model = phi3_result.model
    h = model.hamiltonian()
    r0 = OperatorSeries.zero(model.system, model.max_order)
    assert (bch_conjugate(r0, h, model.max_order) - h).max_abs() == 0.0


def test_bch_rejects_order0_generator(phi3_result):
    from latticedress.algebra import OperatorSeries

    model = phi3_result.model
    r = OperatorSeries.from_terms(
        model.system,
        [((model.system.modes[0],), (model.system.modes[0],), 1j)],
        order=0, max_order=2,
    )
    with pytest.raises(ValueError, match="order-0"):
        bch_conjugate(r, model.hamiltonian(), 2)


def test_transformed_hamiltonian_is_hermitian(phi3_result, phi3_full_result):
    assert phi3_result.K.hermiticity_defect() < 1e-12
    assert phi3_full_result.K.hermiticity_defect() < 1e-12


def test_scalar_yukawa_dresses_clean():
    result = dress(build_model(
        "scalar-yukawa", lattice=LatticeSpec(dim=1, sites_per_dim=3)))
    assert bad_part(result.K).max_abs() == 0.0
    assert generator_consistency_defect(result) < 1e-12
    assert bad_part(result.K).is_zero()


# weidlich dresses only at order 1: elastic (2,2) terms have zero denominators
@pytest.mark.parametrize("name", ["phi3", "phi3-full", "scalar-yukawa"])
@pytest.mark.parametrize("order, policy", [(2, "shirokov"), (3, "shirokov"),
                                           (1, "weidlich")])
def test_dressed_K_equals_full_reexpansion(name, order, policy):
    # dress() takes K from the loop's last expansion less the removed terms,
    # where [R_N, H] would only cancel the last removed ones, instead of
    # expanding again with the whole generator; the two must agree bit for bit
    model = build_model(name, lattice=LatticeSpec(dim=1, sites_per_dim=5,
                                                  physical_length=5.0),
                        max_order=order, policy=policy)
    result = dress(model)
    full = bch_conjugate(result.generator, model.hamiltonian(), order)
    assert [list(o.items()) for o in result.K.orders] == \
        [list(o.items()) for o in full.orders]


@pytest.mark.parametrize("name, sites, order, g", [
    ("phi3", 5, 3, 30.0),
    ("scalar-yukawa", 3, 2, 100.0),
])
def test_no_bad_terms_left_at_large_coupling(name, sites, order, g):
    # coefficients up to ~1e3, where the cancellation's rounding residue of a
    # removed term exceeds the absolute prune threshold
    model = build_model(name, lattice=LatticeSpec(dim=1, sites_per_dim=sites),
                        g=g, max_order=order)
    result = dress(model)
    assert bad_part(result.K).term_count() == 0


# ---------------------------------------------------------------------------
# the loop on mode ids against the same loop on ModeIndex labels


def _reference_bch(r, h, max_order):
    """bch_conjugate with every intermediate series sorted again."""
    def series(p, orders):
        return OperatorSeries(p.system, orders, len(orders) - 1)

    r = series(r, [dict(o) for o in r.orders[: max_order + 1]])
    acc = series(h, [dict(o) for o in h.orders[: max_order + 1]])
    nested = acc
    for j in range(1, max_order + 1):
        factor = 1.0 / j
        c = commutator(r, nested)
        nested = series(c, [{s: factor * x for s, x in o.items()} for o in c.orders])
        if nested.is_zero():
            break
        acc = acc + nested
    return acc


def _reference_dress(model):
    """The order-by-order loop run on `ModeIndex` labels throughout."""
    n_max = model.max_order
    h = model.hamiltonian()
    system = model.system
    r = OperatorSeries.zero(system, n_max)
    generators, removed, diagnostics = [], [], []
    min_den = math.inf
    for n in range(1, n_max + 1):
        k = _reference_bch(r, h, n)
        target = _target_terms(k.orders[n], model.policy)
        rn_terms, den, near = solve_generator(target, model, order=n)
        min_den = min(min_den, den)
        diagnostics.extend(near)
        removed.append(target)
        rn = OperatorSeries.zero(system, n_max)
        rn.orders[n] = dict(sorted(rn_terms.items()))
        generators.append(rn)
        r = r + rn
    k = k + commutator(rn, h)
    for n, target in enumerate(removed, start=1):
        for sig in target:
            k.orders[n].pop(sig, None)
    return generators, r, k, removed, min_den, diagnostics


def _items(p):
    return [list(o.items()) for o in p.orders]


DRESS_CASES = [
    ("scalar-yukawa", 7, 2, "shirokov"), ("scalar-yukawa", 5, 3, "shirokov"),
    ("scalar-yukawa", 3, 3, "shirokov"), ("scalar-yukawa", 5, 1, "weidlich"),
    ("scalar-yukawa", 5, 2, "weidlich"),
    ("phi3", 5, 3, "shirokov"), ("phi3", 7, 3, "shirokov"), ("phi3", 5, 2, "shirokov"),
    ("phi3", 5, 1, "shirokov"), ("phi3", 3, 3, "shirokov"), ("phi3", 5, 1, "weidlich"),
    ("phi3", 5, 3, "weidlich"),
    ("phi3-full", 5, 3, "shirokov"), ("phi3-full", 5, 1, "weidlich"),
    ("phi3-full", 3, 3, "weidlich"), ("phi3-full", 5, 2, "weidlich"),
]


@pytest.mark.parametrize("name, sites, order, policy", DRESS_CASES)
def test_dress_on_mode_ids_matches_the_modeindex_loop(monkeypatch, name, sites, order,
                                                     policy):
    # bit for bit and in dict order: K, every R_n, R, removed, the minimum
    # denominator and the near resonances, or the zero-denominator error;
    # the built-in models have no near resonance, so the warning threshold is
    # raised until some denominators are reported
    monkeypatch.setattr(dressing, "NEAR_RESONANCE_WARN", 0.6)
    model = build_model(name, lattice=LatticeSpec(dim=1, sites_per_dim=sites,
                                                  physical_length=sites + 0.7),
                        g=1.1, max_order=order, policy=policy)
    try:
        expected = _reference_dress(model)
    except ZeroDenominatorError as exc:
        with pytest.raises(ZeroDenominatorError) as got:
            dress(model)
        assert (got.value.order, got.value.policy, got.value.signatures) == \
            (exc.order, exc.policy, exc.signatures)
        assert str(got.value) == str(exc)
        return
    generators, r, k, removed, min_den, diagnostics = expected
    result = dress(model)
    assert [_items(rn) for rn in result.generators] == [_items(rn) for rn in generators]
    assert _items(result.generator) == _items(r)
    assert _items(result.K) == _items(k)
    assert [list(t.items()) for t in result.removed] == [list(t.items()) for t in removed]
    assert result.min_denominator == min_den
    assert result.diagnostics == diagnostics
    assert isinstance(next(iter(result.K.orders[0])), tuple)
    modes = set(model.system.modes)
    assert all(set(c + a) <= modes for o in result.K.orders for c, a in o)


# ---------------------------------------------------------------------------
# golden bits of the engine


GOLDEN_DRESS_SHA256 = "975295daf9a74dbdd77ca7c4b2025ddcd201cd4b604c98b16840d5de16ac1a36"


def test_dress_bits_match_the_golden_digest():
    # one sha256 over every signature and the exact bits of each coefficient
    # of K, every R_n and the removed terms, in dict order, for each model at
    # orders 2-4 under both policies; weidlich meets its elastic zero
    # denominators at order 2, recorded by that order
    digest = hashlib.sha256()
    for name in ("phi3", "phi3-full", "scalar-yukawa"):
        for order in (2, 3, 4):
            for policy in ("shirokov", "weidlich"):
                digest.update(f"{name} {order} {policy}".encode())
                model = build_model(name, lattice=LatticeSpec(dim=1, sites_per_dim=5),
                                    max_order=order, policy=policy)
                try:
                    result = dress(model)
                except ZeroDenominatorError as exc:
                    digest.update(f"zero denominator at order {exc.order}".encode())
                    continue
                maps = [*result.K.orders,
                        *(o for rn in result.generators for o in rn.orders),
                        *result.removed]
                for terms in maps:
                    for sig, c in terms.items():
                        digest.update(repr(sig).encode())
                        digest.update(struct.pack("dd", c.real, c.imag))
    assert digest.hexdigest() == GOLDEN_DRESS_SHA256
