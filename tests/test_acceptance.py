"""Acceptance gate: one test per release criterion, one printed line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines on
passing runs as well).
"""

import time

import numpy as np
import pytest

from latticedress.algebra import bad_part, term_type
from latticedress.checks import (
    eigenstate_residuals,
    equal_time_scan,
    fall_off,
    momentum_commutation_defect,
    spacelike_scan,
)
from latticedress.dressing import (
    ZeroDenominatorError,
    dress,
    extract_energy_correction,
)
from latticedress.models import build_model
from latticedress.modes import LatticeSpec
from latticedress.numerics import (
    CouplingMatrices,
    FockBasis,
    conjugate_numeric,
    restricted_norm,
)

from conftest import (
    generator_consistency_defect,
    matrix_of,
    rspt2_shift,
    run_property_suite,
    squeeze_deviation,
)

LAMBDAS = [0.02, 0.04, 0.08, 0.16]
LATTICE5 = LatticeSpec(dim=1, sites_per_dim=5)


def _line(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {verdict}: {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


@pytest.fixture(scope="module")
def dressed_n3():
    """(result, wall seconds) for both 5-mode models at truncation order 3."""
    out = {}
    for name in ("phi3", "scalar-yukawa"):
        t0 = time.monotonic()
        out[name] = (dress(build_model(name, lattice=LATTICE5, max_order=3)),
                     time.monotonic() - t0)
    return out


@pytest.fixture(scope="module")
def phi3_3modes_n2():
    return dress(build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3),
                             max_order=2))


def test_c01_bad_term_elimination(dressed_n3):
    worst = 0.0
    slowest = 0.0
    for name in ("phi3", "scalar-yukawa"):
        result_n2 = dress(build_model(name, lattice=LATTICE5, max_order=2))
        result_n3, seconds = dressed_n3[name]
        slowest = max(slowest, seconds)
        for result in (result_n2, result_n3):
            worst = max(worst, bad_part(result.K).max_abs())
    ok = worst <= 1e-10 and slowest < 60.0
    _line(1, ok, f"max residual bad coefficient {worst:.2e} (tol 1e-10), "
                 f"slowest order-3 dressing {slowest:.1f}s (< 60s)")


def test_c02_order1_identity(dressed_n3):
    worst_k1 = 0.0
    worst_consistency = 0.0
    for name in ("phi3", "scalar-yukawa"):
        result, _ = dressed_n3[name]
        worst_k1 = max(worst_k1,
                       max((abs(c) for c in result.K.orders[1].values()), default=0.0))
        worst_consistency = max(worst_consistency,
                                generator_consistency_defect(result))
    ok = worst_k1 == 0.0 and worst_consistency <= 1e-12
    _line(2, ok, f"order-1 content of K {worst_k1:.1e} (exact zero), "
                 f"generator consistency defect {worst_consistency:.2e} (tol 1e-12)")


def test_c03_oracle_equivalence_slope():
    lattice = LatticeSpec(dim=1, sites_per_dim=3)
    slopes = {}
    for n in (2, 3):
        model = build_model("phi3", lattice=lattice, max_order=n)
        result = dress(model)
        basis = FockBasis(model.system, 4, 4)
        diffs = []
        for lam in LAMBDAS:
            mh = matrix_of(model.hamiltonian(), basis, lam)
            mr = matrix_of(result.generator, basis, lam)
            mk = matrix_of(result.K, basis, lam).toarray()
            diffs.append(restricted_norm(conjugate_numeric(mr, mh) - mk, basis, 2))
        fit = np.polyfit(np.log(LAMBDAS), np.log(diffs), 1)[0]
        slopes[n] = float(fit)
    ok = all(abs(slopes[n] - (n + 1)) <= 0.4 for n in slopes)
    _line(3, ok, "transformed-Hamiltonian vs numerically conjugated matrix: "
                 + ", ".join(f"order {n}: slope {s:.2f} (target {n + 1} +/- 0.4)"
                             for n, s in slopes.items()))


def test_c04_eigenstate_residual_slopes():
    lattice = LatticeSpec(dim=1, sites_per_dim=3)
    details = []
    ok = True
    for n in (2, 3):
        model = build_model("phi3-full", lattice=lattice, max_order=n)
        result = dress(model)
        basis = FockBasis(model.system, 12, 12)
        rep = eigenstate_residuals(CouplingMatrices(result, basis), [0.0] + LAMBDAS)
        fitted, _, _ = fall_off(rep.lambdas, [rep.vacuum, *rep.one_particle.values()],
                                n + 1, 0.4)
        slopes = [s for s in fitted if s is not None]
        at_zero = max([rep.vacuum[0]] + [r[0] for r in rep.one_particle.values()])
        ok = ok and len(slopes) == 1 + len(model.system.modes)
        ok = ok and all(abs(s - (n + 1)) <= 0.4 for s in slopes)
        ok = ok and at_zero < 1e-12
        details.append(f"order {n}: slopes {min(slopes):.2f}..{max(slopes):.2f} "
                       f"(target {n + 1} +/- 0.4), residual at zero coupling "
                       f"{at_zero:.1e}")
    _line(4, ok, "; ".join(details))


def test_c05_bogoliubov_squeezing():
    dev, ccr = squeeze_deviation(0.1, cutoff=40, block=21)
    dev_doubled, _ = squeeze_deviation(0.1, cutoff=80, block=21)
    ok = dev < 1e-6 and ccr < 1e-6 and dev_doubled <= dev
    _line(5, ok, f"squeezing deviation {dev:.2e} (tol 1e-6) on the low block, "
                 f"{dev_doubled:.2e} at doubled cutoff (no larger), "
                 f"commutator deviation {ccr:.2e} (tol 1e-6)")


def test_c06_energy_correction_matches_perturbation_theory():
    model = build_model("phi3", lattice=LATTICE5)
    result = dress(model)
    basis = FockBasis(model.system, 4, 4)
    worst = 0.0
    for m in model.system.modes:
        symbolic = extract_energy_correction(result, m.species, m.k)
        numeric = rspt2_shift(model, basis, m.species, m.k)
        worst = max(worst, abs(symbolic - numeric))
    ok = worst < 1e-6
    _line(6, ok, f"one-particle energy correction vs second-order perturbation "
                 f"theory: max difference {worst:.2e} (tol 1e-6) over "
                 f"{len(model.system.modes)} modes")


def test_c07_momentum_commutation(dressed_n3):
    worst = 0.0
    for name in ("phi3", "scalar-yukawa"):
        result, _ = dressed_n3[name]
        worst = max(worst, momentum_commutation_defect(result.K, result.model))
    ok = worst <= 1e-10
    _line(7, ok, f"termwise commutator of K with the total momentum: "
                 f"{worst:.1e} (tol 1e-10), both models, order 3")


def test_c08_equal_time_locality():
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3,
                                                    physical_length=3.0))
    result = dress(model)
    basis = FockBasis(model.system, 8, 8)
    sites = model.system.lattice.sites()
    pairs = [(a, b) for i, a in enumerate(sites) for b in sites[i + 1:]]
    rep = equal_time_scan(CouplingMatrices(result, basis), times=[0.0, 1.0, 2.0],
                          lambdas=[0.0, 0.1], site_pairs=pairs, block=2)
    worst = max(p.magnitude for p in rep.points)
    ok = worst < 1e-8
    _line(8, ok, f"equal-time field commutator over {len(rep.points)} "
                 f"(pair, time, coupling) points: max norm {worst:.2e} (tol 1e-8)")


def test_c09_spacelike_nonlocality():
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=5,
                                                    physical_length=5.0))
    result = dress(model)
    basis = FockBasis(model.system, 7, 7)
    rep = spacelike_scan(CouplingMatrices(result, basis), lambdas=[0.05, 0.1, 0.2],
                         grid=[((0,), (2,), 1.0)], block=2)
    signal = min(p.subtracted for p in rep.points if p.lam >= 0.1)
    ok = (rep.slope is not None and abs(rep.slope - 2.0) <= 0.3
          and signal > 10.0 * rep.noise_floor)
    slope_text = "none" if rep.slope is None else f"{rep.slope:.2f}"
    _line(9, ok, f"spacelike commutator after baseline subtraction: slope "
                 f"{slope_text} (target 2.0 +/- 0.3), weakest signal at "
                 f"coupling >= 0.1 is {signal:.2e} vs noise floor "
                 f"{rep.noise_floor:.2e}")


def test_c10_full_removal_policy_hits_resonances(phi3_3modes_n2):
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3),
                        policy="weidlich")
    try:
        dress(model)
    except ZeroDenominatorError as exc:
        elastic = [sig for sig, _ in exc.signatures if term_type(sig) == (2, 2)]
        ok = exc.order == 2 and bool(elastic)
        detail = (f"full-removal policy raised at order {exc.order} with "
                  f"{len(elastic)} elastic (2,2) resonances; "
                  f"bad-term policy succeeded on the same lattice")
    else:
        ok, detail = False, "full-removal policy unexpectedly succeeded"
    ok = ok and phi3_3modes_n2.K is not None
    _line(10, ok, detail)


def test_c11_algebra_property_suite(system3):
    basis = FockBasis(system3, 6, 6)
    checked = run_property_suite(system3, basis, n_instances=200, seed=20260824)
    _line(11, checked == 200,
          f"{checked} randomized instances: associativity, Jacobi, dagger "
          f"anti-homomorphism, matrix homomorphism")
