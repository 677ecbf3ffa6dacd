import json
import math
import struct
from collections import Counter
from contextlib import nullcontext
from itertools import combinations_with_replacement, product as iter_product

import numpy as np
import pytest

from latticedress import algebra, dressing
from latticedress.algebra import (
    AlgebraError,
    PRUNE_THRESHOLD,
    OperatorSeries,
    _contractions,
    canonicalize,
    commutator,
    dagger,
    is_bad_type,
    normal_order_product,
    product_terms,
    term_type,
)
from latticedress.cli import TermTable
from latticedress.dressing import ZeroDenominatorError, dress
from latticedress.models import build_model
from latticedress.modes import FieldSpecies, LatticeSpec, ModeIndex, ModeSystem

from conftest import mode, report_text


def single(system, creators, annihilators, coeff=1.0, max_order=0):
    return OperatorSeries.from_terms(
        system, [(creators, annihilators, coeff)], order=0, max_order=max_order
    )


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_merges_commuting_reorderings(system3):
    p1, m1 = mode(system3, 1), mode(system3, -1)
    terms = canonicalize([((p1, m1), (), 1.0), ((m1, p1), (), 1.0)])
    assert terms == {((m1, p1), ()): pytest.approx(2.0)}


def test_canonicalize_exact_cancellation(system3):
    z = mode(system3, 0)
    assert canonicalize([((z,), (), 1.0), ((z,), (), -1.0)]) == {}


def test_canonicalize_already_canonical(system3):
    p1, z = mode(system3, 1), mode(system3, 0)
    terms = canonicalize([((p1, p1), (z,), 0.5)])
    assert list(terms) == [((p1, p1), (z,))]
    assert term_type(((p1, p1), (z,))) == (2, 1)


def test_canonicalize_rejects_foreign_mode(system3):
    bad = ModeIndex("phi", (7,))
    with pytest.raises(AlgebraError, match=r"phi\[7\]"):
        canonicalize([((bad,), (), 1.0)], system=system3)


def test_canonicalize_iteration_order_is_sorted(system3):
    z, p1 = mode(system3, 0), mode(system3, 1)
    terms = canonicalize([((p1,), (), 1.0), ((z,), (), 1.0)])
    assert list(terms) == sorted(terms)


@pytest.mark.parametrize("labels", ["ids", "modes"])
def test_sorted_map_orders_as_sorting_the_items(system3, labels):
    # sorting by signature alone gives the order of sorting the (signature,
    # coefficient) items, over prefix signatures and over NaN and signed-zero
    # coefficients; a NaN is kept and the prune is unchanged
    label = (lambda i: i) if labels == "ids" else (lambda i: system3.modes[i])
    sigs = [((0,), ()), ((0, 1), ()), ((), (0,)), ((), (0, 0)), ((0,), (0,)),
            ((0, 1), (2,)), ((0,), (0, 1)), ((), ()), ((2, 2), (1,)), ((1,), ())]
    sigs = [(tuple(map(label, c)), tuple(map(label, a))) for c, a in sigs]
    nan = float("nan")
    coeffs = [complex(nan, 0.0), 0.0j, complex(-0.0, -0.0), complex(0.0, -0.0),
              complex(PRUNE_THRESHOLD, 0.0), complex(0.0, 2 * PRUNE_THRESHOLD),
              1.0 + 0j, complex(0.5, nan), -2.0 + 1j, complex(-0.0, 3.0)]
    rng = np.random.default_rng(20261019)
    for _ in range(20):
        terms = {sigs[i]: coeffs[j] for i, j in zip(rng.permutation(len(sigs)),
                                                    rng.permutation(len(coeffs)))}
        want = {s: c for s, c in sorted(terms.items()) if not abs(c) <= PRUNE_THRESHOLD}
        got = algebra._sorted_map(terms)
        assert _bits(got.items()) == _bits(want.items())
        assert sum(map(math.isnan, map(abs, got.values()))) == 2    # both NaNs kept


def _after_a_range_error(f, *args):
    """f(*args) right after math.exp(1000) has left errno at ERANGE."""
    try:
        math.exp(1000)
    except OverflowError:
        pass
    return f(*args)


def test_every_prune_keeps_a_nan_after_a_range_error(system3):
    # CPython's complex abs of a NaN returns it without clearing errno, so
    # a stale ERANGE made it raise OverflowError in place of a kept NaN
    z, p = system3.modes[1:]
    nan = complex(math.nan, 1.0)
    # the NaN comes first in both the stored and the sorted order
    terms = {((), (p,)): nan, ((p,), (z,)): 2.0 + 0j, ((z,), ()): 1e-15 + 0j}
    s = OperatorSeries._ordered(system3, [terms])
    kept = [((), (p,)), ((p,), (z,))]
    assert list(_after_a_range_error(algebra._sorted_map, terms)) == kept
    assert list(_after_a_range_error(s.truncated, 0).orders[0]) == kept
    assert list(_after_a_range_error(s.scaled, 0.5).orders[0]) == kept
    for c, zero in ((nan, False), (1e-15 + 0j, True)):
        lone = OperatorSeries._ordered(system3, [{((z,), ()): c}])
        assert _after_a_range_error(lone.is_zero) is zero
    # a finite coefficient whose abs overflows still raises as abs does
    with pytest.raises(OverflowError, match="absolute value too large"):
        _after_a_range_error(algebra._sorted_map, {((z,), ()): complex(1.7e308, 1.7e308)})


def test_every_maximum_lets_a_nan_win(system3):
    # `max` keeps whichever of a NaN and a number it compares first, and a
    # NaN's complex abs raises after a range error, as in the prunes above
    z, p = system3.modes[1:]
    nan = complex(math.nan, 1.0)
    terms = {((), (p,)): 2.0 + 0j, ((p,), ()): 2.0 + 0j, ((p,), (z,)): nan}
    assert list(terms) == sorted(terms)     # in signature order, the NaN last
    s = OperatorSeries._ordered(system3, [terms])
    for f in (s.max_abs, s.hermiticity_defect):
        assert math.isnan(f())
        assert math.isnan(_after_a_range_error(f))
    # a conjugate pair of infinities differs by inf - inf
    infinite = OperatorSeries._ordered(system3, [{((), (p,)): complex(math.inf, 0.0),
                                                  ((p,), ()): complex(math.inf, -0.0)}])
    assert math.isnan(infinite.hermiticity_defect())
    assert infinite.max_abs() == math.inf
    # a finite coefficient whose abs overflows still raises as abs does
    big = OperatorSeries._ordered(system3, [{((z,), ()): complex(1.7e308, 1.7e308)}])
    for f in (big.max_abs, big.hermiticity_defect):
        with pytest.raises(OverflowError, match="absolute value too large"):
            _after_a_range_error(f)
    # a NaN before such a coefficient: is_zero reads the NaN, as max_abs
    # does, and stops there
    first = OperatorSeries._ordered(system3, [{((), (p,)): nan,
                                               ((z,), ()): complex(1.7e308, 1.7e308)}])
    assert list(first.orders[0]) == sorted(first.orders[0])
    assert _after_a_range_error(first.is_zero) is False
    assert math.isnan(_after_a_range_error(first.max_abs))


# ---------------------------------------------------------------------------
# normal-ordered products


def test_a_adagger_same_mode(system3):
    z = mode(system3, 0)
    p = single(system3, (), (z,))
    q = single(system3, (z,), ())
    result = normal_order_product(p, q)
    assert result.orders[0] == {
        ((), ()): pytest.approx(1.0),
        ((z,), (z,)): pytest.approx(1.0),
    }


def test_distinct_modes_commute(system3):
    z, p1 = mode(system3, 0), mode(system3, 1)
    result = normal_order_product(single(system3, (), (p1,)), single(system3, (z,), ()))
    assert result.orders[0] == {((z,), (p1,)): pytest.approx(1.0)}


def test_double_contraction_vs_matrix_oracle(system3):
    # a0 a0 * a+0 a+0 = 2 + 4 a+0 a0 + a+0 a+0 a0 a0, checked against the
    # matrix product in a single-mode Fock space truncated at 10 quanta.
    z = mode(system3, 0)
    p = single(system3, (), (z, z))
    q = single(system3, (z, z), ())
    result = normal_order_product(p, q)
    assert result.orders[0] == {
        ((), ()): pytest.approx(2.0),
        ((z,), (z,)): pytest.approx(4.0),
        ((z, z), (z, z)): pytest.approx(1.0),
    }
    cutoff = 10
    a = np.diag(np.sqrt(np.arange(1, cutoff + 1)), 1)
    ad = a.T
    lhs = (a @ a) @ (ad @ ad)
    rhs = sum(
        c.real * np.linalg.matrix_power(ad, len(sig[0]))
        @ np.linalg.matrix_power(a, len(sig[1]))
        for sig, c in result.orders[0].items()
    )
    # states pushed past the cutoff differ; compare the low block only
    assert np.allclose(lhs[:6, :6], rhs[:6, :6], atol=1e-10)


def test_product_grading_truncates(system3):
    z = mode(system3, 0)
    p = OperatorSeries.from_terms(system3, [((), (z,), 1.0)], order=1, max_order=1)
    q = OperatorSeries.from_terms(system3, [((z,), (), 1.0)], order=1, max_order=1)
    result = normal_order_product(p, q)
    # order 2 exceeds max_order 1: everything truncated away
    assert result.is_zero()


def test_scaled_and_truncated_prune_and_keep_the_order(system3):
    # both keep the stored signature order instead of sorting again, and
    # still drop a coefficient that falls to the prune threshold
    m, z, p = system3.modes
    raw = [((m,), (p,), 1.0), ((z,), (), 5 * PRUNE_THRESHOLD),
           ((), (z, m), 0.5j), ((p, p), (z,), -2.0), ((), (), 0.25)]
    s = OperatorSeries.from_terms(system3, raw, order=1, max_order=1)
    assert len(s.orders[1]) == 5
    small = ((z,), ())

    half = s.scaled(0.1)
    assert list(half.orders[1]) == [sig for sig in s.orders[1] if sig != small]
    assert list(half.orders[1].values()) == [0.1 * c for sig, c in s.orders[1].items()
                                            if sig != small]
    assert list(s.scaled(1.0).orders[1].items()) == list(s.orders[1].items())
    backwards = s.truncated(1)
    backwards.orders[1] = dict(reversed(s.orders[1].items()))
    assert list(backwards.scaled(-1.0).orders[1]) == list(backwards.orders[1])

    wider = s.truncated(3)
    assert wider.max_order == 3 and wider.orders[2:] == [{}, {}]
    assert list(wider.orders[1].items()) == list(s.orders[1].items())
    assert wider.orders[1] is not s.orders[1]
    assert s.truncated(0).orders == [{}]
    with pytest.raises(AlgebraError, match="max_order"):
        s.truncated(-1)


def test_product_rejects_mismatched_systems(system3, system5):
    p = single(system3, (), (mode(system3, 0),))
    q = single(system5, (mode(system5, 0),), ())
    with pytest.raises(AlgebraError, match="different mode systems"):
        normal_order_product(p, q)


# ---------------------------------------------------------------------------
# commutators


def test_number_operator_raises_by_one(system3):
    z = mode(system3, 0)
    n = single(system3, (z,), (z,))
    adag = single(system3, (z,), ())
    result = commutator(n, adag)
    assert result.orders[0] == {((z,), ()): pytest.approx(1.0)}


def test_ccr(system3):
    z = mode(system3, 0)
    result = commutator(single(system3, (), (z,)), single(system3, (z,), ()))
    assert result.orders[0] == {((), ()): pytest.approx(1.0)}


def test_hopping_commutator_vs_matrix_oracle(system3):
    # [a+1 a0, a+0 a1] = a+1 a1 - a+0 a0, checked in a 2-mode cutoff-4 space
    z, p1 = mode(system3, 0), mode(system3, 1)
    p = single(system3, (p1,), (z,))
    q = single(system3, (z,), (p1,))
    result = commutator(p, q)
    assert result.orders[0] == {
        ((p1,), (p1,)): pytest.approx(1.0),
        ((z,), (z,)): pytest.approx(-1.0),
    }
    from latticedress.numerics import FockBasis, matrix_of_terms

    basis = FockBasis(system3, 4, 4)
    mp = matrix_of_terms(p.orders[0], basis).toarray()
    mq = matrix_of_terms(q.orders[0], basis).toarray()
    mr = matrix_of_terms(result.orders[0], basis).toarray()
    idx = basis.block_indices(2)
    lhs = (mp @ mq - mq @ mp)[np.ix_(idx, idx)]
    assert np.allclose(lhs, mr[np.ix_(idx, idx)], atol=1e-10)


# ---------------------------------------------------------------------------
# dagger


def test_dagger_definition(system3):
    z, p1 = mode(system3, 0), mode(system3, 1)
    # use two distinct modes of a 3-mode lattice plus k=-1
    m1 = mode(system3, -1)
    p = single(system3, (p1, m1), (z,), coeff=1j)
    d = dagger(p)
    sig = ((z,), tuple(sorted((p1, m1))))
    assert d.orders[0] == {sig: pytest.approx(-1j)}
    assert term_type(sig) == (1, 2)


def test_dagger_involution_and_antihomomorphism(system3):
    z, p1 = mode(system3, 0), mode(system3, 1)
    p = single(system3, (p1,), (z, z), coeff=0.3 + 0.7j)
    q = single(system3, (z, z), (p1,), coeff=-1.1 + 0.2j)
    dd = dagger(dagger(p))
    assert dd.orders[0] == p.orders[0]
    lhs = dagger(normal_order_product(p, q))
    rhs = normal_order_product(dagger(q), dagger(p))
    diff = lhs - rhs
    assert diff.max_abs() < 1e-12


def test_h0_is_self_adjoint(system3):
    from latticedress.models import free_hamiltonian

    h0 = free_hamiltonian(system3, 0)
    assert (h0 - dagger(h0)).max_abs() == 0.0


def test_dagger_of_pure_creation(system3):
    z, p1, m1 = mode(system3, 0), mode(system3, 1), mode(system3, -1)
    p = single(system3, (z, p1, m1), ())
    d = dagger(p)
    (sig,) = d.orders[0]
    assert term_type(sig) == (0, 3)


# ---------------------------------------------------------------------------
# classification


def test_bad_type_predicate():
    bad = [(2, 0), (3, 0), (2, 1), (3, 1), (0, 2), (1, 2), (1, 0), (0, 1)]
    good = [(0, 0), (1, 1), (2, 2), (3, 2), (2, 3)]
    assert all(is_bad_type(*t) for t in bad)
    assert not any(is_bad_type(*t) for t in good)


def test_trilinear_interaction_is_all_bad(system5):
    from latticedress.models import build_model

    model = build_model("phi3", lattice=system5.lattice)
    types = {term_type(s) for o in model.interaction.orders for s in o}
    assert types == {(2, 1), (1, 2)}
    assert all(is_bad_type(*t) for t in types)


def test_quartic_good_and_h0_good(system3):
    z, p1 = mode(system3, 0), mode(system3, 1)
    quartic = single(system3, (z, p1), (z, p1))
    assert {term_type(s) for s in quartic.orders[0]} == {(2, 2)}
    assert not is_bad_type(2, 2)
    from latticedress.models import free_hamiltonian

    assert {term_type(s) for s in free_hamiltonian(system3, 0).orders[0]} == {(1, 1)}


# ---------------------------------------------------------------------------
# serialization


def test_series_rows_schema(system3):
    z, p1 = mode(system3, 0), mode(system3, 1)
    p = OperatorSeries.from_terms(
        system3, [((p1,), (z,), 1.5 + 0.5j)], order=1, max_order=2
    )
    text, finite = report_text({"K": TermTable.of_series(p)})
    assert finite
    assert json.loads(text)["K"] == [{
        "order": 1,
        "type": [1, 1],
        "creators": [{"species": "phi", "k": [1]}],
        "annihilators": [{"species": "phi", "k": [0]}],
        "re": 1.5,
        "im": 0.5,
    }]


# ---------------------------------------------------------------------------
# the Wick kernel and product_terms against a reference that shares no code


def _reference_contractions(c1, a1, c2, a2, min_contractions):
    """The general Wick kernel: every contraction count per common mode,
    weight C(m,k)*C(n,k)*k!, in the order of iter_product over the modes."""
    ca1, cc2 = Counter(a1), Counter(c2)
    common = [m for m in ca1 if m in cc2]
    per_mode = [range(min(ca1[m], cc2[m]) + 1) for m in common]
    for ks in iter_product(*per_mode):
        if sum(ks) < min_contractions:
            continue
        weight = 1.0
        rem_c2 = list(c2)
        rem_a1 = list(a1)
        for m, k in zip(common, ks):
            weight *= math.comb(ca1[m], k) * math.comb(cc2[m], k) * math.factorial(k)
            for _ in range(k):
                rem_c2.remove(m)
                rem_a1.remove(m)
        creators = tuple(sorted(c1 + tuple(rem_c2)))
        annihil = tuple(sorted(rem_a1 + list(a2)))
        yield (creators, annihil), weight


def _all_pairs_product(p, q, min_contractions, scale=1.0, out=None):
    """The obvious loop: every pair of terms through the reference kernel."""
    acc = {} if out is None else out
    for (c1, a1), x in p.items():
        for (c2, a2), y in q.items():
            xy = scale * x * y
            for sig, w in _reference_contractions(c1, a1, c2, a2, min_contractions):
                acc[sig] = acc.get(sig, 0j) + xy * w
    return acc


def _bits(items):
    """(key, type, exact bits of each float part): tells -0.0 from 0.0."""
    out = []
    for key, value in items:
        parts = (value.real, value.imag) if isinstance(value, complex) else (value,)
        out.append((key, type(value), *(float(v).hex() for v in parts)))
    return out


def _random_term_map(modes, rng, n_terms=12, max_degree=3):
    """Random canonical terms over a few modes, so that modes repeat; about
    a third of the coefficients are real, so zero imaginary parts occur."""
    def pick():
        return [modes[i] for i in rng.integers(0, len(modes), rng.integers(0, max_degree + 1))]

    def coeff():
        return complex(rng.normal(), rng.normal() if rng.random() < 0.7 else 0.0)

    return canonicalize((pick(), pick(), coeff()) for _ in range(n_terms))


def _random_maps(n_pairs=20):
    system = ModeSystem(LatticeSpec(dim=1, sites_per_dim=3),
                        [FieldSpecies("N", 1.0), FieldSpecies("phi", 0.5)])
    modes = system.modes[:4]      # both species, few modes: repeats are common
    rng = np.random.default_rng(20261018)
    return [(_random_term_map(modes, rng), _random_term_map(modes, rng))
            for _ in range(n_pairs)]


# coefficient parts that the Gaussian maps never draw: NaN, +-inf, -0.0, the
# smallest subnormal and a float near the top of the range
SPECIAL_PARTS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]


def _special_maps(n_pairs=6):
    """The keys of a few random maps, each coefficient's parts drawn from
    `SPECIAL_PARTS` and two plain values."""
    values = SPECIAL_PARTS + [1.0, -2.5]
    rng = np.random.default_rng(20261022)

    def coeff():
        return complex(*(values[i] for i in rng.integers(0, len(values), 2)))

    return [tuple({sig: coeff() for sig in terms} for terms in pair)
            for pair in _random_maps(n_pairs)]


def _repeated_mode_cases(n_cases=30):
    """(c1, a1, c2, a2) over three modes, each held 0 to 3 times by every
    side, so that modes repeated 2 or 3 times meet on both sides."""
    modes = ModeSystem(LatticeSpec(dim=1, sites_per_dim=3),
                       [FieldSpecies("phi", 1.0)]).modes
    rng = np.random.default_rng(20261020)

    def side():
        return tuple(m for m in modes for _ in range(rng.integers(0, 4)))

    return [(side(), side(), side(), side()) for _ in range(n_cases)]


@pytest.mark.parametrize("min_contractions", [0, 1, 2])
def test_contractions_match_reference_kernel(min_contractions):
    # the patterns, composed with the side merges of `product_terms`, are
    # the general kernel's signatures and weights, bit for bit
    single = general = repeated = 0
    cases = [(c1, a1, c2, a2) for p, q in _random_maps() for c1, a1 in p for c2, a2 in q]
    with algebra._pattern_scope():
        for c1, a1, c2, a2 in cases + _repeated_mode_cases():
            got = [((algebra._merge(c1, rc2), algebra._merge(ra1, a2)), w)
                   for rc2, ra1, w in _contractions(a1, c2, Counter(a1), Counter(c2),
                                                    min_contractions)]
            want = _reference_contractions(c1, a1, c2, a2, min_contractions)
            assert _bits(got) == _bits(want)
            common = set(a1) & set(c2)
            if len(common) == 1 and 1 in (a1.count(*common), c2.count(*common)):
                single += 1
            elif common:
                general += 1
            repeated += any(a1.count(m) >= 2 and c2.count(m) >= 2 for m in common)
    # the one-contraction pairs, the general ones and modes repeated on both
    # sides all occur
    assert single > 0 and general > 0 and repeated > 0


def _iter_product_contractions(a1, c2, ca1, cc2, min_contractions):
    """The reference loop for `_contractions`: every contraction count per
    common mode, in the order of iter_product over the common modes, the
    weight a running product from 1.0 over the modes with k > 0, and each
    count's run cut out of the progressively cut tuples."""
    common = [m for m in ca1 if m in cc2]
    out = []
    per_mode = [range(min(ca1[m], cc2[m]) + 1) for m in common]
    for ks in iter_product(*per_mode):
        if sum(ks) < min_contractions:
            continue
        weight = 1.0
        rc2, ra1 = c2, a1
        for mode, k in zip(common, ks):
            if k:
                weight *= (math.comb(ca1[mode], k) * math.comb(cc2[mode], k)
                           * math.factorial(k))
                i = rc2.index(mode)
                rc2 = rc2[:i] + rc2[i + k:]
                i = ra1.index(mode)
                ra1 = ra1[:i] + ra1[i + k:]
        out.append((rc2, ra1, weight))
    return out


def _pattern_bits(patterns):
    """Each pattern with its weight's type and bytes: 1 == 1.0, but not here."""
    return [(rc2, ra1, type(w), struct.pack("d", w)) for rc2, ra1, w in patterns]


@pytest.mark.parametrize("min_contractions", [0, 1, 2])
def test_contractions_match_the_iter_product_loop(min_contractions):
    # every sorted a1 and c2 of length <= 4 over <= 3 modes: the same list,
    # in the same order, with the same weight bits
    sides = [s for n in range(5) for s in combinations_with_replacement(range(3), n)]
    shapes = set()
    for a1, c2 in iter_product(sides, sides):
        ca1, cc2 = ({m: side.count(m) for m in side} for side in (a1, c2))
        got = _contractions(a1, c2, ca1, cc2, min_contractions)
        assert _pattern_bits(got) == \
            _pattern_bits(_iter_product_contractions(a1, c2, ca1, cc2, min_contractions))
        shapes.add(tuple((ca1[m], cc2[m]) for m in ca1 if m in cc2))
    # (annihilator, creator) counts per shared mode: none shared, one mode
    # held once on each side, more often, and two or three modes all occur
    assert {(), ((1, 1),), ((2, 3),), ((1, 1), (1, 1)), ((1, 2), (2, 1)),
            ((1, 1), (1, 1), (1, 1))} <= shapes


@pytest.mark.parametrize("min_contractions", [0, 1, 2])
@pytest.mark.parametrize("scale", [1.0, -1.0, 0.5 - 0.25j])
def test_product_terms_matches_all_pairs_loop(min_contractions, scale):
    # a complex scale tells (scale * x) * y from scale * (x * y) by its bits
    maps = _random_maps()
    with algebra._pattern_scope():
        for p, q in maps:
            fast = product_terms(p, q, min_contractions, scale=scale)
            assert _bits(fast.items()) == \
                _bits(_all_pairs_product(p, q, min_contractions, scale).items())
        # the same keys with new coefficients replay the plans made above,
        # into an `out` that already holds some of the product's signatures
        # and some others, in its own order
        rng = np.random.default_rng(20261021)
        for p, q in maps:
            p2, q2 = ({sig: complex(*rng.normal(size=2)) for sig in terms}
                      for terms in (p, q))
            first = list(_all_pairs_product(p, q, min_contractions))
            out = {sig: complex(i, -i) for i, sig in enumerate(first[::-3] + list(p))}
            fast = product_terms(p2, q2, min_contractions, dict(out), scale)
            assert _bits(fast.items()) == \
                _bits(_all_pairs_product(p2, q2, min_contractions, scale, dict(out)).items())
        # special coefficients, into no `out` and into one that holds special
        # values too
        n = len(SPECIAL_PARTS)
        for p, q in _special_maps():
            first = list(_all_pairs_product(p, q, min_contractions))
            out = {sig: complex(SPECIAL_PARTS[i % n], SPECIAL_PARTS[(i + 1) % n])
                   for i, sig in enumerate(first[::-3] + list(p))}
            for given in (None, out):
                fast = product_terms(p, q, min_contractions,
                                     None if given is None else dict(given), scale)
                assert _bits(fast.items()) == _bits(_all_pairs_product(
                    p, q, min_contractions, scale,
                    None if given is None else dict(given)).items())


@pytest.mark.parametrize("min_contractions", [0, 1])
def test_product_terms_with_an_empty_side_returns_out_as_given(min_contractions):
    # no pair to visit: the very `out` comes back unchanged, or a new {}
    p, q = _random_maps(1)[0]
    for left, right in [({}, q), (p, {}), ({}, {})]:
        out = {sig: complex(i, -i) for i, sig in enumerate(p)}
        before = _bits(out.items())
        assert product_terms(left, right, min_contractions, out, -1.0) is out
        assert _bits(out.items()) == before
        assert product_terms(left, right, min_contractions) == {}


def test_graded_calls_product_terms_for_every_order_pair(monkeypatch, system3):
    # an empty order is still a call, so that traced call counts hold
    calls = []
    products = algebra.product_terms

    def counted(p, q, *args, **kwargs):
        calls.append((len(p), len(q)))
        return products(p, q, *args, **kwargs)

    monkeypatch.setattr(algebra, "product_terms", counted)
    z = mode(system3, 0)
    a = OperatorSeries(system3, [{}, {((z,), ()): 1.0}], 1)
    b = OperatorSeries(system3, [{((), (z,)): 1.0}], 1)
    commutator(a, b)
    # orders (0,0), (0,1), (1,0), two products each; b's order 1 is empty
    assert calls == [(0, 1), (1, 0), (0, 0), (0, 0), (1, 1), (1, 1)]
    calls.clear()
    normal_order_product(a, b)
    assert calls == [(0, 1), (0, 0), (1, 1)]


def _id_maps(n_pairs=10):
    """Random maps over mode ids, as inside `dress` (a mode's position in its
    system's sorted modes), drawn over two systems: the same ids stand for
    different modes."""
    rng = np.random.default_rng(20261019)
    maps = []
    for system in (ModeSystem(LatticeSpec(dim=1, sites_per_dim=3),
                              [FieldSpecies("N", 1.0), FieldSpecies("phi", 0.5)]),
                   ModeSystem(LatticeSpec(dim=1, sites_per_dim=5),
                              [FieldSpecies("phi", 1.0)])):
        ids = {m: i for i, m in enumerate(system.modes)}

        def relabel(terms):
            return {(tuple(map(ids.get, c)), tuple(map(ids.get, a))): v
                    for (c, a), v in terms.items()}

        maps += [(relabel(_random_term_map(system.modes[:4], rng)),
                  relabel(_random_term_map(system.modes[:4], rng)))
                 for _ in range(n_pairs)]
    return maps


@pytest.mark.parametrize("maps", [_random_maps, _id_maps], ids=["modes", "ids"])
def test_pattern_table_serves_every_contraction_count(maps):
    # one table, filled by min_contractions 0, then 1, then 2 inside one
    # scope: each count reads its own patterns, as a commutator after a
    # product must; the merged sides are shared by every count and, over ids,
    # by both systems
    with algebra._pattern_scope():
        for min_contractions in (0, 1, 2):
            for p, q in maps():
                fast = product_terms(p, q, min_contractions)
                assert _bits(fast.items()) == \
                    _bits(_all_pairs_product(p, q, min_contractions).items())
        assert algebra._patterns and algebra._merged and algebra._plans
    assert algebra._patterns == algebra._merged == algebra._plans == {}


def test_bare_product_terms_leaves_no_table():
    # a call with no scope open keeps its tables only while it runs
    for p, q in _random_maps(2):
        for min_contractions in (0, 1):
            assert product_terms(p, q, min_contractions)
            assert algebra._patterns == {} and algebra._merged == {}
            assert algebra._plans == {}


@pytest.mark.parametrize("interaction, order", [("phi3", 3), ("scalar-yukawa", 2)])
def test_dress_forms_each_contraction_pattern_once(monkeypatch, interaction, order):
    # a left term's pattern table keeps what it forms for the whole `dress`
    calls = Counter()
    contractions = algebra._contractions

    def counted(a1, c2, ca1, cc2, min_contractions=0):
        calls[a1, c2, min_contractions] += 1
        return contractions(a1, c2, ca1, cc2, min_contractions)

    monkeypatch.setattr(algebra, "_contractions", counted)
    dress(build_model(interaction, lattice=LatticeSpec(dim=1, sites_per_dim=5),
                      max_order=order))
    assert calls and set(calls.values()) == {1}


@pytest.mark.parametrize("interaction, order, plans, products",
                         [("phi3", 3, 9, 22), ("scalar-yukawa", 2, 3, 6)])
def test_dress_builds_each_plan_once(monkeypatch, interaction, order, plans, products):
    # the BCH expansions of one `dress` multiply maps on the same keys again
    # and again: each key structure is planned once, and later replayed
    built = Counter()
    plan = algebra._plan

    def counted(p, q, min_contractions):
        built[p, q, min_contractions] += 1
        return plan(p, q, min_contractions)

    calls = []
    product = algebra.product_terms

    def seen(p, q, *args, **kwargs):
        if p and q:
            calls.append((tuple(p), tuple(q)))
        return product(p, q, *args, **kwargs)

    monkeypatch.setattr(algebra, "_plan", counted)
    monkeypatch.setattr(algebra, "product_terms", seen)
    dress(build_model(interaction, lattice=LatticeSpec(dim=1, sites_per_dim=5),
                      max_order=order))
    assert set(built.values()) == {1}
    assert (len(built), len(calls)) == (plans, products)


@pytest.mark.parametrize("policy, ends", [
    ("shirokov", nullcontext()), ("weidlich", pytest.raises(ZeroDenominatorError)),
], ids=["returns", "raises"])
def test_dress_empties_the_pattern_table(monkeypatch, policy, ends):
    # weidlich fails at order 2 on elastic zero denominators, after the
    # order-2 expansion has filled the table
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=5),
                        policy=policy)
    seen = []
    solve_generator = dressing.solve_generator

    def solve(*args, **kwargs):
        seen.append((len(algebra._patterns), len(algebra._merged), len(algebra._plans)))
        return solve_generator(*args, **kwargs)

    monkeypatch.setattr(dressing, "solve_generator", solve)
    with ends:
        dress(model)
    assert min(seen[-1]) > 0
    assert algebra._patterns == algebra._merged == algebra._plans == {}


@pytest.mark.parametrize("operation", [commutator, normal_order_product],
                         ids=["commutator", "normal_order_product"])
def test_bare_operation_empties_the_pattern_table(monkeypatch, operation):
    # outside `dress` each commutator or product keeps the patterns it fills
    # only while it runs; inside an open scope the table is left to it
    system = ModeSystem(LatticeSpec(dim=1, sites_per_dim=3), [FieldSpecies("phi", 1.0)])
    rng = np.random.default_rng(7)
    p, q = (OperatorSeries(system, [_random_term_map(system.modes, rng)], 0)
            for _ in range(2))
    filled = []
    products = algebra.product_terms

    def seen(*args, **kwargs):
        out = products(*args, **kwargs)
        filled.append((len(algebra._patterns), len(algebra._merged), len(algebra._plans)))
        return out

    monkeypatch.setattr(algebra, "product_terms", seen)
    operation(p, q)
    assert filled and min(filled[-1]) > 0
    assert algebra._patterns == algebra._merged == algebra._plans == {}
    with algebra._pattern_scope():
        operation(p, q)
        assert algebra._patterns and algebra._merged and algebra._plans
    assert algebra._patterns == algebra._merged == algebra._plans == {}
