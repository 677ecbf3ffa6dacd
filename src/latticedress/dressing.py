"""Order-by-order construction of the dressing transformation.

K = exp(R) H exp(-R) is expanded as a power series in the coupling with
R = sum_n lambda^n R_n anti-Hermitian.  At each order the unwanted part of
K_n is cancelled by choosing R_n with coefficients r = c / DeltaE, where
DeltaE is the energy denominator of the signature.  The `shirokov` policy
removes the bad terms only; `weidlich` removes everything except the free
(1,1) part and the c-number, which fails on elastic zero denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

from .algebra import (
    OperatorSeries,
    TermMap,
    _pattern_scope,
    bad_terms,
    commutator,
    energy_denominator,
    term_type,
)
from .models import ModelSpec

RESONANCE_TOL = 1e-8          # |DeltaE| below this is an exact lattice resonance
NEAR_RESONANCE_WARN = 1e-3    # |DeltaE| below this is reported as a diagnostic


class ZeroDenominatorError(ValueError):
    """A generator term would require dividing by a (near-)zero energy gap."""

    def __init__(self, order: int, policy: str, signatures):
        self.order = order
        self.policy = policy
        self.signatures = list(signatures)
        sigs = ", ".join(f"{s}(|dE|={abs(d):.3e})" for s, d in self.signatures[:8])
        more = "" if len(self.signatures) <= 8 else f" (+{len(self.signatures) - 8} more)"
        super().__init__(
            f"zero energy denominator at order {order} under policy {policy!r}: "
            f"{sigs}{more}"
        )


@dataclass
class DressingResult:
    model: ModelSpec
    generators: list[OperatorSeries]        # R_1 .. R_N, each purely order-n
    generator: OperatorSeries               # the summed R series
    K: OperatorSeries                       # transformed Hamiltonian to order N
    removed: list[TermMap]                  # per-order term maps eliminated
    min_denominator: float
    diagnostics: list = field(default_factory=list)   # near-resonant signatures

    @property
    def max_order(self) -> int:
        return self.model.max_order

    def vacuum_energy_coefficient(self, order: int = 2) -> complex:
        """The c-number ((), ()) coefficient of K at the given order."""
        return self.K.orders[order].get(((), ()), 0j)


def bch_conjugate(r: OperatorSeries, h: OperatorSeries, max_order: int) -> OperatorSeries:
    """exp(r) h exp(-r) = sum_j ad_r^j(h) / j!, truncated at max_order.

    r must have no order-0 content, so each nested commutator raises the
    minimum coupling order by at least one and the sum terminates.
    """
    if r.orders[0]:
        raise ValueError("generator series must have no order-0 content")
    r = r.truncated(max_order)
    acc = h.truncated(max_order)
    nested = acc
    for j in range(1, max_order + 1):
        nested = commutator(r, nested).scaled(1.0 / j)
        if nested.is_zero():
            break
        acc = acc + nested
    return acc


def _target_terms(kn: TermMap, policy: str) -> TermMap:
    """The part of an order's term map the policy wants eliminated."""
    if policy == "shirokov":
        return bad_terms(kn)
    # weidlich: keep only the free-form (1,1) terms and the c-number
    return {sig: c for sig, c in kn.items() if term_type(sig) not in ((0, 0), (1, 1))}


def solve_generator(bad: TermMap, model: ModelSpec,
                    order: int = 1) -> tuple[TermMap, float, list]:
    """Generator coefficients r = c / DeltaE so that [R, H0] = -bad.

    Returns (terms, min |DeltaE|, near-resonance diagnostics).  Raises
    ZeroDenominatorError listing every signature with |DeltaE| below the
    tolerance: for shirokov that signals a kinematically allowed decay, for
    weidlich typically an elastic on-shell configuration.
    """
    energy = model.system.energy
    resonant = []
    near = []
    terms: TermMap = {}
    min_den = math.inf
    for sig, c in bad.items():
        de = energy_denominator(sig, energy)
        if abs(de) < RESONANCE_TOL:
            resonant.append((sig, de))
            continue
        min_den = min(min_den, abs(de))
        if abs(de) < NEAR_RESONANCE_WARN:
            near.append({"order": order, "signature": sig, "denominator": de})
        terms[sig] = c / de
    if resonant:
        raise ZeroDenominatorError(order, model.policy, resonant)
    return terms, min_den, near


class _Relabelled(dict):
    """Mode tuple -> the tuple with every mode m replaced by label[m], each
    made once on first use, so that the signatures relabelled through it
    share their tuples."""

    def __init__(self, label):
        super().__init__()
        self.label = label

    def __missing__(self, ms: tuple) -> tuple:
        out = self[ms] = tuple(map(self.label.__getitem__, ms))
        return out


def _relabel(sig, tuples: _Relabelled) -> tuple:
    """The signature with both its mode tuples relabelled."""
    return tuples[sig[0]], tuples[sig[1]]


def _relabel_terms(terms: TermMap, tuples: _Relabelled) -> TermMap:
    return {(tuples[c], tuples[a]): v for (c, a), v in terms.items()}


def _relabel_series(p: OperatorSeries, tuples: _Relabelled) -> OperatorSeries:
    return OperatorSeries._ordered(p.system, [_relabel_terms(o, tuples) for o in p.orders])


def dress(model: ModelSpec) -> DressingResult:
    """Run the order-by-order elimination up to model.max_order; a
    non-finite coefficient of R or K above order 0 raises ArithmeticError.

    The loop runs on mode ids (positions in the sorted `system.modes`), which
    sort as their modes do, so every map keeps its order; the result, and a
    ZeroDenominatorError, name the modes again.
    """
    n_max = model.max_order
    if n_max < 1:
        raise ValueError(f"dressing order must be >= 1, got {n_max}")
    system = model.system
    modes = system.modes
    h = _relabel_series(model.hamiltonian(),
                        _Relabelled({m: i for i, m in enumerate(modes)}))

    r = OperatorSeries.zero(system, n_max)
    generators: list[OperatorSeries] = []
    removed: list[TermMap] = []
    min_den = math.inf
    diagnostics: list = []

    with _pattern_scope():    # the algebra tables live for one dress
        for n in range(1, n_max + 1):
            k = bch_conjugate(r, h, n)
            target = _target_terms(k.orders[n], model.policy)
            try:
                rn_terms, den, near = solve_generator(target, model, order=n)
            except ZeroDenominatorError as exc:
                named = _Relabelled(modes)
                raise ZeroDenominatorError(
                    exc.order, exc.policy,
                    [(_relabel(sig, named), de) for sig, de in exc.signatures]) from None
            min_den = min(min_den, den)
            diagnostics.extend(near)
            removed.append(target)
            rn = OperatorSeries.zero(system, n_max)
            rn.orders[n] = rn_terms
            generators.append(rn)
            r = r + rn

    # R_N is purely order N, so up to order N it enters exp(R) H exp(-R) only
    # through [R_N, H_0], which lives on R_N's signatures, those of the
    # order-N removed terms, and cancels them.  So K is the last expansion
    # without the removed terms: at order N they are popped uncancelled, and
    # below N popping drops the rounding residue their cancellation leaves,
    # above the absolute prune at large couplings
    for n, target in enumerate(removed, start=1):
        for sig in target:
            k.orders[n].pop(sig, None)
    # order 0 is H0 as given; a non-finite coefficient above it is an
    # overflow of the expansion, which the pruning keeps.  cmath is imported
    # here, off the import path of the command line.
    import cmath
    for n in range(1, n_max + 1):
        if not all(map(cmath.isfinite, chain(k.orders[n].values(), r.orders[n].values()))):
            raise ArithmeticError(f"dressing order {n} holds a non-finite coefficient")
    named = _Relabelled(modes)     # one relabelling of each mode tuple
    for d in diagnostics:
        d["signature"] = _relabel(d["signature"], named)
    return DressingResult(
        model=model,
        generators=[_relabel_series(rn, named) for rn in generators],
        generator=_relabel_series(r, named),
        K=_relabel_series(k, named),
        removed=[_relabel_terms(target, named) for target in removed],
        min_denominator=min_den,
        diagnostics=diagnostics,
    )


def extract_energy_correction(result: DressingResult, species: str, k) -> float:
    """The order-2 diagonal (1,1) coefficient of K for mode (species, k):
    the dressed correction to the one-particle energy."""
    if result.max_order < 2:
        raise ValueError(
            f"energy correction lives at order 2; dressing only ran to order "
            f"{result.max_order}"
        )
    mode = result.model.system.mode(species, k)
    c = result.K.orders[2].get(((mode,), (mode,)), 0j)
    if abs(c.imag) > 1e-10:
        raise ValueError(
            f"non-Hermitian energy correction at mode {mode}: imag part {c.imag:.3e}"
        )
    return c.real
