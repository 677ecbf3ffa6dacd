"""Model definitions: free Hamiltonians and the built-in interaction library.

Built-in interactions (all Hermitian, momentum-conserving modulo the
Brillouin zone, with the relativistic 1/sqrt(8*E1*E2*E3*volume) kernel
normalization):

  phi3          single scalar, V = sum c(k1,k2) a+_{k1} a+_{k2} a_{k1+k2} + h.c.
  phi3-full     single scalar, the full normal-ordered cubic vertex: in
                addition to the phi3 terms it carries the pure-creation
                (3,0) part and its conjugate, so the bare vacuum is not an
                eigenstate of H.
  scalar-yukawa two scalars N (heavy) and phi (light),
                V = g sum N+_{k1} N_{k2} (phi_{k1-k2} + phi+_{k2-k1}).

Momentum addition in the kernels is periodic; umklapp terms are kept and
flagged in the model summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .algebra import OperatorSeries, canonicalize, energy_denominator
from .modes import FieldSpecies, LatticeSpec, ModeIndex, ModeSystem

BUILTIN_INTERACTIONS = ("phi3", "phi3-full", "scalar-yukawa", "free")

HERMITICITY_TOL = 1e-12


class ModelError(ValueError):
    """Invalid model construction."""


@dataclass
class ModelSpec:
    """A concrete model: H = H0 + coupling * V, plus the dressing settings."""

    system: ModeSystem
    interaction: OperatorSeries          # order-1 content only
    coupling: float = 0.1               # default numeric value of the coupling
    max_order: int = 2
    policy: str = "shirokov"            # or "weidlich"
    name: str = "custom"
    vertex_strength: float = 1.0        # the kernel prefactor g
    umklapp_signatures: list = field(default_factory=list)

    def __post_init__(self):
        if self.max_order < 1:
            raise ModelError(f"max_order must be >= 1, got {self.max_order}")
        if self.policy not in ("shirokov", "weidlich"):
            raise ModelError(f"unknown policy {self.policy!r}")
        for n, o in enumerate(self.interaction.orders):
            if n != 1 and o:
                raise ModelError("interaction must carry only order-1 content")
        defect = self.interaction.hermiticity_defect()
        if defect > HERMITICITY_TOL:
            raise ModelError(
                f"interaction is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL})"
            )

    def free_hamiltonian(self, max_order: int | None = None) -> OperatorSeries:
        if max_order is None:
            max_order = self.max_order
        return free_hamiltonian(self.system, max_order)

    def hamiltonian(self, max_order: int | None = None) -> OperatorSeries:
        """H = H0 (order 0) + V (order 1) as a graded series."""
        if max_order is None:
            max_order = self.max_order
        return self.free_hamiltonian(max_order) + self.interaction.truncated(max_order)

    def decay_denominators(self) -> dict:
        """Energy denominators for every interaction signature.

        The no-decay mass condition is not assumed: this scan verifies it
        numerically before dressing is attempted.
        """
        out = {}
        for o in self.interaction.orders:
            for sig in o:
                out[sig] = energy_denominator(sig, self.system.energy)
        return out

    def min_decay_denominator(self) -> float:
        dens = self.decay_denominators()
        return min((abs(d) for d in dens.values()), default=math.inf)


def free_hamiltonian(system: ModeSystem, max_order: int) -> OperatorSeries:
    raw = [((m,), (m,), system.energy(m)) for m in system.modes]
    return OperatorSeries.from_terms(system, raw, order=0, max_order=max_order)


def _kernel(system: ModeSystem, g: float, *modes: ModeIndex) -> float:
    prod = 1.0
    for m in modes:
        prod *= 2.0 * system.energy(m)
    return g / math.sqrt(prod * system.lattice.volume)


def _is_umklapp(lattice: LatticeSpec, *ks) -> bool:
    total = tuple(sum(c) for c in zip(*ks))
    return total != lattice.wrap_k(total)


def build_phi3(system: ModeSystem, g: float) -> tuple[OperatorSeries, list]:
    """V = sum over ordered (k1,k2) of c(k1,k2) a+_{k1} a+_{k2} a_{k1+k2} + h.c."""
    (sp,) = [s.name for s in system.species]
    lat = system.lattice
    raw = []
    umklapp = []
    for k1 in lat.k_vectors():
        for k2 in lat.k_vectors():
            k3 = lat.wrap_k(tuple(a + b for a, b in zip(k1, k2)))
            m1, m2, m3 = (system.mode(sp, k) for k in (k1, k2, k3))
            c = _kernel(system, g, m1, m2, m3)
            raw.append(((m1, m2), (m3,), c))
            raw.append(((m3,), (m1, m2), c))
            if _is_umklapp(lat, k1, k2, tuple(-x for x in k3)):
                umklapp.append(((m1, m2), (m3,)))
    v = OperatorSeries.from_terms(system, [], order=1, max_order=1)
    v.orders[1] = canonicalize(raw, system)
    return v, umklapp


def build_phi3_full(system: ModeSystem, g: float) -> tuple[OperatorSeries, list]:
    """The normal-ordered cubic vertex with all creator/annihilator splittings.

    For every ordered triple with k1+k2+k3 = 0 (mod zone) each factor enters
    either as a_{k_i} or a+_{-k_i}; the (3,0)/(0,3) parts are what push the
    bare vacuum away from being an eigenstate.
    """
    (sp,) = [s.name for s in system.species]
    lat = system.lattice
    raw = []
    umklapp = []
    for k1 in lat.k_vectors():
        for k2 in lat.k_vectors():
            k3 = lat.wrap_k(tuple(-(a + b) for a, b in zip(k1, k2)))
            triple = (k1, k2, k3)
            modes = [system.mode(sp, k) for k in triple]
            c = _kernel(system, g, *modes) / 6.0
            if _is_umklapp(lat, *triple):
                umklapp.append(tuple(triple))
            for subset in range(8):
                creators = []
                annihilators = []
                for i, k in enumerate(triple):
                    if subset & (1 << i):
                        creators.append(system.mode(sp, lat.wrap_k(tuple(-x for x in k))))
                    else:
                        annihilators.append(system.mode(sp, k))
                raw.append((tuple(creators), tuple(annihilators), c))
    v = OperatorSeries.from_terms(system, [], order=1, max_order=1)
    v.orders[1] = canonicalize(raw, system)
    return v, umklapp


def build_scalar_yukawa(system: ModeSystem, g: float,
                        heavy: str = "N", light: str = "phi") -> tuple[OperatorSeries, list]:
    """V = g sum over (k1,k2) of N+_{k1} N_{k2} (phi_{k1-k2} + phi+_{k2-k1})."""
    lat = system.lattice
    raw = []
    umklapp = []
    for k1 in lat.k_vectors():
        for k2 in lat.k_vectors():
            q = lat.wrap_k(tuple(a - b for a, b in zip(k1, k2)))
            n1 = system.mode(heavy, k1)
            n2 = system.mode(heavy, k2)
            ph = system.mode(light, q)
            c = _kernel(system, g, n1, n2, ph)
            # N+_{k1} N_{k2} phi_{k1-k2}: type (1,2)
            raw.append(((n1,), tuple(sorted((n2, ph))), c))
            # N+_{k1} N_{k2} phi+_{k2-k1}: type (2,1)
            qc = lat.wrap_k(tuple(-x for x in q))
            phc = system.mode(light, qc)
            raw.append((tuple(sorted((n1, phc))), (n2,), c))
            if _is_umklapp(lat, k1, tuple(-x for x in k2), tuple(-x for x in q)):
                umklapp.append(((n1,), (n2, ph)))
    v = OperatorSeries.from_terms(system, [], order=1, max_order=1)
    v.orders[1] = canonicalize(raw, system)
    return v, umklapp


def build_model(
    interaction: str,
    lattice: LatticeSpec | None = None,
    species: list[FieldSpecies] | None = None,
    g: float = 1.0,
    coupling: float = 0.1,
    max_order: int = 2,
    policy: str = "shirokov",
) -> ModelSpec:
    """Assemble a ModelSpec from a built-in interaction name."""
    if lattice is None:
        lattice = LatticeSpec()
    if interaction in ("phi3", "phi3-full", "free"):
        if species is None:
            species = [FieldSpecies("phi", 1.0)]
        if len(species) != 1:
            raise ModelError(f"{interaction} needs exactly one species, got "
                             f"{[s.name for s in species]}")
    elif interaction == "scalar-yukawa":
        if species is None:
            species = [FieldSpecies("N", 1.0), FieldSpecies("phi", 0.5)]
        if len(species) != 2:
            raise ModelError("scalar-yukawa needs exactly two species (heavy, light), "
                             f"got {[s.name for s in species]}")
    else:
        raise ModelError(
            f"unknown interaction {interaction!r}; built-ins: {BUILTIN_INTERACTIONS}"
        )

    system = ModeSystem(lattice, species)
    if interaction == "phi3":
        v, umk = build_phi3(system, g)
    elif interaction == "phi3-full":
        v, umk = build_phi3_full(system, g)
    elif interaction == "scalar-yukawa":
        heavy, light = species[0].name, species[1].name
        v, umk = build_scalar_yukawa(system, g, heavy=heavy, light=light)
    else:  # free
        v = OperatorSeries.zero(system, 1)
        umk = []

    return ModelSpec(
        system=system,
        interaction=v,
        coupling=coupling,
        max_order=max_order,
        policy=policy,
        name=interaction,
        vertex_strength=g,
        umklapp_signatures=umk,
    )


def momentum_defect(sig, lattice: LatticeSpec) -> tuple[int, ...]:
    """Integer wave-vector balance of a signature, wrapped to the first zone.

    Zero means the monomial conserves lattice (crystal) momentum.
    """
    creators, annihilators = sig
    total = [0] * lattice.dim
    for m in creators:
        for i, c in enumerate(m.k):
            total[i] += c
    for m in annihilators:
        for i, c in enumerate(m.k):
            total[i] -= c
    return lattice.wrap_k(tuple(total))
