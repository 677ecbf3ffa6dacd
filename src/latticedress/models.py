"""Model definitions: free Hamiltonians and the built-in interaction library.

Every built-in interaction is one row of the `VERTICES` table, and one
builder turns a row into V: a sum over every ordered pair (k1, k2) of lattice
wave-vectors, with the relativistic kernel c = g / sqrt(8 E1 E2 E3 volume)
for three legs.  A row (a `Vertex`) gives

  species     the default species, one per slot; a config may rename them
              or change their masses, but not change their number;
  legs        (slot, a, b) per leg: the leg carries the species in `slot`
              and the incoming wave-vector p = a*k1 + b*k2; the legs' p sum
              to zero, and the kernel takes their energies in this order;
  splittings  (created legs, annihilated legs) per term, in emission order;
              a created leg is the mode -p, an annihilated leg the mode p;
  conjugate   whether each splitting is followed by its Hermitian conjugate;
  divisor     what the kernel is divided by.

The rows:

  phi3          single scalar, V = sum c(k1,k2) a+_{k1} a+_{k2} a_{k1+k2} + h.c.
  phi3-full     single scalar, the full normal-ordered cubic vertex: all eight
                splittings of the three legs, so it also carries the
                pure-creation (3,0) part and its conjugate, and the bare
                vacuum is not an eigenstate of H.
  scalar-yukawa two scalars N (heavy, slot 0) and phi (light, slot 1),
                V = g sum N+_{k1} N_{k2} (phi_{k1-k2} + phi+_{k2-k1}).
  free          no legs: V = 0.

All are Hermitian and conserve momentum modulo the Brillouin zone.  Momentum
addition is periodic: a pair (k1, k2) where some leg's p lies outside the
first zone gives umklapp terms, which are kept and counted in the model
summary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .algebra import OperatorSeries
from .modes import FieldSpecies, LatticeSpec, ModeIndex, ModeSystem

POLICIES = ("shirokov", "weidlich")
DEFAULT_COUPLING_STRENGTH = 1.0     # the kernel prefactor g

HERMITICITY_TOL = 1e-12


class ModelError(ValueError):
    """Invalid model construction."""


class Vertex(NamedTuple):
    """One row of the interaction table; the module docstring describes it."""

    species: tuple[FieldSpecies, ...]
    legs: tuple[tuple[int, int, int], ...] = ()
    splittings: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()
    conjugate: bool = False
    divisor: float = 1.0


_PHI = (FieldSpecies("phi", 1.0),)

VERTICES = {
    "phi3": Vertex(_PHI, legs=((0, -1, 0), (0, 0, -1), (0, 1, 1)),
                   splittings=(((0, 1), (2,)),), conjugate=True),
    "phi3-full": Vertex(_PHI, legs=((0, 1, 0), (0, 0, 1), (0, -1, -1)), splittings=(
        ((), (0, 1, 2)), ((0,), (1, 2)), ((1,), (0, 2)), ((0, 1), (2,)),
        ((2,), (0, 1)), ((0, 2), (1,)), ((1, 2), (0,)), ((0, 1, 2), ())), divisor=6.0),
    "scalar-yukawa": Vertex((FieldSpecies("N", 1.0), FieldSpecies("phi", 0.5)),
                            legs=((0, -1, 0), (0, 0, 1), (1, 1, -1)),
                            splittings=(((0,), (1, 2)), ((0, 2), (1,)))),
    "free": Vertex(_PHI),
}
BUILTIN_INTERACTIONS = tuple(VERTICES)
_SPECIES_COUNT = {1: "exactly one species", 2: "exactly two species (heavy, light)"}


@dataclass
class ModelSpec:
    """A concrete model: H = H0 + coupling * V, plus the dressing settings."""

    system: ModeSystem
    interaction: OperatorSeries          # order-1 content only
    max_order: int = 2
    policy: str = "shirokov"            # or "weidlich"
    name: str = "custom"
    umklapp_signatures: list = field(default_factory=list)

    def __post_init__(self):
        if self.max_order < 1:
            raise ModelError(f"max_order must be >= 1, got {self.max_order}")
        if self.policy not in POLICIES:
            raise ModelError(f"unknown policy {self.policy!r}")
        for n, o in enumerate(self.interaction.orders):
            if n != 1 and o:
                raise ModelError("interaction must carry only order-1 content")
        import cmath    # here, off the import path of the command line
        if not all(map(cmath.isfinite, itertools.chain.from_iterable(
                o.values() for o in self.interaction.orders))):
            raise ModelError("interaction has a non-finite coefficient")
        defect = self.interaction.hermiticity_defect()
        if defect > HERMITICITY_TOL:
            raise ModelError(
                f"interaction is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL})"
            )

    def hamiltonian(self) -> OperatorSeries:
        """H = H0 (order 0) + V (order 1) as a series graded up to max_order."""
        n = self.max_order
        return free_hamiltonian(self.system, n) + self.interaction.truncated(n)


def free_hamiltonian(system: ModeSystem, max_order: int) -> OperatorSeries:
    raw = [((m,), (m,), system.energy(m)) for m in system.modes]
    return OperatorSeries.from_terms(system, raw, order=0, max_order=max_order)


def _kernel(system: ModeSystem, g: float, *modes: ModeIndex) -> float:
    prod = 1.0
    for m in modes:
        prod *= 2.0 * system.energy(m)
    volume = system.lattice.volume
    if prod * volume == 0.0:
        legs = ", ".join(f"{m!r} (E = {system.energy(m)!r})" for m in modes)
        raise ZeroDivisionError(
            f"vertex kernel of the legs {legs}: the product of 2E over the legs "
            f"times the lattice volume {volume!r} is 0")
    return g / math.sqrt(prod * volume)


def _interaction(system: ModeSystem, vertex: Vertex, g: float) -> tuple[OperatorSeries, list]:
    """V for a table row, and the signature of the first splitting of every
    umklapp pair (k1, k2)."""
    lat = system.lattice
    raw, umklapp = [], []
    ks = lat.k_vectors() if vertex.legs else []     # the free row computes nothing
    for k1, k2 in itertools.product(ks, repeat=2):
        p = [tuple(a * x + b * y for x, y in zip(k1, k2)) for _, a, b in vertex.legs]
        wrapped = [lat.wrap_k(q) for q in p]
        into = [system.mode(system.species[s].name, q)
                for (s, _, _), q in zip(vertex.legs, wrapped)]
        out = [system.mode(m.species, lat.wrap_k(-x for x in m.k)) for m in into]
        c = _kernel(system, g, *into) / vertex.divisor
        terms = [(tuple(out[i] for i in created), tuple(into[i] for i in annihilated))
                 for created, annihilated in vertex.splittings]
        if p != wrapped:
            umklapp.append(terms[0])
        for creators, annihilators in terms:
            raw.append((creators, annihilators, c))
            if vertex.conjugate:
                raw.append((annihilators, creators, c))
    return OperatorSeries.from_terms(system, raw, order=1), umklapp


def build_model(
    interaction: str,
    lattice: LatticeSpec | None = None,
    species: list[FieldSpecies] | None = None,
    g: float = DEFAULT_COUPLING_STRENGTH,
    **settings,
) -> ModelSpec:
    """Assemble a ModelSpec from a built-in interaction name; `settings` are
    passed on to ModelSpec (`max_order`, `policy`)."""
    if interaction not in VERTICES:
        raise ModelError(
            f"unknown interaction {interaction!r}; built-ins: {BUILTIN_INTERACTIONS}"
        )
    vertex = VERTICES[interaction]
    if species is None:
        species = vertex.species
    if len(species) != len(vertex.species):
        raise ModelError(f"{interaction} needs {_SPECIES_COUNT[len(vertex.species)]}, "
                         f"got {[s.name for s in species]}")
    system = ModeSystem(lattice or LatticeSpec(), species)
    v, umklapp = _interaction(system, vertex, g)
    return ModelSpec(system=system, interaction=v, name=interaction,
                     umklapp_signatures=umklapp, **settings)


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
