"""Lattice geometry, field species and momentum-mode bookkeeping.

Everything downstream (the operator algebra, the Fock-space numerics) works
with `ModeIndex` labels drawn from a `ModeSystem`, which couples a periodic
momentum lattice to a set of bosonic species with relativistic dispersion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple


class ModeIndex(NamedTuple):
    """A single (species, momentum) slot.

    `k` is the integer wave-vector, one entry per spatial dimension.
    Tuples sort by (species, k), which fixes the canonical operator order.
    """

    species: str
    k: tuple[int, ...]

    def __repr__(self) -> str:
        ks = ",".join(str(c) for c in self.k)
        return f"{self.species}[{ks}]"


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic momentum lattice: `sites_per_dim` points per dimension.

    `sites_per_dim` must be odd so the mode set is closed under k -> -k.
    Momenta are p(k) = 2*pi*k / physical_length componentwise with
    k in {-(S-1)/2, ..., (S-1)/2}.
    """

    dim: int = 1
    sites_per_dim: int = 5
    physical_length: float = 2.0 * math.pi

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"lattice dim must be >= 1, got {self.dim}")
        if self.sites_per_dim < 1 or self.sites_per_dim % 2 == 0:
            raise ValueError(
                f"sites_per_dim must be an odd positive integer, got {self.sites_per_dim}"
            )
        if not self.physical_length > 0:
            raise ValueError(
                f"physical_length must be positive, got {self.physical_length}"
            )

    @property
    def half_range(self) -> int:
        return (self.sites_per_dim - 1) // 2

    def k_values(self) -> range:
        return range(-self.half_range, self.half_range + 1)

    def k_vectors(self) -> list[tuple[int, ...]]:
        return [tuple(k) for k in itertools.product(self.k_values(), repeat=self.dim)]

    def wrap_k(self, k: Iterable[int]) -> tuple[int, ...]:
        """Reduce an integer wave-vector to the first Brillouin zone
        (minimum-image convention, period = sites_per_dim)."""
        s = self.sites_per_dim
        out = []
        for c in k:
            c = c % s
            if c > self.half_range:
                c -= s
            out.append(c)
        return tuple(out)

    def momentum(self, k: tuple[int, ...]) -> tuple[float, ...]:
        f = 2.0 * math.pi / self.physical_length
        return tuple(f * c for c in k)

    @property
    def volume(self) -> float:
        return self.physical_length**self.dim

    @property
    def spacing(self) -> float:
        return self.physical_length / self.sites_per_dim

    def sites(self) -> list[tuple[int, ...]]:
        return [tuple(s) for s in
                itertools.product(range(self.sites_per_dim), repeat=self.dim)]

    def min_image_distance(self, x: tuple[int, ...], y: tuple[int, ...]) -> float:
        """Physical distance between two lattice sites under periodic wrap."""
        s = self.sites_per_dim
        d2 = 0.0
        for a, b in zip(x, y):
            d = abs(a - b) % s
            d = min(d, s - d)
            d2 += (d * self.spacing) ** 2
        return math.sqrt(d2)


@dataclass(frozen=True)
class FieldSpecies:
    """A bosonic field with relativistic dispersion E(k) = sqrt(|p|^2 + m^2)."""

    name: str
    mass: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("species name must be non-empty")
        if not self.mass > 0:
            raise ValueError(f"species {self.name!r}: mass must be positive, got {self.mass}")


class ModeSystem:
    """A lattice together with its field species: the universe of valid modes."""

    def __init__(self, lattice: LatticeSpec, species: Iterable[FieldSpecies]):
        self.lattice = lattice
        self.species = tuple(species)
        if not self.species:
            raise ValueError("at least one field species is required")
        names = [s.name for s in self.species]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate species names in {names}")
        self._by_name = {s.name: s for s in self.species}
        self.modes: tuple[ModeIndex, ...] = tuple(sorted(
            ModeIndex(s.name, k)
            for s in self.species
            for k in lattice.k_vectors()
        ))
        self._mode_set = frozenset(self.modes)
        self._energy = {m: self._dispersion(m) for m in self.modes}

    def _dispersion(self, mode: ModeIndex) -> float:
        m = self._by_name[mode.species].mass
        p2 = sum(c * c for c in self.lattice.momentum(mode.k))
        return math.sqrt(p2 + m * m)

    def contains(self, mode: ModeIndex) -> bool:
        return mode in self._mode_set

    def energy(self, mode: ModeIndex) -> float:
        return self._energy[mode]

    def momentum(self, mode: ModeIndex) -> tuple[float, ...]:
        return self.lattice.momentum(mode.k)

    def species_named(self, name: str) -> FieldSpecies:
        if name not in self._by_name:
            raise KeyError(f"unknown species {name!r}; have {sorted(self._by_name)}")
        return self._by_name[name]

    def mode(self, species: str, k) -> ModeIndex:
        m = ModeIndex(species, tuple(k))
        if not self.contains(m):
            raise KeyError(f"mode {m} is not in the lattice")
        return m

    def same_as(self, other: "ModeSystem") -> bool:
        return self.lattice == other.lattice and self.species == other.species

    def __repr__(self) -> str:
        return (f"ModeSystem(dim={self.lattice.dim}, "
                f"sites={self.lattice.sites_per_dim}, "
                f"species={[s.name for s in self.species]})")
