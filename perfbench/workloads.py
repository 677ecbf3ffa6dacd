"""Workload table, seeded input generation and the checks on every report.

Each workload fixes the lattice size, truncation order, cutoffs and coupling
grid, so every job does the same amount of work; the seed draws only the
vertex strength `coupling_strength` and the lattice `physical_length` from a
perturbative, resonance-free range.  The ranges were checked by sweeping
their corners and interior: every draw dresses without a zero denominator
and passes every verdict.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

POOL = 8          # distinct inputs per run; the closed loop cycles through them
K_TOL = 1e-9      # relative tolerance of the K table's Hermiticity check


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    interaction: str
    species: tuple            # ((name, mass), ...)
    sites: int
    order: int
    cutoff: int               # per-mode and total cutoff
    checks: dict
    strength: tuple           # coupling_strength range
    length: tuple             # physical_length range
    verdicts: tuple           # every verdict the report must hold, all passing


WORKLOADS = {w.name: w for w in (
    Workload(
        name="dress-yukawa",
        command="dress",
        why="symbolic engine only (dress, Yukawa S=7 N=2): contraction loop and "
            "BCH, no Fock-space work; g 0.8-1.2 and L 6.3-7.7 keep every energy "
            "denominator >= 0.19",
        interaction="scalar-yukawa",
        species=(("N", 1.0), ("phi", 0.5)),
        sites=7, order=2, cutoff=4,
        checks={},
        strength=(0.8, 1.2),
        length=(6.3, 7.7),
        verdicts=("no_bad_terms",),
    ),
    Workload(
        name="verify-phi3",
        command="verify",
        why="oracle with many terms on a small basis (verify, phi3 S=5 N=3, dim "
            "126): assembly per coupling plus order-3 dressing; g 0.8-1.2 and "
            "L 4.5-5.5 keep both slopes within 0.02 of 4",
        interaction="phi3",
        species=(("phi", 1.0),),
        sites=5, order=3, cutoff=4,
        checks={},
        strength=(0.8, 1.2),
        length=(4.5, 5.5),
        verdicts=("no_bad_terms", "momentum_commutation",
                  "oracle_equivalence_slope", "residual_slopes"),
    ),
    Workload(
        name="scan-phi3",
        command="scan",
        why="oracle with few terms on a large dense basis (spacelike scan, phi3 "
            "S=5 N=2, dim 252): dense field build and expm; g 0.8-1.2 and L "
            "4.5-5.5 keep the slope within 0.02 of 2",
        interaction="phi3",
        species=(("phi", 1.0),),
        sites=5, order=2, cutoff=5,
        checks={"spacelike": {"enabled": True, "lambdas": [0.05, 0.1, 0.2]}},
        strength=(0.8, 1.2),
        length=(4.5, 5.5),
        verdicts=("no_bad_terms", "spacelike_nonlocality_slope"),
    ),
)}


def config_doc(w: Workload, strength: float, length: float) -> dict:
    """The YAML document of one job (a mapping; every key is schema-checked)."""
    return {
        "model": {
            "lattice": {"dim": 1, "sites_per_dim": w.sites,
                        "physical_length": length},
            "species": [{"name": n, "mass": m} for n, m in w.species],
            "interaction": {"name": w.interaction, "coupling_strength": strength},
            "order": w.order,
        },
        "numerics": {"per_mode_cutoff": w.cutoff, "total_cutoff": w.cutoff},
        "checks": w.checks,
        "output": {"formats": ["json"]},
    }


def generate(w: Workload, seed: int) -> list[dict]:
    """`POOL` job configs drawn from the workload's ranges; same seed, same list."""
    rng = random.Random(f"{w.name}:{seed}")
    return [
        config_doc(w, round(rng.uniform(*w.strength), 4),
                   round(rng.uniform(*w.length), 4))
        for _ in range(POOL)
    ]


# ---------------------------------------------------------------------------
# checks on a job's output


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


def _bad_type(m: int, n: int) -> bool:
    return (m >= 2 and n <= 1) or (n >= 2 and m <= 1) or (m, n) in ((1, 0), (0, 1))


def _ops(ops) -> tuple:
    return tuple((o["species"], tuple(o["k"])) for o in ops)


def k_table_problems(rows, sites: int) -> list[str]:
    """Independent checks of the K term table: no bad term survives, K is
    Hermitian term by term, and every term conserves crystal momentum."""
    coeff = {(r["order"], _ops(r["creators"]), _ops(r["annihilators"])):
             complex(r["re"], r["im"]) for r in rows}
    problems = []
    for (order, creators, annihilators), c in coeff.items():
        if _bad_type(len(creators), len(annihilators)):
            problems.append(f"bad term {creators}{annihilators} left in K")
        partner = coeff.get((order, annihilators, creators), 0j).conjugate()
        if abs(c - partner) > K_TOL * max(1.0, abs(c)):
            problems.append(f"K not Hermitian at {creators}{annihilators}")
        ops = creators + annihilators
        for d in range(len(ops[0][1]) if ops else 0):
            balance = sum(k[d] for _, k in creators) - sum(k[d] for _, k in annihilators)
            if balance % sites:
                problems.append(f"K term {creators}{annihilators} breaks momentum")
    return problems


def report_problems(w: Workload, exit_code: int, text: str) -> list[str]:
    """Every reason a job's output is wrong; empty when it is correct."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return problems + [f"report unreadable: {exc}"]
    if report.get("failures"):
        problems.append(f"failures: {report['failures']}")
    got = {v["check"]: v for v in report.get("verdicts", [])}
    if sorted(got) != sorted(w.verdicts):
        problems.append(f"verdicts {sorted(got)}, expected {sorted(w.verdicts)}")
    for v in got.values():
        if not v["pass"]:
            problems.append(f"verdict {v['check']} failed: got {v['got']}")
        if v["got"] is None:
            problems.append(f"verdict {v['check']} has a non-finite value")
    dressing = report.get("dressing", {})
    den = dressing.get("min_denominator")
    if den is None or not math.isfinite(den) or den <= 0:
        problems.append(f"min_denominator {den}")
    if dressing.get("bad_terms_left"):
        problems.append("bad terms left in K")
    problems += k_table_problems(dressing.get("K", []), w.sites)
    return problems
