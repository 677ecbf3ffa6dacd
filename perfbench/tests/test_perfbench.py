"""Tests of the benchmark itself: span arithmetic, the input generator, the
correctness checks and one smoke job per workload.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, generate, k_table_problems, report_problems  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_subtract_direct_children_only():
    # root [0,10] > a [1,4] > b [2,3];  root > c [5,9]
    spans_ = [["root", 0, 10, -1, 0], ["a", 1, 4, 0, 0], ["b", 2, 3, 1, 0],
              ["c", 5, 9, 0, 0]]
    assert spans.self_times(spans_) == [3, 2, 1, 4]


def test_tracer_nests_spans_and_unwraps():
    class Lib:
        @staticmethod
        def inner(x):
            clock.now += 1
            return x + 1

        @staticmethod
        def outer(x):
            clock.now += 2
            return Lib.inner(x) * 2

    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    original = Lib.outer
    tracer.wrap(Lib, "inner", "inner", after=lambda s, a, k, r: tracer.count("n", r))
    tracer.wrap(Lib, "outer", "outer")
    tracer.job = 7
    assert Lib.outer(1) == 4
    tracer.unwrap_all()
    assert Lib.outer is original
    assert Lib.outer(1) == 4 and len(tracer.spans) == 3    # nothing new recorded
    outer, inner, hook = (next(s for s in tracer.spans if s[0] == n)
                          for n in ("outer", "inner", "perfbench.hook"))
    assert outer[1:] == [0.0, 3.0, -1, 7]
    assert inner[1:] == [2.0, 3.0, tracer.spans.index(outer), 7]
    assert hook[3] == tracer.spans.index(outer)
    assert tracer.counters["n"] == 2
    assert spans.self_times(tracer.spans)[tracer.spans.index(outer)] == 2.0


def test_pairs_sharing_mode_matches_brute_force():
    rng = random.Random(3)
    modes = [("phi", (k,)) for k in range(-2, 3)]

    def term_map(n):
        return {(tuple(sorted(rng.sample(modes, rng.randint(0, 2)))),
                 tuple(sorted(rng.sample(modes, rng.randint(0, 2))))): 1.0
                for _ in range(n)}

    for _ in range(20):
        p, q = term_map(rng.randint(0, 12)), term_map(rng.randint(0, 12))
        brute = sum(1 for (_, a1) in p for (c2, _) in q if set(a1) & set(c2))
        assert layers.pairs_sharing_mode(p, q) == brute


def test_final_bch_is_the_last_one_inside_each_dress():
    spans_ = [["dressing.dress", 0, 10, -1, 0],
              ["dressing.bch_conjugate", 1, 2, 0, 0],
              ["dressing.bch_conjugate", 3, 4, 0, 0],
              ["dressing.bch_conjugate", 5, 9, 0, 0]]
    out = layers.summarize(spans_, {}, untraced_s=[1.0], traced_s=[1.0])
    assert out["dressing.bch_conjugate.final.s"]["value"] == 4
    assert out["dressing.bch_conjugate.s"]["value"] == 6
    assert out["dressing.bch_conjugate.calls"]["value"] == 3
    assert out["dressing.dress.self_s"]["value"] == 4


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct = run.tail(list(range(20, 0, -1)))
    assert (value, pct) == (10, 50.0)
    assert sum(1 for v in range(1, 21) if v > value) == 10
    with pytest.raises(run.BenchError):
        run.tail(list(range(10)))


def test_normalised_time_cancels_machine_speed():
    assert run.normalised(1.5, run.REFERENCE_S) == pytest.approx(1.5)
    # the same job on a machine running at half speed: twice the wall time,
    # twice the calibration time, the same normalised time
    assert run.normalised(3.0, 2 * run.REFERENCE_S) == pytest.approx(1.5)
    assert worker.calibrate() > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_schema_valid(name):
    from latticedress.config import parse_config

    w = WORKLOADS[name]
    first, again, other = generate(w, 5), generate(w, 5), generate(w, 6)
    assert first == again and first != other
    for doc in first:
        cfg = parse_config(yaml.safe_dump(doc))
        assert w.strength[0] <= cfg.coupling_strength <= w.strength[1]
        assert w.length[0] <= cfg.physical_length <= w.length[1]
        assert (cfg.sites_per_dim, cfg.order) == (w.sites, w.order)


def test_k_table_check_catches_each_defect():
    def row(c, a, re, im=0.0):
        ops = lambda ks: [{"species": "phi", "k": [k]} for k in ks]  # noqa: E731
        return {"order": 2, "creators": ops(c), "annihilators": ops(a),
                "re": re, "im": im}

    good = [row([1], [1], 0.5), row([1, -1], [2, -2], 0.1, 0.2),
            row([2, -2], [1, -1], 0.1, -0.2)]
    assert k_table_problems(good, sites=5) == []
    assert k_table_problems(good[:2], sites=5)                     # not Hermitian
    assert k_table_problems([row([1, 1], [], 1.0), row([], [1, 1], 1.0)], 5)
    assert k_table_problems([row([1], [2], 1.0), row([2], [1], 1.0)], 5)
    assert k_table_problems([row([2, 2], [-1, 0], 1.0),            # umklapp is fine
                             row([-1, 0], [2, 2], 1.0)], 5) == []


def _smoke(name, tmp_path, traced):
    from latticedress import cli, config

    w = WORKLOADS[name]
    path = tmp_path / "job.yaml"
    path.write_text(yaml.safe_dump(generate(w, 11)[0]), encoding="utf-8")
    cfg = config.load_config(str(path))
    tracer = None
    if traced:
        tracer = spans.Tracer()
        layers.install(tracer)
    try:
        seconds, code, report, raised = worker.run_job(cli, cfg, w.command,
                                                       tmp_path / "out", tracer)
    finally:
        if tracer:
            tracer.unwrap_all()
    assert raised is None and report_problems(w, code, report.decode()) == []
    return seconds, hashlib.sha256(report).hexdigest(), tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_job_traced_matches_untraced(name, tmp_path):
    plain_s, plain_digest, _ = _smoke(name, tmp_path, traced=False)
    traced_s, traced_digest, tracer = _smoke(name, tmp_path, traced=True)
    assert traced_digest == plain_digest
    metrics = layers.summarize(tracer.spans, tracer.counters, [plain_s], [traced_s])
    assert sorted(metrics) == sorted(r["name"] for r in layers.metric_table())
    assert metrics["dressing.dress.s"]["value"] > 0
    assert metrics["algebra.product_terms.pairs_sharing_mode"]["value"] > 0
    numerics = {k: v["value"] for k, v in metrics.items() if k.startswith("numerics.")}
    if WORKLOADS[name].command == "dress":
        assert not any(numerics.values())
    else:
        assert numerics["numerics.expm.s"] > 0 and numerics["numerics.basis.dim"] > 0


def test_job_that_raises_counts_as_failed(tmp_path, monkeypatch):
    from latticedress import cli, config

    def broken(*args, **kwargs):
        raise ValueError("NaN in report")

    w = WORKLOADS["scan-phi3"]
    path = tmp_path / "job.yaml"
    path.write_text(yaml.safe_dump(generate(w, 11)[0]), encoding="utf-8")
    cfg = config.load_config(str(path))
    monkeypatch.setattr(cli, "emit_report", broken)
    tracer = spans.Tracer()
    layers.install(tracer)                                # wraps `broken`
    try:
        seconds, code, report, raised = worker.run_job(cli, cfg, w.command,
                                                       tmp_path / "out", tracer)
    finally:
        tracer.unwrap_all()
    assert (code, report) == (1, b"") and isinstance(raised, ValueError)
    assert worker.job_problems(w, code, report, raised) == ["raised ValueError: NaN in report"]
    assert not (tmp_path / "out" / "report.json").exists()
    assert all(s[2] is not None for s in tracer.spans)     # every span closed
    assert {"cli.run", "cli.emit_report"} <= {s[0] for s in tracer.spans}


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["per_layer"] == layers.metric_table()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-phi3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
