"""latticedress benchmark: one workload per fresh process, closed loop, one client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dress-yukawa --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics: set-up time, median and tail
job time, and peak memory.  Times are wall seconds normalised to a reference
machine speed (see `normalised`); the raw wall times are in the details.  `--trace 1` is the separate traced run: it
alternates untraced and traced jobs on the same inputs, checks that both
write the same report bytes, and reports the per-layer metrics.  The last
line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
run's details (environment, sample count, tail percentile, fail ratio,
report digests).  Working files go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4          # extra set-up-only processes; the run itself is a fifth
REFERENCE_S = 0.007       # worker.calibrate() on the baseline machine, fast phase
CHILD_TIMEOUT = 170.0     # seconds beyond the window before a child is killed
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to the program failing a job)."""


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the (n-10)-th smallest of n samples."""
    n = len(values)
    if n < 11:
        raise BenchError(f"{n} samples: the tail needs at least 11")
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def normalised(seconds: float, calibration_s: float) -> float:
    """Wall seconds rescaled to the reference speed: what the interval would
    take on a machine where the calibration kernel takes REFERENCE_S.  The
    calibration runs in the same process just before and after the interval,
    so a change of machine speed (other tenants, clock steps) cancels out."""
    return seconds * REFERENCE_S / calibration_s


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(spec: dict, work: Path, env: dict, timeout: float) -> tuple[float, dict]:
    """Run one worker process to completion; return (spawn time, results)."""
    tag = f"{spec['mode']}-{spec['index']}"
    spec_path = work / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log = work / f"worker-{tag}.log"
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                stdout=fh, stderr=subprocess.STDOUT, env=env)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker {tag} timed out; see {log}") from None
    if code != 0:
        text = log.read_text(encoding="utf-8", errors="replace")
        raise BenchError(f"worker {tag} exited {code}:\n{text[-3000:]}")
    return t0, json.loads(Path(spec["results"]).read_text(encoding="utf-8"))


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return (result line, details)."""
    w = WORKLOADS[name]
    work = root / ".bench_build" / "perfbench" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    configs = []
    for k, doc in enumerate(generate(w, seed)):
        path = work / "configs" / f"job{k}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        configs.append(str(path))
    env = child_env(root)
    base = {"workload": name, "configs": configs, "seconds": seconds,
            "out_dir": str(work / "out")}

    def spec(mode, index):
        return {**base, "mode": mode, "index": index,
                "results": str(work / f"results-{mode}-{index}.json"),
                "spans_file": str(work / "spans.json")}

    setups = []         # (wall seconds, calibration seconds)
    if not trace:
        # the first probe fills the bytecode cache and is not timed
        for i in range(SETUP_PROBES + 1):
            t0, res = spawn(spec("setup", i), work, env, CHILD_TIMEOUT)
            if i:
                setups.append((res["ready"] - t0, res["calibration_s"]))
    t0, res = spawn(spec("trace" if trace else "run", 0), work, env,
                    seconds + CHILD_TIMEOUT)
    jobs = res["jobs"]

    digests: dict[int, set] = {}
    for j in jobs:
        digests.setdefault(j["config"], set()).add(j["sha256"])
    # same input, different bytes (traced or not): the report is not stable
    unstable = {k for k, seen in digests.items() if len(seen) > 1}
    problems = [{"config": k, "problems": [f"{len(digests[k])} distinct reports"]}
                for k in sorted(unstable)]
    problems += [{"config": j["config"], "problems": j["problems"][:5]}
                 for j in jobs if j["problems"]]
    failed = sum(1 for j in jobs if j["problems"] or j["config"] in unstable)

    untraced = [j["seconds"] for j in jobs if not j["traced"]]
    details = {
        "workload": name, "seed": seed, "trace": int(trace),
        "environment": res["environment"],
        "loop": "closed, one client",
        "samples": len(untraced),
        "fail_ratio": failed / len(jobs),
        "report_sha256": {str(k): sorted(v)[0] for k, v in sorted(digests.items())},
        "problems": problems,
    }
    if trace:
        metrics = res["layers"]
        details["spans_file"] = str(work / "spans.json")
    else:
        setups.append((res["ready"] - t0, res["calibration_s"]))
        times = [normalised(j["seconds"], j["calibration_s"])
                 for j in jobs if not j["traced"]]
        tail_s, pct = tail(times)
        details["tail_percentile"] = pct
        details["setup_samples"] = len(setups)
        details["wall"] = {
            "setup_s": statistics.median(s for s, _ in setups),
            "job_s": statistics.median(untraced),
            "job_s.tail": tail(untraced)[0],
        }
        details["speed"] = REFERENCE_S / statistics.median(
            j["calibration_s"] for j in jobs)
        metrics = {
            "setup_s": {"value": statistics.median(normalised(*s) for s in setups),
                        "unit": "s"},
            "job_s": {"value": statistics.median(times), "unit": "s"},
            "job_s.tail": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    details["inputs_sha256"] = hashlib.sha256(
        "".join(Path(c).read_text(encoding="utf-8") for c in configs).encode()).hexdigest()
    line = {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
            "metrics": metrics}
    return line, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "latticedress" / "cli.py").is_file():
        print(f"perfbench: no latticedress source under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    try:
        for name in names:
            line, details = run_workload(root, name, args.seed, args.seconds,
                                         bool(args.trace))
            print(json.dumps(details, sort_keys=True))
            lines[name] = line
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if len(names) == 1:
        final = lines[names[0]]
    else:   # one line for every workload, metric names prefixed
        final = {
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{n}.{m}": v for n, r in lines.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
