"""One workload process: import the program, load the job configs, run jobs.

Started by run.py in a fresh interpreter with BLAS pinned to one thread and
`src/` on PYTHONPATH:

    python3 perfbench/worker.py <spec.json>

The spec names the mode (`setup`, `run` or `trace`), the workload, the job
configs, the measuring window and where to write results.  Set-up ends when
the program is imported and every config has passed `load_config`; the
monotonic time of that moment is written to the results so the parent can
measure set-up from the moment it spawned this process.  A calibration (see
`calibrate`) follows set-up and every job, outside their timed intervals.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import report_problems

MIN_JOBS = 11           # the tail percentile needs ten samples beyond it
CALIBRATION_REPS = 6    # timed repeats of the speed kernel per calibration


def calibrate() -> float:
    """Median seconds of a fixed pure-Python kernel (integer arithmetic, then
    tuple keys into a dict of complex numbers, as the symbolic engine does):
    the machine's current speed, against which run.py normalises the wall
    times around it.  The cyclic collector is off meanwhile, so the
    program's heap does not enter the kernel's time."""
    times = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(CALIBRATION_REPS):
            t0 = time.perf_counter()
            s = 0
            for i in range(50_000):
                s += i * i % 7
            d: dict = {}
            for i in range(5_000):
                key = (i % 97, i >> 3)
                d[key] = d.get(key, 0j) + complex(i, 1)
            times.append(time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_job(cli, cfg, command: str, out_dir: Path, tracer=None):
    """One closed-loop job through the public entry point; returns
    (wall seconds, exit code, report bytes, exception or None).  An exception
    out of `cli.run` ends the job with exit code 1, as `python -m
    latticedress` would, and no report is read."""
    index = tracer.open("cli.run") if tracer else None
    t0 = time.monotonic()
    try:
        code, raised = cli.run(cfg, command, out_dir), None
    except Exception as exc:   # noqa: BLE001 - a job failure, not a benchmark error
        code, raised = 1, exc
    finally:
        seconds = time.monotonic() - t0
        if tracer:
            tracer.close(index)
    report = b"" if raised else (out_dir / "report.json").read_bytes()
    return seconds, code, report, raised


def job_problems(w, code: int, report: bytes, raised) -> list[str]:
    if raised is not None:
        return [f"raised {type(raised).__name__}: {raised}"]
    return report_problems(w, code, report.decode("utf-8"))


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    from latticedress import cli, config

    tracer = None
    if spec["mode"] == "trace":
        import layers
        import spans
        tracer = spans.Tracer()
        layers.install(tracer)
    cfgs = [config.load_config(p) for p in spec["configs"]]
    ready = time.monotonic()
    if tracer:
        tracer.unwrap_all()
    results = {"ready": ready, "calibration_s": calibrate()}
    if spec["mode"] != "setup":
        from workloads import WORKLOADS
        w = WORKLOADS[spec["workload"]]
        out_root = Path(spec["out_dir"])
        deadline = ready + spec["seconds"]
        jobs = []
        calibration = results["calibration_s"]
        while len(jobs) < MIN_JOBS or time.monotonic() < deadline:
            k = len(jobs) % len(cfgs) if not tracer else (len(jobs) // 2) % len(cfgs)
            traced = bool(tracer) and len(jobs) % 2 == 1
            if traced:
                tracer.job = len(jobs)
                layers.install(tracer)
            try:
                seconds, code, report, raised = run_job(
                    cli, cfgs[k], w.command, out_root / f"job{k}",
                    tracer if traced else None)
            finally:
                if traced:
                    tracer.unwrap_all()
            before, calibration = calibration, calibrate()
            jobs.append({
                "config": k,
                "traced": traced,
                "seconds": seconds,
                "calibration_s": (before + calibration) / 2,
                "exit": code,
                "sha256": hashlib.sha256(report).hexdigest(),
                "problems": job_problems(w, code, report, raised),
            })
        results["jobs"] = jobs
        results["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        results["environment"] = environment()
        if tracer:
            tracer.dump(spec["spans_file"])
            results["layers"] = layers.summarize(
                tracer.spans, tracer.counters,
                untraced_s=[j["seconds"] for j in jobs if not j["traced"]],
                traced_s=[j["seconds"] for j in jobs if j["traced"]])
    Path(spec["results"]).write_text(json.dumps(results), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
