"""Run one benchmark workload against balora's source tree and report.

    python3 benchmark/run.py --workload toy-cli --seed 1 --seconds 20 --trace 0

Run from the root of a balora checkout. BLAS is pinned to one thread
before numpy loads, here and in every child process, and the thread count
actually in effect is read back; a run without it counts as failed.
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates plain and traced cycles and reports the
per-layer metrics plus the tracing overhead. Human-readable lines come
first; the last line of standard output is the JSON result. Full results
and the spans of a traced run go to ``.bench_out/``.
"""

import os

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402  (pinning must precede the numpy import)
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import per_layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Checks, floors, install_tracing  # noqa: E402

SETUP_REPS = 3
EXIT_USAGE = 2


def blas_threads() -> int:
    """Threads of this process after a BLAS call large enough to use a pool."""
    a = np.ones((512, 512))
    float((a @ a).sum())
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def git_commit(root: Path):
    """HEAD's commit read from ``.git`` directly; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(seed: int, threads: int, pinned: bool) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "pinning": {"env": {v: os.environ.get(v) for v in PIN_VARS},
                    "threads_after_blas_call": threads, "in_effect": pinned},
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "balora" / "__init__.py").is_file():
        print(f"no balora source tree under {src}", file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, str(src))
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p)

    threads = blas_threads()
    pinned = threads == 1 and all(os.environ.get(v) == "1" for v in PIN_VARS)
    cls = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    for module in cls.modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - t0
    env_block = environment(args.seed, threads, pinned)

    checks = Checks()
    checks.check(pinned, f"BLAS pinning not in effect: {threads} threads")
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(ROOT, args.seed, workdir, checks, child_env)
        tracer = Tracer() if args.trace else None
        setup_times = run_setups(workload, checks, tracer)
        cycles = run_cycles(workload, checks, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env_block["loadavg_end"] = list(os.getloadavg())

    if args.trace:
        metrics = traced_metrics(workload, tracer, cycles)
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        metrics = end_to_end_metrics(workload, import_s, setup_times, cycles)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics named in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 1
    derived = derived_figures(workload, cycles)
    derived.update({k: v for k, v in metrics.items() if k not in units and v})
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                          for name in units}}
    report(args, env_block, result, derived, checks, out_dir, cycles)
    return 0


def run_setups(workload, checks, tracer) -> list:
    """Set up ``SETUP_REPS`` times; in a traced run the last one is traced."""
    times = []
    for rep in range(SETUP_REPS):
        traced = tracer is not None and rep == SETUP_REPS - 1
        if traced:
            tracer.run = -1
        t0 = time.perf_counter()
        with checks.operation("setup"), tracing(tracer, traced):
            workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def tracing(tracer, traced: bool):
    return install_tracing(tracer) if traced else contextlib.nullcontext()


def run_cycles(workload, checks, seconds: float, tracer) -> list:
    """Cycles until the next one would overrun ``seconds``; with a tracer,
    plain and traced cycles alternate and at least one of each runs."""
    cycles = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(cycles) % 2 == 1
        if traced:
            tracer.run = len(cycles)
        workload.times = {}
        t0 = time.perf_counter()
        with checks.operation("cycle"), tracing(tracer, traced):
            workload.cycle()
        elapsed = time.perf_counter() - t0
        cycles.append({"wall_s": elapsed, "times": workload.times, "traced": traced})
        now = time.perf_counter()
        enough = tracer is None or len(cycles) >= 2
        if enough and now - start + elapsed > seconds:
            return cycles


def step_floors(workload, floors_: dict) -> list:
    return [v for k, v in floors_.items() if k.startswith(workload.step_prefix)]


def end_to_end_metrics(workload, import_s: float, setup_times: list, cycles: list) -> dict:
    """Timings are floors: each segment's fastest time over the cycles."""
    floors_ = floors([c["times"] for c in cycles])
    steps_ms = np.asarray(step_floors(workload, floors_)) * 1e3
    return {
        "setup_s": import_s + min(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "cycle_s": float(sum(floors_.values())),
        "step_ms_p50": float(np.percentile(steps_ms, 50)) if steps_ms.size else 0.0,
        "step_ms_p90": float(np.percentile(steps_ms, 90)) if steps_ms.size else 0.0,
    }


def traced_metrics(workload, tracer, cycles: list) -> dict:
    traced = [i for i, c in enumerate(cycles) if c["traced"]]
    plain = [c["wall_s"] for c in cycles if not c["traced"]]
    steps = {i: sum(1 for k in cycles[i]["times"] if k.startswith(workload.step_prefix))
             for i in traced}
    metrics = per_layer_metrics(tracer, traced, -1, steps)
    metrics.update({"cli.import_ms": 0.0, "cli.import.verify_ms": 0.0})
    metrics.update(workload.cli_import_ms())
    metrics["trace.overhead_frac"] = \
        float(np.median([cycles[i]["wall_s"] for i in traced]) / np.median(plain) - 1.0)
    metrics["trace.spans_per_cycle"] = float(np.median(
        [sum(1 for s in tracer.spans if s[4] == i) for i in traced]))
    metrics["blas.threads"] = float(blas_threads())
    return metrics


def derived_figures(workload, cycles: list) -> dict:
    """The workload's named figures from the floors of its plain cycles and
    the median wall time of a whole cycle."""
    plain = [c for c in cycles if not c["traced"]]
    floors_ = floors([c["times"] for c in plain])
    out = workload.figures(floors_)
    out["cycles"] = len(plain)
    out["cycle_wall_s_median"] = float(np.median([c["wall_s"] for c in plain]))
    return out


def report(args, env_block: dict, result: dict, derived: dict, checks, out_dir: Path,
           cycles: list) -> None:
    mode = "per-layer" if args.trace else "end-to-end"
    print(f"# {args.workload} seed {args.seed}, {mode} metrics")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in derived.items():
        print(f"  {name}: {value:.6g}")
    print(f"operations and checks: {checks.attempted} attempted, {checks.failed} failed")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({"environment": env_block}, sort_keys=True))
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"environment": env_block, "result": result,
                                "derived": derived, "failures": checks.failures,
                                "cycles": cycles},
                               indent=1, sort_keys=True) + "\n")
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
