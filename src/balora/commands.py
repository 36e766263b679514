"""The commands behind :mod:`balora.cli`: train, eval, sample, bench, verify.

:func:`run` takes the parsed arguments, runs one command and maps its
exceptions to exit codes: 0 success, 1 verification/assertion failure, 2
configuration error, 3 I/O or corrupt-artifact error. Every run writes a
manifest before doing work, lists each artifact in it as the artifact is
written (:meth:`_Manifest.artifact`) and finalizes it on exit. This module
loads numpy and the rest of balora, so ``balora.cli`` imports it only once
its arguments parse; it never imports ``balora.cli``, which under ``python
-m balora.cli`` would load that file a second time, as another module.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib.util
import json
import os
import platform
import re
import resource
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS, __version__, blas_pinned
from . import bench as B
from . import checkpoint as CK
from . import config as C
from . import tasks as TK
from . import tensor as T
from . import uncertainty as U
from .rng import Rng
from .tensor import TensorError
from .variational import TrainingDivergence

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _check_threads() -> None:
    """Reject a ``BALORA_THREADS`` that the BLAS thread variables do not hold:
    importing balora copies only a positive integer, and only before numpy."""
    raw = os.environ.get("BALORA_THREADS", "")
    if raw and any(os.environ.get(var) != raw for var in BLAS_THREAD_VARS):
        raise C.ConfigError(
            f"BALORA_THREADS={raw!r} is not in effect: {', '.join(BLAS_THREAD_VARS)} "
            f"differ from it; it must be a positive integer, set before numpy loads")


def _os_threads() -> "int | None":
    """This process's thread count (``Threads:`` in ``/proc/self/status``),
    or None where that file cannot be read."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _scipy_version() -> str:
    """scipy's version without importing scipy: ``scipy.__version__`` if it
    is loaded already, else the ``version`` line of its ``version.py`` (in
    the directory ``balora.tensor._load_extension`` finds it in), else, where
    that file is missing, its installed metadata."""
    if "scipy" in sys.modules:
        return sys.modules["scipy"].__version__
    scipy = importlib.util.find_spec("scipy")
    for directory in scipy.submodule_search_locations if scipy else ():
        try:
            with open(os.path.join(directory, "version.py")) as fh:
                found = re.search(r"""^version = ['"]([^'"]+)['"]""", fh.read(), re.M)
        except OSError:
            continue
        if found:
            return found.group(1)
    from importlib import metadata
    return metadata.version("scipy")


@functools.cache
def _versions() -> tuple:
    """(name, version) of Python, numpy, scipy (:func:`_scipy_version`) and
    the BLAS numpy was built with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):  # numpy < 1.26 has no build-info dict
        blas = None
    return (("python", platform.python_version()), ("numpy", np.__version__),
            ("scipy", _scipy_version()), ("blas", blas))


def _peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux,
    bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


class _Manifest:
    """Run manifest written in ``out_dir``, which it creates, before work
    starts, and finalized on exit.

    It records the ``versions`` of Python, numpy, scipy and the BLAS.
    ``finish`` records ``wall_s`` (seconds since the manifest was created),
    ``peak_rss_mb``, ``threads``, the process's OS thread count at that
    point (the BLAS pool included; null where it cannot be read), and
    ``erf_module``, the module the GELU's ``erf`` came from (null if no GELU
    has run in this process). They live only here, so every other artifact
    stays byte-identical across reruns.
    ``outputs`` lists every other file of the run, in the order written.
    Used as a context manager, an exception finishes it as "error" with the
    exception's text, and a normal exit finishes it as "ok" unless the block
    already finished it.
    """

    def __init__(self, out_dir: Path, command: str, config_path, seed):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path = out_dir / "manifest.json"
        self._t0 = time.perf_counter()
        self.data = {
            "command": command,
            "config_path": str(config_path) if config_path else None,
            "seed": seed,
            "version": __version__,
            "versions": dict(_versions()),
            "thread_env": {var: os.environ.get(var)
                           for var in ("BALORA_THREADS", *BLAS_THREAD_VARS)},
            "started": _now(),
            "finished": None,
            "outputs": [],
            "status": "running",
            "error": None,
        }
        self._flush()

    def __enter__(self) -> "_Manifest":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.finish("error", str(exc))
        elif self.data["status"] == "running":
            self.finish("ok")

    def add_output(self, path) -> None:
        self.data["outputs"].append(str(path))

    @contextlib.contextmanager
    def artifact(self, path: Path, **kwargs):
        """Write text to ``path`` through :func:`~balora.checkpoint.atomic_open`,
        with its ``kwargs``; once the file is whole, list it in ``outputs``."""
        with CK.atomic_open(path, **kwargs) as fh:
            yield fh
        self.add_output(path)

    def finish(self, status: str, error: str = None) -> None:
        self.data["status"] = status
        self.data["error"] = error
        self.data["finished"] = _now()
        self.data["wall_s"] = time.perf_counter() - self._t0
        self.data["peak_rss_mb"] = _peak_rss_mb()
        self.data["threads"] = _os_threads()
        self.data["erf_module"] = T.erf_module()
        self._flush()

    def _flush(self) -> None:
        with CK.atomic_open(self.path) as fh:
            fh.write(json.dumps(self.data, indent=2, sort_keys=True) + "\n")


def _verify_failed(manifest: _Manifest, message: str) -> int:
    """Finish ``manifest`` as an error with ``message`` and return exit code 1."""
    manifest.finish("error", message)
    print(f"verification error: {message}", file=sys.stderr)
    return EXIT_VERIFY


def _write_split_csv(fh, split: TK.Split) -> None:
    """The split as CSV to ``fh``: a header ``x0, ..., y0, ...``, then one row
    per sample (none for an empty split). Class labels become one float column."""
    X = split.X
    y = np.asarray(split.y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    writer = csv.writer(fh)
    writer.writerow([f"x{i}" for i in range(X.shape[1])] + [f"y{i}" for i in range(y.shape[1])])
    writer.writerows(np.hstack([X, y]).tolist())


def _trainable_params(model) -> dict:
    """Trainable parameter counts per group (adapters, AlphaNet, ``log_sigma``)
    and in total, for the model's kind and for a LoRA arm at the same config,
    which trains the same adapters and ``log_sigma`` but has no AlphaNet."""
    counts = {"adapters": sum(p.size for layer in model.adapters.values()
                              for p in layer.trainables()),
              "alphanet": sum(p.size for p in model.alphanet.trainables())
              if model.alphanet is not None else 0,
              "log_sigma": 0 if model.log_sigma is None else model.log_sigma.size}
    arms = {model.kind: counts, "lora": {**counts, "alphanet": 0}}
    return {kind: {**arm, "total": sum(arm.values())} for kind, arm in arms.items()}


# -- subcommands ----------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = C.load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = Path(args.out)
    with _Manifest(out, "train", args.config, cfg["seed"]) as manifest:
        task = C.task_from_config(cfg)
        manifest.data["shift_rank"] = task.used_shift_rank
        manifest.data["output_dim"] = task.output_dim
        aspec = C.adapter_spec_from_config(cfg)
        pre_cfg, adapt_cfg, prior = C.train_configs_from_config(cfg)
        trained = TK.pretrain_then_adapt(task, cfg["hidden"], aspec, cfg["adapter"],
                                         pre_cfg, adapt_cfg, prior, seed=cfg["seed"])
        manifest.data["adapter_ranks"] = {str(i): layer.rank
                                          for i, layer in trained.model.adapters.items()}
        manifest.data["trainable_params"] = _trainable_params(trained.model)
        manifest.data["phases"] = trained.phases
        for name, split in (("train", trained.target.train), ("val", trained.target.val),
                            ("test", trained.target.test)):
            with manifest.artifact(out / f"{name}.csv", newline="") as fh:
                _write_split_csv(fh, split)
        with manifest.artifact(out / "metrics.jsonl") as fh:
            for phase, records in (("pretrain", trained.pretrain_records),
                                   ("adapt", trained.adapt_records)):
                for record in records:
                    fh.write(json.dumps({**record, "phase": phase}, sort_keys=True) + "\n")
        ckpt_path = out / "checkpoint.bin"
        CK.save_model(ckpt_path, trained.model, extra={"config": C.config_to_json(cfg)})
        manifest.add_output(ckpt_path)
    final, adapt = trained.adapt_records[-1], trained.phases["adapt"]
    print(f"trained {cfg['adapter']} on {task.kind}: "
          f"final loss {final['loss']:.6f} (nll {final['nll']:.6f}, "
          f"kl {final['kl_normalized']:.6f}), clipped {adapt['clipped']}/{adapt['steps']} "
          f"-> {ckpt_path}")
    return EXIT_OK


def _parse_numbers(text: str, kind, flag: str) -> list:
    """Comma-separated finite values of ``kind``; anything else is a config error."""
    try:
        values = [kind(v) for v in text.split(",")]
    except ValueError:
        values = None
    if values is None or not np.all(np.isfinite(values)):
        raise C.ConfigError(f"{flag} takes comma-separated finite numbers, got {text!r}")
    return values


def _fitting_task(cfg: dict, spec) -> TK.SyntheticTask:
    """The config's task, which must have the model's input width, output
    width and head."""
    task = C.task_from_config(cfg)
    if TK._backbone_spec(task, spec.hidden) != spec:
        raise C.ConfigError(
            f"task {task.kind} (d_in {task.d_in}, output width {task.output_dim}) does not "
            f"fit the model (d_in {spec.d_in}, d_out {spec.d_out}, {spec.head} head)")
    return task


def _eval_task(config_path, extra: dict, spec) -> tuple[dict, TK.SyntheticTask]:
    """The config and task to evaluate on: the ``--config`` file if given,
    else the config stored in the checkpoint, else the defaults. A stored
    config that is malformed or does not fit the model is a corrupt
    checkpoint, not a user configuration error."""
    if config_path:
        cfg = C.load_config(config_path)
        try:
            return cfg, _fitting_task(cfg, spec)
        except C.ConfigError as err:
            raise C.ConfigError(f"--config: {err}", key=err.key) from err
    try:
        cfg = C.config_from_json(extra["config"]) if "config" in extra else C.parse_config("")
        return cfg, _fitting_task(cfg, spec)
    except C.ConfigError as err:
        raise CK.CheckpointError(f"stored config: {err}") from err


def cmd_eval(args) -> int:
    out = Path(args.out)
    with _Manifest(out, "eval", args.config, None) as manifest:
        if args.mode == "deterministic" and (args.csv or args.mc_steps is not None):
            flag = "--csv" if args.csv else "--mc-steps"
            raise C.ConfigError(f"{flag} applies only to --mode mc, not deterministic")
        model, extra = CK.load_model(args.checkpoint)
        if args.mode == "mc" and model.kind != "balora":
            raise C.ConfigError(f"--mode mc needs a balora checkpoint, not {model.kind}")
        cfg, task = _eval_task(args.config, extra, model.backbone.spec)
        manifest.data["seed"] = cfg["seed"]
        splits = TK.generate(task, shifted=True)
        X, y = splits.test.X, splits.test.y
        if args.mode == "deterministic":
            X, y = model.batch(X, y)
            layered = model.predict(X)
            merged = model.merged_forward(X)
            scale = max(1.0, float(np.max(np.abs(layered))))
            gap = float(np.max(np.abs(layered - merged))) / scale
            # Written so that a NaN gap fails too.
            if not gap <= 1e-12:
                return _verify_failed(manifest, f"merge equivalence violated: {gap:.3e}")
            if task.is_classification:
                probs = U._softmax(merged)
                metrics = {"accuracy": U.accuracy(probs, y), "ece": U.ece(probs, y)}
            else:
                clean = X @ TK.true_map(task).T
                metrics = {"mse": float(np.mean((merged - y) ** 2)),
                           "excess_mse": float(np.mean((merged - clean) ** 2)),
                           "mae": U.mae(merged.ravel(), y.ravel())}
            if not np.all(np.isfinite(list(metrics.values()))):
                return _verify_failed(manifest, f"non-finite metrics: {metrics}")
            text = json.dumps({"mode": "deterministic", "merge_gap": gap, "metrics": metrics},
                              sort_keys=True)
        else:
            mc_steps = cfg["mc_steps"] if args.mc_steps is None else args.mc_steps
            if mc_steps < 2:
                raise C.ConfigError("mc mode needs --mc-steps >= 2", key="mc_steps")
            rows = mc_steps * len(X)
            manifest.data["mc_workers"] = model.mc_workers(rows)
            # The first GELU loads erf; load it before the clock starts, so
            # that draws_per_s times the draws, not the load.
            T.gelu_gate(np.zeros(1))
            t0 = time.perf_counter()
            report = U.uq_report(model, X, y, mc_steps, Rng(cfg["seed"]).stream_of(7))
            manifest.data["draws_per_s"] = rows / (time.perf_counter() - t0)
            text = report.to_json()
        report_path = out / "eval.json"
        with manifest.artifact(report_path) as fh:
            fh.write(text + "\n")
        if args.csv:
            with manifest.artifact(out / "eval.csv", newline="") as fh:
                csv.writer(fh).writerows([U.UQReport.CSV_HEADER, *report.csv_rows()])
    print(f"eval ({args.mode}) written to {report_path}")
    return EXIT_OK


def cmd_sample(args) -> int:
    out = Path(args.out)
    with _Manifest(out, "sample", None, args.seed) as manifest:
        if args.n < 1:
            raise C.ConfigError(f"--n must be at least 1, got {args.n}")
        if args.input is not None:
            x = np.asarray(_parse_numbers(args.input, float, "--input"))
        model, extra = CK.load_model(args.checkpoint)
        if model.kind != "balora":
            raise C.ConfigError(f"sample needs a balora checkpoint, not {model.kind}")
        d_in = model.backbone.spec.d_in
        if args.input is None:
            x = Rng(args.seed).normal((d_in,))
        elif x.shape != (d_in,):
            raise C.ConfigError(f"--input needs {d_in} comma-separated floats")
        rng = Rng(args.seed).stream_of(11)
        manifest.data["mc_workers"] = model.mc_workers(args.n)
        try:
            draws = model.predict_stochastic(x, args.n, rng)[:, 0, :]
        except T.NonFiniteError as err:
            if args.input is None:
                raise
            # The checkpoint's weights are finite, so the input overflowed them.
            raise C.ConfigError(f"--input overflows the model: {err}") from err
        payload = {
            "input": [float(v) for v in x],
            "deterministic": [float(v) for v in model.predict(x[None, :])[0]],
            "samples": [[float(v) for v in row] for row in draws],
        }
        path = out / "samples.json"
        with manifest.artifact(path) as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
    print(f"{args.n} samples written to {path}")
    return EXIT_OK


def cmd_bench(args) -> int:
    out = Path(args.out)
    with _Manifest(out, "bench", None, args.seed) as manifest:
        k_values = _parse_numbers(args.k_range, int, "--k-range")
        if any(k < 1 for k in k_values):
            raise C.ConfigError("--k-range values must be positive")
        if len(set(k_values)) < 2:
            raise C.ConfigError("--k-range needs two distinct values to fit a slope")
        r_max = min(*k_values, B.D_IN)
        if not 1 <= args.r <= r_max:
            raise C.ConfigError(f"--r must be between 1 and min(k, {B.D_IN}) = {r_max}, "
                                f"got {args.r}")
        if args.reps < 1 or args.samples < 1:
            raise C.ConfigError("--reps and --samples must be at least 1")
        rows, slopes = B.run_bench(k_values, r=args.r, n_samples=args.samples,
                                   reps=args.reps, seed=args.seed)
        with manifest.artifact(out / "bench.csv", newline="") as fh:
            csv.writer(fh).writerows([B.CSV_HEADER, *(row.csv_row() for row in rows)])
        pinned = blas_pinned()
        with manifest.artifact(out / "slopes.json") as fh:
            fh.write(json.dumps({**slopes, "blas_pinned": pinned}, sort_keys=True) + "\n")
        manifest.data["blas_pinned"] = pinned
    for method, slope in slopes.items():
        if slope is None:  # only the dense arm skips k values
            print(f"{method}: not fitted: fewer than two distinct --k-range values "
                  f"<= {B.DENSE_MAX_K}, the largest k this arm times")
        else:
            print(f"{method}: log-log slope vs k = {slope:.3f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    # Imported here so that no other command pays for the oracle suite and
    # scipy.integrate at start-up.
    from . import verify as VF
    seed = VF.DEFAULT_SEED if args.seed is None else args.seed
    out = Path(args.out) if args.out else None
    with _Manifest(out, "verify", None, seed) if out else contextlib.nullcontext() as manifest:
        results = VF.run_oracles(args.filter, seed=seed)
        if not results:
            known = [n for n, _, _ in VF.ORACLES] + sorted({f for _, f, _ in VF.ORACLES})
            raise C.ConfigError(f"--filter {args.filter!r} matches none of {', '.join(known)}")
        failures = [r for r in results if not r.passed]
        for r in results:
            flag = "PASS" if r.passed else "FAIL"
            print(f"[{flag}] {r.name} ({r.family}): measured {r.measured:.3e} "
                  f"vs tolerance {r.tolerance:.3e}")
        if out:
            path = out / "verify.json"
            with manifest.artifact(path) as fh:
                fh.write(json.dumps([{**asdict(r), "seed": seed} for r in results],
                                    indent=2, sort_keys=True) + "\n")
            manifest.finish("ok" if not failures else "failed")
            print(f"summary written to {path}")
    if failures:
        print("failed oracles: " + ", ".join(r.name for r in failures), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


_HANDLERS = {"train": cmd_train, "eval": cmd_eval, "sample": cmd_sample,
             "bench": cmd_bench, "verify": cmd_verify}


def run(args) -> int:
    """Run the parsed command ``args.command``; return its exit code."""
    try:
        # Every tape op raises on a non-finite result, so numpy's floating-point
        # warnings would only repeat that error on stderr ahead of its one line.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _check_threads()
            return _HANDLERS[args.command](args)
    except C.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except CK.CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return EXIT_IO
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except (TensorError, AssertionError, TrainingDivergence) as err:
        print(f"verification error: {err}", file=sys.stderr)
        return EXIT_VERIFY
