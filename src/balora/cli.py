"""Command-line surface: train, eval, sample, bench, verify.

Every run writes a manifest before doing work and finalizes it on exit.
Exit codes: 0 success, 1 verification/assertion failure, 2 configuration
error, 3 I/O or corrupt-artifact error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import resource
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import bench as B
from . import checkpoint as CK
from . import config as C
from . import tasks as TK
from . import uncertainty as U
from .rng import Rng
from .tensor import TensorError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _thread_cap():
    """Honor BALORA_THREADS by capping BLAS worker pools for the process."""
    raw = os.environ.get("BALORA_THREADS", "")
    if not raw:
        return contextlib.nullcontext()
    try:
        limit = max(1, int(raw))
    except ValueError:
        raise C.ConfigError(f"BALORA_THREADS must be an integer, got {raw!r}")
    if B.threadpool_limits is None:
        print(f"BALORA_THREADS ignored: threadpoolctl is not installed; set "
              f"{', '.join(B.BLAS_THREAD_VARS)} before start-up to pin BLAS threads",
              file=sys.stderr)
        return contextlib.nullcontext()
    return B.threadpool_limits(limits=limit)


def _peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux,
    bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


class _Manifest:
    """Run manifest written before work starts and finalized on exit.

    ``finish`` records ``wall_s`` (seconds since the manifest was created)
    and ``peak_rss_mb``; they live only here, so every other artifact stays
    byte-identical across reruns. Used as a context manager, an exception
    finishes it as "error" with the exception's text, and a normal exit
    finishes it as "ok" unless the block already finished it.
    """

    def __init__(self, out_dir: Path, command: str, config_path, seed):
        self.path = out_dir / "manifest.json"
        self._t0 = time.perf_counter()
        self.data = {
            "command": command,
            "config_path": str(config_path) if config_path else None,
            "seed": seed,
            "version": __version__,
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

    def finish(self, status: str, error: str = None) -> None:
        self.data["status"] = status
        self.data["error"] = error
        self.data["finished"] = _now()
        self.data["wall_s"] = time.perf_counter() - self._t0
        self.data["peak_rss_mb"] = _peak_rss_mb()
        self._flush()

    def _flush(self) -> None:
        self.path.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n")


def _prepare_out(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_split_csv(path: Path, split: TK.Split) -> None:
    X = np.atleast_2d(split.X)
    y = np.atleast_2d(np.asarray(split.y, dtype=np.float64).reshape(X.shape[0], -1))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(X.shape[1])]
                        + [f"y{i}" for i in range(y.shape[1])])
        for xi, yi in zip(X, y):
            writer.writerow([repr(v) for v in xi] + [repr(v) for v in yi])


# -- subcommands ----------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = C.load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = _prepare_out(args.out)
    with _Manifest(out, "train", args.config, cfg["seed"]) as manifest:
        task = C.task_from_config(cfg)
        aspec = C.adapter_spec_from_config(cfg)
        pre_cfg, adapt_cfg, prior = C.train_configs_from_config(cfg)
        trained = TK.pretrain_then_adapt(task, cfg["hidden"], aspec, cfg["adapter"],
                                         pre_cfg, adapt_cfg, prior, seed=cfg["seed"])
        for name, split in (("train", trained.target.train), ("val", trained.target.val),
                            ("test", trained.target.test)):
            path = out / f"{name}.csv"
            _write_split_csv(path, split)
            manifest.add_output(path)
        metrics_path = out / "metrics.jsonl"
        with open(metrics_path, "w") as fh:
            for record in trained.adapt_records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        manifest.add_output(metrics_path)
        ckpt_path = out / "checkpoint.bin"
        CK.save_model(ckpt_path, trained.model, extra={"config": C.config_to_json(cfg)})
        manifest.add_output(ckpt_path)
    records = trained.adapt_records
    final = records[-1]
    clipped = sum(record["clipped"] for record in records)
    print(f"trained {cfg['adapter']} on {task.kind}: "
          f"final loss {final['loss']:.6f} (nll {final['nll']:.6f}, "
          f"kl {final['kl_normalized']:.6f}), clipped {clipped}/{len(records)} "
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
        return cfg, _fitting_task(cfg, spec)
    try:
        cfg = C.config_from_json(extra["config"]) if "config" in extra else C.parse_config("")
        return cfg, _fitting_task(cfg, spec)
    except C.ConfigError as err:
        raise CK.CheckpointError(f"stored config: {err}") from err


def cmd_eval(args) -> int:
    out = _prepare_out(args.out)
    with _Manifest(out, "eval", args.config, None) as manifest:
        model, extra = CK.load_model(args.checkpoint)
        cfg, task = _eval_task(args.config, extra, model.backbone.spec)
        manifest.data["seed"] = cfg["seed"]
        splits = TK.generate(task, shifted=True)
        X, y = splits.test.X, splits.test.y
        if args.mode == "deterministic":
            layered = model.predict(X)
            merged = model.merged_forward(X)
            scale = max(1.0, float(np.max(np.abs(layered))))
            gap = float(np.max(np.abs(layered - merged))) / scale
            if gap > 1e-12:
                manifest.finish("error", f"merge equivalence violated: {gap:.3e}")
                print(f"merge-equivalence assertion failed: {gap:.3e}", file=sys.stderr)
                return EXIT_VERIFY
            if task.is_classification:
                probs = U._softmax(merged)
                metrics = {"accuracy": U.accuracy(probs, y), "ece": U.ece(probs, y)}
            else:
                y2 = np.asarray(y, dtype=np.float64).reshape(merged.shape)
                metrics = {"mse": float(np.mean((merged - y2) ** 2)),
                           "mae": U.mae(merged.ravel(), y2.ravel())}
            payload = {"mode": "deterministic", "merge_gap": gap, "metrics": metrics}
            report_path = out / "eval.json"
            report_path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        else:
            mc_steps = cfg["mc_steps"] if args.mc_steps is None else args.mc_steps
            if mc_steps < 2:
                raise C.ConfigError("mc mode needs --mc-steps >= 2", key="mc_steps")
            report = U.uq_report(model, X, y, mc_steps, Rng(cfg["seed"]).stream_of(7))
            report_path = out / "eval.json"
            report_path.write_text(report.to_json() + "\n")
            if args.csv:
                csv_path = out / "eval.csv"
                with open(csv_path, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["id", "pred", "target", "var_total", "var_epi",
                                     "var_ale", "sq_error"])
                    writer.writerows(report.csv_rows())
                manifest.add_output(csv_path)
        manifest.add_output(report_path)
    print(f"eval ({args.mode}) written to {report_path}")
    return EXIT_OK


def cmd_sample(args) -> int:
    out = _prepare_out(args.out)
    with _Manifest(out, "sample", None, args.seed) as manifest:
        if args.n < 1:
            raise C.ConfigError(f"--n must be at least 1, got {args.n}")
        x = np.asarray(_parse_numbers(args.input, float, "--input")) if args.input else None
        model, extra = CK.load_model(args.checkpoint)
        d_in = model.backbone.spec.d_in
        if x is None:
            x = Rng(args.seed).normal((d_in,))
        elif x.shape != (d_in,):
            raise C.ConfigError(f"--input needs {d_in} comma-separated floats")
        rng = Rng(args.seed).stream_of(11)
        draws = U._stochastic_draws(model, x, args.n, rng)[:, 0, :]
        payload = {
            "input": [float(v) for v in x],
            "deterministic": [float(v) for v in model.predict(x[None, :])[0]],
            "samples": [[float(v) for v in row] for row in draws],
        }
        path = out / "samples.json"
        path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        manifest.add_output(path)
    print(f"{args.n} samples written to {path}")
    return EXIT_OK


def cmd_bench(args) -> int:
    out = _prepare_out(args.out)
    with _Manifest(out, "bench", None, args.seed) as manifest:
        k_values = _parse_numbers(args.k_range, int, "--k-range")
        if any(k < 1 for k in k_values):
            raise C.ConfigError("--k-range values must be positive")
        r_max = min(*k_values, B.D_IN)
        if not 1 <= args.r <= r_max:
            raise C.ConfigError(f"--r must be between 1 and min(k, {B.D_IN}) = {r_max}, "
                                f"got {args.r}")
        if args.reps < 1 or args.samples < 1:
            raise C.ConfigError("--reps and --samples must be at least 1")
        rows, slopes = B.run_bench(k_values, r=args.r, n_samples=args.samples,
                                   reps=args.reps, seed=args.seed)
        csv_path = out / "bench.csv"
        B.write_csv(csv_path, rows)
        pinned = B.blas_pinned()
        slopes_path = out / "slopes.json"
        slopes_path.write_text(json.dumps({**slopes, "blas_pinned": pinned},
                                          sort_keys=True) + "\n")
        manifest.data["blas_pinned"] = pinned
        manifest.add_output(csv_path)
        manifest.add_output(slopes_path)
    for method, slope in slopes.items():
        print(f"{method}: log-log slope vs k = {slope:.3f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    # Imported here so that no other command pays for the oracle suite and
    # scipy.integrate at start-up.
    from . import verify as VF
    seed = VF.DEFAULT_SEED if args.seed is None else args.seed
    out = _prepare_out(args.out) if args.out else None
    with _Manifest(out, "verify", None, seed) if out else contextlib.nullcontext() as manifest:
        results = VF.run_oracles(args.filter or "", seed=seed)
        failures = [r for r in results if not r.passed]
        for r in results:
            flag = "PASS" if r.passed else "FAIL"
            print(f"[{flag}] {r.name} ({r.family}): measured {r.measured:.3e} "
                  f"vs tolerance {r.tolerance:.3e}")
        if out:
            path = out / "verify.json"
            path.write_text(json.dumps([{**r.as_dict(), "seed": seed} for r in results],
                                       indent=2, sort_keys=True) + "\n")
            manifest.add_output(path)
            manifest.finish("ok" if not failures else "failed")
            print(f"summary written to {path}")
    if failures:
        print("failed oracles: " + ", ".join(r.name for r in failures), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balora",
        description="Bayesian low-rank adaptation: train, evaluate, sample, "
                    "benchmark, and verify against brute-force oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="pretrain a backbone and train adapters")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int, default=None)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the task test split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", default=None,
                        help="task config; defaults to the one stored in the checkpoint")
    p_eval.add_argument("--mode", choices=("deterministic", "mc"), default="mc")
    p_eval.add_argument("--mc-steps", type=int, default=None,
                        help="MC draws; defaults to mc_steps of the config in use")
    p_eval.add_argument("--csv", action="store_true")
    p_eval.add_argument("--out", required=True)

    p_sample = sub.add_parser("sample", help="draw stochastic outputs for one input")
    p_sample.add_argument("--checkpoint", required=True)
    p_sample.add_argument("--n", type=int, default=16)
    p_sample.add_argument("--input", default=None)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", help="time low-rank vs dense-covariance sampling")
    p_bench.add_argument("--k-range", default="64,128,256,512,1024,2048")
    p_bench.add_argument("--r", type=int, default=8)
    p_bench.add_argument("--samples", type=int, default=4096,
                         help="draws per timed call on the low-rank arm; the dense "
                              "arm caps at 256 so factorization cost dominates")
    p_bench.add_argument("--reps", type=int, default=9)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run the brute-force oracle suite")
    p_verify.add_argument("--filter", default="")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="oracle seed (default: balora.verify.DEFAULT_SEED)")
    p_verify.add_argument("--out", default=None)
    return parser


_HANDLERS = {"train": cmd_train, "eval": cmd_eval, "sample": cmd_sample,
             "bench": cmd_bench, "verify": cmd_verify}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _thread_cap():
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
    except (TensorError, AssertionError) as err:
        print(f"verification error: {err}", file=sys.stderr)
        return EXIT_VERIFY


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
