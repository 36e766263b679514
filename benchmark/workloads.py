"""The four benchmark workloads and the tracing wrappers they share.

Every workload is one closed loop with a single caller: a set-up, then
cycles of the same public calls until the measuring time is used up. A
cycle is a fixed sequence of timed segments; the segments labelled with the
workload's ``step_prefix`` are its steps. Outputs are checked inside every
cycle; a check compares against the first cycle where the program promises
bit-identical results for the same seed.

balora is imported inside the methods, never at module level, so the
caller can time the imports as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Patch, Tracer

SWEEP_K = (64, 128, 256, 512, 1024, 2048)
SWEEP_R = 8
SWEEP_D = 64
SWEEP_ALPHA = 0.7
LOWRANK_DRAWS = 4096
ORACLE_DRAWS = 256       # the dense arm of ``balora bench`` caps at 256 draws
LOWRANK_CALLS = 16       # per k per cycle; the k = 2048 calls are the steps
TENSOR_OPS = ("matmul", "linear", "add", "mul", "gelu", "reshape", "transpose",
              "square", "sqrt")
MERGE_TOL = 1e-12
SIGMA_TOL = 6.0          # z-score bound of the sampler-vs-analytic check


class Checks:
    """Counts operations and output checks; keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def same(self, reference: dict, key: str, value) -> None:
        """``value`` must equal the first value recorded under ``key``."""
        if key not in reference:
            reference[key] = value
            return
        self.check(reference[key] == value, f"{key} differs from the first cycle")

    @contextlib.contextmanager
    def operation(self, what: str):
        """Count one operation; an exception marks it failed and is reported."""
        self.attempted += 1
        try:
            yield
        except Exception:  # the run keeps going and reports the failure
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {traceback.format_exc(limit=3)}")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def merge_gap(model, X) -> float:
    """Relative gap between layered and merged forwards, as ``balora eval`` does."""
    layered = model.predict(X)
    merged = model.merged_forward(X)
    scale = max(1.0, float(np.max(np.abs(layered))))
    return float(np.max(np.abs(layered - merged))) / scale


def floors(cycles: list) -> dict:
    """Fastest time of every segment label over the cycles that ran it."""
    out: dict = {}
    for times in cycles:
        for label, seconds in times.items():
            out[label] = min(seconds, out.get(label, seconds))
    return out


def phase(floors_: dict, prefix: str) -> tuple[int, float]:
    """Number and summed floors of the segments whose label starts with ``prefix``."""
    values = [v for k, v in floors_.items() if k.startswith(prefix)]
    return len(values), float(sum(values))


class Workload:
    """Base: one cycle is a fixed sequence of timed segments.

    ``cycle`` fills ``self.times`` with one entry per segment label; the
    same seed gives every cycle the same segments, so a label's fastest
    time over the cycles estimates its cost with the host's speed swings
    filtered out. Labels starting with ``step_prefix`` are the steps.
    """

    name = ""
    modules: tuple = ()
    step_prefix = ""

    def __init__(self, root: Path, seed: int, workdir: Path, checks: Checks, env: dict):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.checks = checks
        self.env = env
        self.reference: dict = {}
        self.times: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self) -> None:
        raise NotImplementedError

    def figures(self, floors_: dict) -> dict:
        """The workload's named figures, computed from segment floors."""
        raise NotImplementedError

    @contextlib.contextmanager
    def timed(self, label: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[label] = time.perf_counter() - t0

    @contextlib.contextmanager
    def training(self):
        """Time a call that trains; every step through ``train_model``'s public
        ``record_hook`` as ``pretrain.<i>`` or ``adapt.<i>`` (models with
        adapters), the rest of the call as ``train.rest``."""
        from balora import variational as V
        original = V.train_model
        times = self.times
        counts = {"pretrain": 0, "adapt": 0}

        def train_model(model, train_xy, prior, cfg, rng, record_hook=None):
            kind = "adapt" if model.adapters else "pretrain"
            last = [time.perf_counter()]

            def hook(record):
                now = time.perf_counter()
                times[f"{kind}.{counts[kind]}"] = now - last[0]
                counts[kind] += 1
                last[0] = now
                if record_hook is not None:
                    record_hook(record)

            return original(model, train_xy, prior, cfg, rng, record_hook=hook)

        patch = Patch()
        patch.set(V, "train_model", train_model)
        t0 = time.perf_counter()
        try:
            with patch:
                yield
        finally:
            steps = sum(v for k, v in times.items() if k.startswith(("pretrain.", "adapt.")))
            times["train.rest"] = time.perf_counter() - t0 - steps

    def training_figures(self, floors_: dict) -> dict:
        out = {"train_s": phase(floors_, "train.rest")[1]}
        for kind in ("pretrain", "adapt"):
            n, total = phase(floors_, f"{kind}.")
            if n:
                out[f"{kind}_steps_per_s"] = n / total
                out["train_s"] += total
        return out

    def cli_import_ms(self) -> dict:
        return {}


# -- toy-cli ------------------------------------------------------------------


class ToyCli(Workload):
    """The desk user's pipeline: cold start, train, MC eval, deterministic eval."""

    name = "toy-cli"
    modules = ("balora.cli",)
    step_prefix = "adapt."

    def setup(self) -> None:
        from balora import config as C
        self.config = self.root / "configs" / "toy_hetero.cfg"
        C.load_config(self.config)
        self.out = self.workdir / "toy"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def _main(self, argv: list) -> None:
        from balora import cli
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        self.checks.check(rc == 0, f"balora {argv[0]} exit code {rc}")

    def cycle(self) -> None:
        c = self.checks
        train_dir, mc_dir, det_dir = (self.out / n for n in ("train", "mc", "det"))
        ckpt = train_dir / "checkpoint.bin"
        with self.timed("cold_start"):
            proc = subprocess.run([sys.executable, "-m", "balora.cli", "--help"],
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, check=False)
        c.check(proc.returncode == 0, f"cold start exit code {proc.returncode}")
        with self.training():
            self._main(["train", "--config", str(self.config), "--out", str(train_dir),
                        "--seed", str(self.seed)])
        with self.timed("eval_mc"):
            self._main(["eval", "--checkpoint", str(ckpt), "--mode", "mc",
                        "--mc-steps", "100", "--csv", "--out", str(mc_dir)])
        with self.timed("eval_det"):
            self._main(["eval", "--checkpoint", str(ckpt), "--mode", "deterministic",
                        "--out", str(det_dir)])
        with c.operation("read eval outputs"):
            gap = json.loads((det_dir / "eval.json").read_text())["merge_gap"]
            c.check(gap <= MERGE_TOL, f"merge_gap {gap:.3e} > {MERGE_TOL}")
            for path in (ckpt, train_dir / "metrics.jsonl", mc_dir / "eval.json"):
                c.same(self.reference, str(path.relative_to(self.out)),
                       digest(path.read_bytes()))

    def figures(self, floors_: dict) -> dict:
        out = {"cold_start_s": floors_.get("cold_start", 0.0),
               "eval_mc_s": floors_.get("eval_mc", 0.0),
               "eval_det_s": floors_.get("eval_det", 0.0)}
        out.update(self.training_figures(floors_))
        return out

    def cli_import_ms(self) -> dict:
        """Cumulative import times of ``balora.cli`` and ``balora.verify``."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import balora.cli"],
                              env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, check=False)
        self.checks.check(proc.returncode == 0, "python -X importtime failed")
        found = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in ("balora.cli", "balora.verify"):
                found[parts[2]] = int(parts[1]) / 1e3
        return {"cli.import_ms": found.get("balora.cli", 0.0),
                "cli.import.verify_ms": found.get("balora.verify", 0.0)}


# -- wide-train -----------------------------------------------------------------


class WideTrain(Workload):
    """Pretrain and adapt on the wide shape, then MC eval of that model."""

    name = "wide-train"
    modules = ("balora.tasks", "balora.uncertainty")
    step_prefix = "adapt."
    mc_steps = 32

    def setup(self) -> None:
        from balora import tasks as TK
        from balora import variational as V
        from balora.model import AdapterSpec
        self.task = TK.SyntheticTask(kind="heteroscedastic-regression", d_in=32, d_out=1,
                                     n_train=4096, n_val=64, n_test=512, seed=self.seed)
        self.aspec = AdapterSpec(rank=8, lora_alpha=16.0)
        self.pre = V.TrainConfig(lr=5e-3, epochs=2, batch_size=64, kl_weight=0.0)
        self.adapt = V.TrainConfig(lr=1e-2, epochs=3, batch_size=64, kl_weight=1.0,
                                   warmup_fraction=0.1)
        self.prior = V.PriorConfig(0.5)
        test = TK.generate(self.task, shifted=True).test
        self.X, self.y = test.X, test.y

    def cycle(self) -> None:
        from balora import tasks as TK
        from balora import uncertainty as U
        from balora.rng import Rng
        c = self.checks
        trained = None
        with c.operation("pretrain_then_adapt"), self.training():
            trained = TK.pretrain_then_adapt(self.task, (256, 256), self.aspec, "balora",
                                             self.pre, self.adapt, self.prior, seed=self.seed)
        if trained is None:
            return
        loss = trained.adapt_records[-1]["loss"]
        c.check(bool(np.isfinite(loss)), "final adapt loss is not finite")
        c.same(self.reference, "final adapt loss", loss)
        with c.operation("uq_report"), self.timed("eval_mc"):
            report = U.uq_report(trained.model, self.X, self.y, self.mc_steps,
                                 Rng(self.seed).stream_of(7))
        c.same(self.reference, "uq_report", digest(report.to_json().encode()))
        with c.operation("merged_forward"):
            gap = merge_gap(trained.model, self.X)
            c.check(gap <= MERGE_TOL, f"merge gap {gap:.3e} > {MERGE_TOL}")

    def figures(self, floors_: dict) -> dict:
        out = self.training_figures(floors_)
        if floors_.get("eval_mc"):
            out["eval_mc_s"] = floors_["eval_mc"]
            out["mc_rows_per_s"] = self.mc_steps * len(self.X) / floors_["eval_mc"]
        return out


# -- mc-head --------------------------------------------------------------------


class McHead(Workload):
    """Forward-only evaluation of a classifier adapted at its output layer.

    The 1024 test rows go through ``uq_report`` in blocks of 128 so that each
    timed call is short next to the host's speed swings.
    """

    name = "mc-head"
    modules = ("balora.tasks", "balora.uncertainty")
    step_prefix = "merged."
    mc_steps = 100
    block_rows = 128
    merged_calls = 100

    def setup(self) -> None:
        from balora import tasks as TK
        from balora import variational as V
        from balora.model import AdapterSpec
        task = TK.SyntheticTask(kind="multiclass-gaussian-blobs", d_in=16, n_classes=10,
                                n_train=1024, n_val=64, n_test=1024, seed=self.seed)
        aspec = AdapterSpec(rank=8, lora_alpha=16.0, adapt_layers=(2,))
        pre = V.TrainConfig(lr=5e-3, epochs=2, batch_size=64, kl_weight=0.0)
        adapt = V.TrainConfig(lr=1e-2, epochs=2, batch_size=64, kl_weight=1.0)
        trained = TK.pretrain_then_adapt(task, (128, 128), aspec, "balora", pre, adapt,
                                         V.PriorConfig(0.5), seed=self.seed)
        self.model = trained.model
        self.X, self.y = trained.target.test.X, trained.target.test.y

    def cycle(self) -> None:
        from balora import uncertainty as U
        from balora.rng import Rng
        c = self.checks
        base = Rng(self.seed).stream_of(7)
        for b, start in enumerate(range(0, len(self.X), self.block_rows)):
            rows = slice(start, start + self.block_rows)
            with c.operation("uq_report"), self.timed(f"uq_report.{b}"):
                report = U.uq_report(self.model, self.X[rows], self.y[rows], self.mc_steps,
                                     base.stream_of(b))
            c.same(self.reference, f"uq_report block {b}", digest(report.to_json().encode()))
            c.check(0.0 <= report.metrics["accuracy"] <= 1.0
                    and bool(np.isfinite(report.metrics["ece"])),
                    "classification metrics out of range")
        out = None
        for i in range(self.merged_calls):
            with c.operation("merged_forward"), self.timed(f"merged.{i}"):
                out = self.model.merged_forward(self.X)
        if out is not None:
            c.same(self.reference, "merged_forward", digest(out.tobytes()))
        with c.operation("merge gap"):
            gap = merge_gap(self.model, self.X)
            c.check(gap <= MERGE_TOL, f"merge gap {gap:.3e} > {MERGE_TOL}")

    def figures(self, floors_: dict) -> dict:
        out = {}
        n, total = phase(floors_, "uq_report.")
        if n:
            out["eval_mc_s"] = total
            out["mc_rows_per_s"] = self.mc_steps * len(self.X) / total
        merged = [v for k, v in floors_.items() if k.startswith("merged.")]
        if merged:
            out["det_rows_per_s"] = len(self.X) / float(np.median(merged))
        return out


# -- sampler-sweep ----------------------------------------------------------------


def lowrank_matches_analytic(layer, x, alpha: float, draws: np.ndarray) -> list[str]:
    """Problems found comparing sampler draws with ``analytic_predictive``.

    The draws minus the analytic mean must lie in the span of ``WB`` (the
    covariance has rank r); their latent coordinates, whitened by the
    analytic latent variances, must have zero mean and identity covariance
    within ``SIGMA_TOL`` standard errors entrywise.
    """
    from balora import adapter as A
    law = A.analytic_predictive(layer, x, alpha)
    wb = law.wb.data
    dev = draws - law.mean.data
    latent = np.linalg.lstsq(wb, dev.T, rcond=None)[0]
    problems = []
    resid = float(np.max(np.abs(dev - (wb @ latent).T)))
    if resid > 1e-9 * max(1.0, float(np.max(np.abs(dev)))):
        problems.append(f"draws leave the span of WB by {resid:.3e}")
    u = latent.T / np.sqrt(law.d_vec.data)
    n = u.shape[0]
    z_mean = float(np.max(np.abs(u.mean(axis=0)))) * np.sqrt(n)
    cov = u.T @ u / n
    z_var = float(np.max(np.abs(np.diag(cov) - 1.0))) * np.sqrt(n / 2.0)
    z_cross = float(np.max(np.abs(cov - np.diag(np.diag(cov))))) * np.sqrt(n)
    for label, z in (("mean", z_mean), ("variance", z_var), ("covariance", z_cross)):
        if not z <= SIGMA_TOL:
            problems.append(f"latent {label} off by {z:.2f} standard errors")
    return problems


def loglog_slope(points: dict) -> float:
    ks = sorted(points)
    return float(np.polyfit(np.log(ks), np.log([points[k] for k in ks]), 1)[0])


def slope_verdicts(slopes: dict) -> dict:
    """Acceptance criterion 7's two conditions (low-rank slope in
    [0.75, 1.25], dense slope >= 1.7) as 1.0 met or 0.0 not met; reported as
    data, never enforced."""
    return {"adapter.lowrank.slope_in_gate": float(0.75 <= slopes["lowrank"] <= 1.25),
            "adapter.full_cov.slope_in_gate": float(slopes["full_cov"] >= 1.7)}


class SamplerSweep(Workload):
    """Low-rank sampler against the dense-covariance oracle over k at r = 8."""

    name = "sampler-sweep"
    modules = ("balora.adapter",)
    step_prefix = f"lowrank.k{SWEEP_K[-1]}."

    def setup(self) -> None:
        from balora import adapter as A
        from balora.rng import Rng
        from balora.tensor import Tensor
        rng = Rng(self.seed)
        self.cases = []
        for k in SWEEP_K:
            layer = A.init_layer(rng.stream_of(k), d=SWEEP_D, k=k, r=SWEEP_R, init_std=0.3)
            layer.WB = Tensor(rng.stream_of(k + 1).normal((k, SWEEP_R)))
            x = Tensor(rng.stream_of(k + 2).normal((SWEEP_D,)))
            self.cases.append((k, layer, x))

    def cycle(self) -> None:
        from balora import adapter as A
        from balora.rng import Rng
        c = self.checks
        base = Rng(self.seed)
        for k, layer, x in self.cases:
            rng = base.stream_of(k + 3)
            draws = []
            for i in range(LOWRANK_CALLS):
                with c.operation(f"sample_lowrank k={k}"), self.timed(f"lowrank.k{k}.{i}"):
                    out = A.sample_lowrank(layer, x, SWEEP_ALPHA, rng, n=LOWRANK_DRAWS)
                # Only the smallest k keeps every batch; 8 x 64 MB at k = 2048
                # would set the peak RSS.
                draws = [*draws, out.data] if k == SWEEP_K[0] else [out.data]
            if k == SWEEP_K[0] and len(draws) == LOWRANK_CALLS:
                problems = lowrank_matches_analytic(layer, x, SWEEP_ALPHA,
                                                    np.concatenate(draws))
                c.check(not problems, f"k={k}: " + "; ".join(problems))
            if draws:
                c.same(self.reference, f"lowrank draws k={k}", digest(draws[-1].tobytes()))
        for k, layer, x in self.cases:
            with c.operation(f"sample_full_cov_oracle k={k}"), self.timed(f"oracle.k{k}"):
                A.sample_full_cov_oracle(layer, x, SWEEP_ALPHA, base.stream_of(k + 4),
                                         n=ORACLE_DRAWS)

    def slopes(self, floors_: dict) -> dict:
        """Log-log slopes against k of each sampler's median call floor."""
        lowrank = {k: float(np.median([v for key, v in floors_.items()
                                       if key.startswith(f"lowrank.k{k}.")]))
                   for k in SWEEP_K}
        oracle = {k: floors_[f"oracle.k{k}"] for k in SWEEP_K}
        return {"lowrank": loglog_slope(lowrank), "full_cov": loglog_slope(oracle)}

    def figures(self, floors_: dict) -> dict:
        steps = [v for k, v in floors_.items() if k.startswith(self.step_prefix)]
        slopes = self.slopes(floors_)
        out = {"lowrank_draws_per_s": LOWRANK_DRAWS / float(np.median(steps))}
        out.update({f"{k}_slope": v for k, v in slopes.items()})
        out.update(slope_verdicts(slopes))
        return out


WORKLOADS = {w.name: w for w in (ToyCli, WideTrain, McHead, SamplerSweep)}


# -- tracing wrappers -------------------------------------------------------------


def install_tracing(tracer: Tracer) -> Patch:
    """Wrap the public calls of every layer the per-layer metrics name."""
    from balora import adapter as A
    from balora import checkpoint as CK
    from balora import model as M
    from balora import rng as R
    from balora import tasks as TK
    from balora import tensor as T
    from balora import uncertainty as U
    from balora import variational as V

    patch = Patch()

    def matmul_flop(tr, args, kwargs, out):
        a, b = args[0].shape, args[1].shape
        tr.count("tensor.matmul.flop",
                 2.0 * np.prod(a[:-1]) * a[-1] * np.prod(b[1:]))

    def linear_rows(tr, args, kwargs, out):
        tr.count("tensor.linear.rows", args[0].shape[0] if args[0].ndim == 2 else 1)

    hooks = {"matmul": matmul_flop, "linear": linear_rows}
    for op in (*TENSOR_OPS, "backward"):
        patch.set(T, op, tracer.wrap(f"tensor.{op}", getattr(T, op), hooks.get(op)))

    tensor_init = T.Tensor.__init__

    def counted_init(self, values, requires_grad=False):
        tensor_init(self, values, requires_grad)
        tracer.count("tensor.Tensor.calls")
        tracer.count("tensor.Tensor.bytes_copied", self.data.nbytes)

    patch.set(T.Tensor, "__init__", counted_init)

    def forward_name(args, kwargs, out):
        return "model.AdaptedModel.forward." + ("taped" if out.requires_grad else "untaped")

    Model = M.AdaptedModel
    patch.set(Model, "forward", tracer.wrap("model.AdaptedModel.forward", Model.forward,
                                            rename=forward_name))
    for method in ("alphas", "predict_stochastic", "merged_forward"):
        patch.set(Model, method, tracer.wrap(f"model.AdaptedModel.{method}",
                                             getattr(Model, method)))

    for fn in ("elbo_step", "kl_normalized"):
        patch.set(V, fn, tracer.wrap(f"variational.{fn}", getattr(V, fn)))
    patch.set(V.AdamW, "step", tracer.wrap("variational.AdamW.step", V.AdamW.step))

    def draw_rows(tr, args, kwargs, out):
        tr.count("uncertainty.draw_rows", args[3] * np.atleast_2d(args[1]).shape[0])

    patch.set(U, "uq_report", tracer.wrap("uncertainty.uq_report", U.uq_report, draw_rows))

    for fn in ("sample_lowrank", "sample_full_cov_oracle"):
        patch.set(A, fn, tracer.wrap(
            f"adapter.{fn}", getattr(A, fn),
            rename=lambda args, kwargs, out, fn=fn: f"adapter.{fn}.k{args[0].k}"))
    patch.set(A, "alpha_forward", tracer.wrap("adapter.alpha_forward", A.alpha_forward))

    def normal_draws(tr, args, kwargs, out):
        tr.count("rng.Rng.normal.draws", np.size(out))

    patch.set(R.Rng, "normal", tracer.wrap("rng.Rng.normal", R.Rng.normal, normal_draws))

    def checkpoint_bytes(tr, args, kwargs, out):
        tr.count("checkpoint.bytes", os.path.getsize(args[0]))

    patch.set(CK, "save_model", tracer.wrap("checkpoint.save_model", CK.save_model,
                                            checkpoint_bytes))
    patch.set(CK, "load_model", tracer.wrap("checkpoint.load_model", CK.load_model))
    for fn in ("generate", "pretrain_backbone", "pretrain_then_adapt"):
        patch.set(TK, fn, tracer.wrap(f"tasks.{fn}", getattr(TK, fn)))
    return patch
