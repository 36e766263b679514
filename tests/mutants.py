"""The mutant catalogue: faults written into ``src/balora`` by hand, each with
the tests that must fail on it, its killers.

A mutant replaces the one occurrence of its ``old`` snippet in its file with
``new``. ``tests/test_mutants.py`` (tier-1) checks only that each ``old``
still occurs exactly once, so a change that rewrites a mutated line must
update or drop its entry. Running this file does the rest::

    python tests/mutants.py [ID ...]

It first runs every killer on a temporary copy of ``src/``, where all must
pass. Then, for each mutant (or the ones named), it applies the mutant to a
fresh copy, runs its killers with ``PYTHONPATH`` set to that copy and prints
``killed`` (a killer failed) or ``survived``, then ``killed/total``. It
exits 1 unless every mutant was killed. It writes nothing in the
repository: pytest runs from the temporary directory, with no cache and no
bytecode. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # relative to src/balora
    old: str
    new: str
    killers: tuple  # pytest node ids, relative to tests/


MUTANTS = (
    Mutant("gelu-no-copysign", "tensor.py",
           "    np.copysign(g, z, out=g)\n", "",
           ("test_tensor.py::TestGeluGate::test_folded_sign_bitwise_equal_to_unfolded_formula",
            "test_tensor.py::TestGeluGate::test_bitwise_equal_to_scipy_special")),
    Mutant("gelu-sign-from-buffer", "tensor.py",
           "    np.copysign(g, z, out=g)\n", "    np.copysign(g, g, out=g)\n",
           ("test_tensor.py::TestGeluGate::test_folded_sign_bitwise_equal_to_unfolded_formula",)),
    Mutant("gelu-no-overlap-check", "tensor.py",
           "    if out is not None and np.may_share_memory(z, out):\n"
           "        raise ValueError(\"gelu_gate: out must not share memory with z\")\n", "",
           ("test_tensor.py::TestGeluGate::test_out_sharing_memory_with_z_rejected",)),
    Mutant("layer-vjp-plain-divide", "adapter.py",
           "        if sd.all():\n            inv = np.divide(1.0, sd)\n",
           "        if True:\n            inv = np.divide(1.0, sd)\n",
           ("test_adapter.py::TestAdaptedLinearKernel::test_zero_latent_variance_warns_nothing",)),
    Mutant("layer-vjp-no-halving", "adapter.py",
           "        ga *= 0.5\n", "",
           ("test_adapter.py::TestKernelsMatchReferences::test_layer_vjp",)),
    Mutant("backward-no-consumed-check", "tensor.py",
           "            if p._consumed == _SPENT:\n"
           '                raise TapeError("graph shares nodes with an already-consumed tape")\n',
           "",
           ("test_tensor.py::TestBackward::"
            "test_consumed_node_reached_only_as_a_parent_rejected",)),
    Mutant("backward-per-contribution-leaf-writes", "tensor.py",
           "            entry = pending.get(id(parent))\n",
           "            if parent._vjp is None:\n"
           "                parent.grad = pg.copy() if parent.grad is None else parent.grad + pg\n"
           "                continue\n"
           "            entry = pending.get(id(parent))\n",
           ("test_tensor.py::TestBackward::"
            "test_leaf_cotangents_are_summed_before_the_grad_it_holds",)),
    Mutant("predict-stochastic-no-int-s", "model.py",
           "        S = A.draw_count(S, 1, \"S\")\n", "        A.draw_count(S, 1, \"S\")\n",
           ("test_model.py::TestEvaluator::test_narrow_integer_draw_count",)),
    Mutant("uq-report-no-int-s", "uncertainty.py",
           "    S = draw_count(S, 2, \"S\")\n", "    draw_count(S, 2, \"S\")\n",
           ("test_uncertainty.py::TestMcPredict::test_integer_s_accepted",)),
    Mutant("draw-count-no-int", "adapter.py",
           "    return int(n)\n", "    return n\n",
           ("test_model.py::TestEvaluator::test_narrow_integer_draw_count",
            "test_uncertainty.py::TestMcPredict::test_integer_s_accepted")),
    Mutant("draw-eps-one-draw-per-layer", "model.py",
           "        flat = rng.normal(n * sum(ranks))\n        eps, lo = [], 0\n"
           "        for r in ranks:\n            eps.append(flat[lo:lo + n * r].reshape(n, r))\n"
           "            lo += n * r\n        return eps\n",
           "        return [rng.normal((n, r)) for r in ranks]\n",
           ("test_variational.py::TestStepWork::test_counts_per_adapt_step",)),
    Mutant("kl-normalized-no-clamp-check", "variational.py",
           "    checked = _in_clamp(alphas.data if isinstance(alphas, Tensor) else alphas,\n"
           "                       alpha_min, alpha_max)\n",
           "    checked = np.asarray(alphas.data if isinstance(alphas, Tensor) else alphas,\n"
           "                         dtype=np.float64)\n",
           ("test_variational.py::TestKlNormalized::test_alphas_outside_the_clamp_rejected",)),
    Mutant("elbo-step-no-label-check", "model.py",
           "            return X, class_labels(y, d)\n", "            return X, y\n",
           ("test_variational.py::TestLossNodes::test_cross_entropy_rejects_bad_labels",
            "test_model.py::TestEvaluator::test_bad_class_labels_rejected_before_any_work")),
    Mutant("class-labels-fractions-accepted", "model.py",
           '    if labels.dtype.kind == "f" and not np.array_equal(ints, labels):\n',
           "    if False:\n",
           ("test_uncertainty.py::TestEce::test_label_out_of_range",
            "test_model.py::TestEvaluator::test_bad_class_labels_rejected_before_any_work")),
    Mutant("sampler-builds-dense-covariance", "adapter.py",
           "    eps = rng.normal((layer.rank,) if n is None else (draw_count(n, 0, \"n\"), "
           "layer.rank))\n",
           "    analytic_predictive(layer, x, alpha).covariance()\n"
           "    eps = rng.normal((layer.rank,) if n is None else (draw_count(n, 0, \"n\"), "
           "layer.rank))\n",
           ("test_adapter.py::TestSamplerMemory::test_lowrank_peak_holds_no_k_by_k_array",)),
    Mutant("oracle-no-count-check", "adapter.py",
           "(draw_count(n, 0, \"n\"), layer.k)", "(int(n), layer.k)",
           ("test_uncertainty.py::TestMcPredict::test_bad_s_rejected_before_any_draw",)),
    Mutant("analytic-predictive-no-alpha-check", "adapter.py",
           "    alpha = _noise_scale(alpha)\n    base, z, q", "    base, z, q",
           ("test_adapter.py::TestAnalyticPredictive::test_nonpositive_alpha_rejected",)),
    Mutant("sample-lowrank-no-alpha-check", "adapter.py",
           "    alpha = _noise_scale(alpha)\n    eps = rng.normal(", "    eps = rng.normal(",
           ("test_adapter.py::TestLowRankSampler::test_bad_input_or_alpha_rejected",)),
    Mutant("adamw-steps-on-non-finite-norm", "variational.py",
           "        if not math.isfinite(raw_norm):\n", "        if False:\n",
           ("test_variational.py::TestAdamW::test_non_finite_gradient_raises_before_any_write",)),
    Mutant("adamw-writes-state-before-norm-check", "variational.py",
           "        raw_norm = math.sqrt(total)\n", "        raw_norm = math.sqrt(total)\n"
           "        self.t += 1\n",
           ("test_variational.py::TestAdamW::test_non_finite_gradient_raises_before_any_write",)),
    Mutant("checkpoint-trailing-bytes-accepted", "checkpoint.py",
           "    if offset != len(payload):\n", "    if False:\n",
           ("test_checkpoint.py::TestCorruption::test_trailing_bytes_rejected",)),
    Mutant("train-model-no-frozen-gradient-check", "variational.py",
           "                if any(p.grad is not None for p in frozen):\n",
           "                if False:\n",
           ("test_variational.py::TestElboStep::"
            "test_frozen_weight_that_requires_grad_fails_the_freeze_check",)),
    Mutant("batch-no-column-check", "model.py",
           "        if y.shape[1:] != (d,) and not (d == 1 and y.ndim == 1):\n",
           "        if False:\n",
           ("test_variational.py::TestElboStep::test_wrong_target_rows_rejected_before_the_forward",
            "test_uncertainty.py::TestMcPredict::test_wrong_target_rows_rejected_before_any_draw")),
    Mutant("load-model-no-kind-check", "checkpoint.py",
           "    if (\"alphanet\" in header) != (kind == \"balora\"):\n", "    if False:\n",
           ("test_checkpoint.py::TestCorruption::test_kind_and_alphanet_entry_must_agree",)),
    Mutant("sampler-input-not-a-tensor", "adapter.py",
           "    if not isinstance(x, Tensor) or x.shape != (layer.d,):\n",
           "    if x.shape != (layer.d,):\n",
           ("test_adapter.py::TestAnalyticPredictive::test_input_not_a_tensor_of_shape_d_rejected",
            "test_adapter.py::TestLowRankSampler::test_bad_input_or_alpha_rejected")),
    Mutant("class-labels-no-dtype-check", "model.py",
           "    if labels.dtype.kind not in \"iuf\":\n", "    if False:\n",
           ("test_uncertainty.py::TestEce::test_label_out_of_range",)),
)


def pytest_exit(killers, mutant: Optional[Mutant] = None) -> int:
    """pytest's exit code for ``killers`` on a temporary copy of ``src/`` with
    ``mutant`` applied, if given; -1 if its ``old`` does not occur once."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = src / "balora" / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                return -1
            path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *(str(ROOT / "tests" / killer) for killer in killers)]
        return subprocess.run(cmd, cwd=tmp, env=env, capture_output=True).returncode


def main(ids) -> int:
    chosen = [m for m in MUTANTS if not ids or m.id in ids]
    code = pytest_exit(sorted({k for m in chosen for k in m.killers}))
    if code != 0:
        print(f"the killers do not pass on the unchanged source (pytest exit {code})")
        return 1
    killed = 0
    for mutant in chosen:
        code = pytest_exit(mutant.killers, mutant)
        # pytest exits 1 when a test failed and 0 when all passed.
        outcome = {0: "survived", 1: "killed"}.get(code, f"error (exit {code})")
        killed += code == 1
        print(f"{outcome:9} {mutant.id}", flush=True)
    print(f"{killed}/{len(chosen)} killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
