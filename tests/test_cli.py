"""CLI contract tests: exit codes, determinism, manifests, and fault injection."""

import argparse
import contextlib
import dataclasses
import importlib.metadata
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from balora import BLAS_THREAD_VARS
from balora import bench as B
from balora import checkpoint as CK
from balora import commands as CM
from balora import adapter, cli, tasks, tensor, variational
from balora import config as C
from balora import verify as VF
from balora.cli import main
from balora.config import ConfigError, load_config, parse_config
from balora.model import AdaptedModel, AdapterSpec
from balora.tensor import DomainError, Tensor

FAST_CONFIG = """
task = heteroscedastic-regression
d_in = 4
d_out = 1
n_train = 96
n_val = 16
n_test = 64
hidden = 12,12
adapter = balora
rank = 2
lora_alpha = 4.0
alphanet_hidden = 6
prior_p = 0.5
kl_weight = 1.0
lr = 0.01
epochs = 3
batch_size = 32
pretrain_epochs = 4
seed = 3
"""


def _fuzz_values(key: str) -> list:
    """Values for ``key``: valid ones (its value in ``FAST_CONFIG`` or its
    default, and the choices of a choice key), the boundary -1, 0 and 1, and
    malformed ones."""
    default = parse_config(FAST_CONFIG)[key]
    choices = {"task": list(tasks.KINDS), "adapter": ["balora", "lora"]}
    if key in choices:
        return choices[key] + ["", "Balora", "1"]
    valid = ["all" if default is None else ",".join(map(str, default))
             if isinstance(default, tuple) else str(default)]
    if isinstance(default, tuple) or default is None:
        valid += ["", "0,1", "3,2"]
    return valid + ["-1", "0", "1", "x", "1.5", "nan", "inf", "1e999", "1,,2"]


@st.composite
def _fuzzed_config(draw):
    """``FAST_CONFIG`` with one epoch per phase and one to four keys set
    after it (a later line wins), and the keys set."""
    keys = draw(st.lists(st.sampled_from(sorted(C.SCHEMA)), min_size=1, max_size=4,
                         unique=True))
    lines = [f"{key} = {draw(st.sampled_from(_fuzz_values(key)))}" for key in keys]
    return FAST_CONFIG + "epochs = 1\npretrain_epochs = 1\n" + "\n".join(lines) + "\n", keys


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG)
    return path


def _train(tmp_path, fast_config, name="run", extra=()):
    out = tmp_path / name
    code = main(["train", "--config", str(fast_config), "--out", str(out), *extra])
    return code, out


def _python(args, **env_overrides) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process at the repository root, with
    ``env_overrides`` applied (None removes a variable) and the BLAS pinned
    unless overridden."""
    env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", **env_overrides}
    env = {k: v for k, v in env.items() if v is not None}
    return subprocess.run([sys.executable, *args], cwd=Path(__file__).resolve().parents[1],
                          env=env, capture_output=True, text=True, timeout=120)


def _adapt_records(out: Path) -> list:
    """The adapt-phase records of a run's ``metrics.jsonl``."""
    records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    return [record for record in records if record["phase"] == "adapt"]


def _set_stored_config(ckpt: Path, key: str, value) -> None:
    """Rewrite one entry of the config stored in a checkpoint's header."""
    raw = ckpt.read_bytes()
    hlen = struct.unpack("<Q", raw[8:16])[0]
    header = json.loads(raw[16:16 + hlen])
    header["extra"]["config"][key] = value
    blob = json.dumps(header).encode("utf-8")
    ckpt.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen:])


class TestConfig:
    def test_defaults_and_overrides(self):
        cfg = parse_config("lr = 0.5\nhidden = 8,8,8\nadapt_layers = all\n")
        assert cfg["lr"] == 0.5
        assert cfg["hidden"] == (8, 8, 8)
        assert cfg["adapt_layers"] is None
        assert cfg["epochs"] == 10  # untouched default

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config("learning_rate = 0.1\n")
        assert "learning_rate" in str(err.value)
        assert err.value.key == "learning_rate"

    def test_bad_value_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config("epochs = many\n")
        assert "epochs" in str(err.value)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nlr = 0.25  # trailing\n")
        assert cfg["lr"] == 0.25

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_retired_keys_take_only_the_value_every_run_stored(self):
        # nll and weight_decay were removed. Earlier runs stored "gaussian"
        # and 0.0, the behaviour that stayed: both parsers accept and drop
        # them, and reject any other value as retired.
        base = parse_config("")
        for text in ("nll = gaussian", "weight_decay = 0", "weight_decay = 0.0\nnll = gaussian"):
            assert parse_config(text) == base
        for stored in ({"nll": "gaussian", "weight_decay": 0.0}, {"weight_decay": 0}):
            assert C.config_from_json(stored) == base
        for key, text in (("nll", "l1"), ("nll", ""), ("weight_decay", "0.1"),
                          ("weight_decay", "x"), ("weight_decay", "nan")):
            with pytest.raises(ConfigError, match=f"{key} was retired") as err:
                parse_config(f"{key} = {text}")
            assert err.value.key == key
        for key, value in (("nll", "l1"), ("nll", None), ("weight_decay", 0.5),
                           ("weight_decay", False), ("weight_decay", "0")):
            with pytest.raises(ConfigError, match=f"{key} was retired") as err:
                C.config_from_json({key: value})
            assert err.value.key == key

    def test_every_key_feeds_a_field_or_is_read_by_name(self):
        # config._build fills fields from keys by name, so a key that is no
        # field under its dataclass's prefix would feed nothing.
        fed = {"task", "hidden", "adapter", "mc_steps"}
        for cls, prefixes in ((tasks.SyntheticTask, ("",)), (AdapterSpec, ("",)),
                              (variational.TrainConfig, ("", "pretrain_")),
                              (variational.PriorConfig, ("prior_",))):
            fed |= {p + f.name for f in dataclasses.fields(cls) for p in prefixes}
        assert set(C.SCHEMA) <= fed


class TestTrain:
    def test_deterministic_metrics(self, tmp_path, fast_config):
        code1, out1 = _train(tmp_path, fast_config, "a")
        code2, out2 = _train(tmp_path, fast_config, "b")
        assert code1 == 0 and code2 == 0
        assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()

    def test_deterministic_across_processes(self, tmp_path, fast_config):
        _, out1 = _train(tmp_path, fast_config, "inproc")
        out2 = tmp_path / "subproc"
        code = ("import sys; from balora.cli import main; "
                f"sys.exit(main(['train', '--config', r'{fast_config}', "
                f"'--out', r'{out2}']))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "no.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("learning_rate = 0.1\n")
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_retired_option_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "l1.cfg"
        cfg.write_text(FAST_CONFIG + "nll = l1\n")
        code, out = _train(tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: invalid value for nll: 'l1' (nll was retired")
        assert not (out / "checkpoint.bin").exists()

    def test_outputs_and_manifest(self, tmp_path, fast_config):
        _, out = _train(tmp_path, fast_config)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["command"] == "train"
        assert manifest["started"] <= manifest["finished"]
        assert set(manifest["thread_env"]) == {"BALORA_THREADS", *BLAS_THREAD_VARS}
        for name in ("checkpoint.bin", "metrics.jsonl", "train.csv", "test.csv"):
            assert (out / name).exists()
        record = _adapt_records(out)[0]
        for key in ("loss", "nll", "kl_normalized", "alpha_per_layer", "lr"):
            assert key in record

    def test_split_csvs_parse_back_bit_for_bit(self, tmp_path, fast_config):
        _, out = _train(tmp_path, fast_config)
        splits = tasks.generate(C.task_from_config(load_config(fast_config)),
                                shifted=True)
        for name in ("train", "val", "test"):
            split = getattr(splits, name)
            table = np.loadtxt(out / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2)
            d = split.X.shape[1]
            assert table[:, :d].tobytes() == np.ascontiguousarray(split.X).tobytes()
            assert table[:, d:].ravel().tobytes() == \
                np.asarray(split.y, dtype=np.float64).ravel().tobytes()

    def test_summary_counts_clipped_steps(self, tmp_path, fast_config, capsys):
        _, out = _train(tmp_path, fast_config)
        records = _adapt_records(out)
        clipped = sum(record["clipped"] for record in records)
        assert f"clipped {clipped}/{len(records)} -> " in capsys.readouterr().out

    @pytest.mark.parametrize("line", [
        "n_test = 0", "prior_p = 1.0",                                  # task, prior
        "rank = 0", "init_std = 0", "alpha_min = 0", "alpha_min = 2e3",  # adapter
        "lr = 0", "pretrain_batch_size = 0",                            # training
        "hidden = 0", "hidden = 12,0", "alphanet_hidden = 0",           # widths
        "adapt_layers = 3", "adapt_layers = -1", "adapt_layers = ",     # layer indices
        "init_alpha = 0", "init_alpha = 2e3", "init_alpha = 1e9",       # outside the clamp
        "lora_alpha = 0", "lora_alpha = -1",                            # inert adapters
        "noise_std = -0.1", "noise_base = -0.1", "n_classes = 1",       # task
        "noise_slope = -1", "shift_scale = -1"])                        # silent no-ops
    def test_out_of_range_value_exits_2_before_work(self, tmp_path, fast_config, line,
                                                     monkeypatch, capsys):
        monkeypatch.setattr(tasks, "pretrain_then_adapt",
                            lambda *a, **k: pytest.fail("training started"))
        cfg = tmp_path / "range.cfg"
        cfg.write_text(FAST_CONFIG + line + "\n")
        code, out = _train(tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: out-of-range")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error" and manifest["outputs"] == []

    @pytest.mark.parametrize("task", ["heteroscedastic-regression",
                                      "multiclass-gaussian-blobs"])
    def test_empty_val_split_writes_a_header_only_csv(self, tmp_path, task, capsys):
        cfg = tmp_path / "noval.cfg"
        cfg.write_text(FAST_CONFIG + f"task = {task}\nn_val = 0\n")
        code, out = _train(tmp_path, cfg)
        assert code == 0, capsys.readouterr().err
        header = ["x0", "x1", "x2", "x3", "y0"]
        assert (out / "val.csv").read_text().splitlines() == [",".join(header)]
        assert (out / "test.csv").read_text().splitlines()[0] == ",".join(header)

    def test_every_numeric_key_at_the_boundary_exits_0_or_2(self, tmp_path):
        # Every int, float and list key (those whose default is not a string)
        # at -1, 0 and 1, one at a time, on a tiny regression and a tiny
        # classification task: each run trains or is rejected as a
        # configuration error, and none raises.
        keys = [key for key, (_, default) in C.SCHEMA.items() if not isinstance(default, str)]
        bad = []
        for task in ("heteroscedastic-regression", "multiclass-gaussian-blobs"):
            base = (f"task = {task}\nd_in = 3\nhidden = 4\nalphanet_hidden = 4\n"
                    "n_train = 32\nn_val = 8\nn_test = 8\nbatch_size = 32\n"
                    "pretrain_batch_size = 32\nepochs = 1\npretrain_epochs = 1\n")
            for key in keys:
                for value in (-1, 0, 1):
                    name = f"{task[:5]}-{key}{value}"
                    cfg = tmp_path / f"{name}.cfg"
                    cfg.write_text(base + f"{key} = {value}\n")
                    try:
                        code = main(["train", "--config", str(cfg), "--out",
                                     str(tmp_path / name)])
                    except Exception as err:  # reported below, with the others
                        code = repr(err)
                    if code not in (0, 2):
                        bad.append((task, key, value, code))
        assert not bad, bad

    @settings(derandomize=True, max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text_keys=_fuzzed_config())
    def test_any_config_text_trains_or_exits_2_naming_a_key(self, text_keys):
        # A config either exits 2 before pretraining with one line naming
        # a key it set, or trains: exit 0, or exit 1 with one line for a
        # divergence (a non-finite value).
        text, keys = text_keys
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(tasks, "pretrain_then_adapt",
                                  wraps=tasks.pretrain_then_adapt) as spy, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            cfg = Path(tmp) / "fuzz.cfg"
            cfg.write_text(text)
            code = main(["train", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
        lines = err.getvalue().splitlines()
        if code == 2:
            assert not spy.called, text
            assert len(lines) == 1 and lines[0].startswith("config error: "), (text, lines)
            assert any(re.search(rf"\b{key}\b", lines[0]) for key in keys), (text, lines)
        elif code == 1:
            assert len(lines) == 1 and lines[0].startswith("verification error: ") \
                and "non-finite" in lines[0], (text, lines)
        else:
            assert code == 0 and not lines, (text, code, lines)

    def test_init_alpha_at_the_clamp_trains(self, tmp_path, capsys):
        # The AlphaNet output bias is softplus^-1(1000): log(expm1(1000)) overflows.
        cfg = tmp_path / "top.cfg"
        cfg.write_text(FAST_CONFIG + "init_alpha = 1000\n")
        code, out = _train(tmp_path, cfg)
        assert code == 0, capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["status"] == "ok"

    @pytest.mark.parametrize("line", [
        "grad_clip_norm = nan", "kl_weight = nan", "lr = nan", "lr = inf",
        "lora_alpha = nan", "noise_std = -inf"])
    def test_non_finite_value_exits_2_naming_the_key(self, tmp_path, line, monkeypatch,
                                                     capsys):
        monkeypatch.setattr(tasks, "pretrain_then_adapt",
                            lambda *a, **k: pytest.fail("training started"))
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(FAST_CONFIG + line + "\n")
        assert _train(tmp_path, cfg)[0] == 2
        key = line.split()[0]
        assert capsys.readouterr().err.startswith(f"config error: invalid value for {key}:")

    @pytest.mark.parametrize("lines,key", [
        ("mc_steps = -1", "mc_steps"), ("mc_steps = 0", "mc_steps"), ("mc_steps = 1", "mc_steps"),
        ("task = multiclass-gaussian-blobs\nd_out = 0", "d_out"),
        ("task = two-moons-classification\nd_in = 2\nd_out = -1", "d_out"),
        ("n_train = 1000\nbatch_size = 1\nepochs = 901", "n_train, epochs and batch_size"),
        ("n_train = 1000\npretrain_batch_size = 1\npretrain_epochs = 901",
         "n_train, pretrain_epochs and pretrain_batch_size")])
    def test_out_of_range_value_exits_2_before_pretraining(self, tmp_path, lines, key,
                                                           monkeypatch, capsys):
        # A run whose checkpoint eval --mode mc would reject, a d_out that a
        # classification head does not read, and a phase of more steps than
        # train_model has noise streams for fail before any work.
        monkeypatch.setattr(tasks, "pretrain_then_adapt",
                            lambda *a, **k: pytest.fail("training started"))
        cfg = tmp_path / "range.cfg"
        cfg.write_text(FAST_CONFIG + lines + "\n")
        assert _train(tmp_path, cfg)[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out-of-range config value: ") and key in err

    def test_divergence_exits_1_without_a_traceback(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(FAST_CONFIG + "lr = 1e300\n")
        code, out = _train(tmp_path, cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("verification error: non-finite loss")
        assert "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"

    def test_non_finite_gradient_exits_1(self, tmp_path, fast_config, monkeypatch, capsys):
        # A finite loss whose gradient is not: the optimizer refuses the step.
        real = tensor.backward

        def poisoned(loss):
            first = loss._parents[0]
            real(loss)
            first.grad = np.full(first.shape, np.inf)

        monkeypatch.setattr(tensor, "backward", poisoned)
        code, out = _train(tmp_path, fast_config)
        assert code == 1
        err = capsys.readouterr().err
        assert err == "verification error: non-finite gradient norm inf at optimizer step\n"
        assert json.loads((out / "manifest.json").read_text())["status"] == "error"

    def test_divergence_in_a_fresh_process_prints_one_line(self, tmp_path):
        # Outside pytest nothing captures numpy's overflow warnings, so this
        # checks that none reach stderr ahead of the error line.
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(FAST_CONFIG + "lr = 1e300\n")
        proc = _python(["-m", "balora.cli", "train", "--config", str(cfg),
                        "--out", str(tmp_path / "o")])
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "verification error: non-finite loss during ELBO step: "
            "non-finite values produced by the AlphaNet"]

    @pytest.mark.parametrize("lines", [
        "", "kl_weight = 0.3",
        "task = two-moons-classification\nd_in = 2"], ids=["gaussian", "weighted", "moons"])
    def test_logged_terms_add_up_to_the_loss(self, tmp_path, lines):
        # metrics.jsonl logs the KL term that enters the loss, not a KL at
        # some other alpha.
        cfg = tmp_path / "terms.cfg"
        cfg.write_text(FAST_CONFIG + lines + "\n")
        code, out = _train(tmp_path, cfg)
        assert code == 0
        weight = parse_config(cfg.read_text())["kl_weight"]
        for record in _adapt_records(out):
            assert record["kl_normalized"] > 0.0
            expect = record["nll"] + weight * record["kl_normalized"]
            assert abs(record["loss"] - expect) <= 1e-12

    def test_kl_weight_zero_logged_but_excluded(self, tmp_path, fast_config):
        cfg = tmp_path / "klzero.cfg"
        cfg.write_text(FAST_CONFIG + "kl_weight = 0.0\n")
        code, out = _train(tmp_path, cfg, "klzero")
        assert code == 0
        record = _adapt_records(out)[-1]
        assert record["kl_normalized"] > 0.0
        assert record["loss"] == pytest.approx(record["nll"])


class TestEval:
    def test_both_modes_and_determinism(self, tmp_path, fast_config):
        _, out = _train(tmp_path, fast_config)
        ckpt = out / "checkpoint.bin"
        det = tmp_path / "det"
        code = main(["eval", "--checkpoint", str(ckpt), "--mode", "deterministic",
                     "--out", str(det)])
        assert code == 0
        payload = json.loads((det / "eval.json").read_text())
        assert payload["mode"] == "deterministic"
        assert payload["merge_gap"] <= 1e-12
        mc1, mc2 = tmp_path / "mc1", tmp_path / "mc2"
        for out_dir in (mc1, mc2):
            code = main(["eval", "--checkpoint", str(ckpt), "--mode", "mc",
                         "--mc-steps", "16", "--csv", "--out", str(out_dir)])
            assert code == 0
        assert (mc1 / "eval.json").read_bytes() == (mc2 / "eval.json").read_bytes()
        header = (mc1 / "eval.csv").read_text().splitlines()[0]
        assert header == "id,pred,target,var_total,var_epi,var_ale,sq_error"

    @pytest.mark.parametrize("lines", ["", "task = two-moons-classification\nd_in = 2"],
                             ids=["regression", "classification"])
    def test_deterministic_excess_mse(self, tmp_path, lines):
        # Regression tasks know their true map, so the excess risk over it is
        # reported beside the MSE; classification has no such map.
        cfg = tmp_path / "excess.cfg"
        cfg.write_text(FAST_CONFIG + lines + "\n")
        _, out = _train(tmp_path, cfg)
        det = tmp_path / "det"
        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--mode", "deterministic", "--out", str(det)]) == 0
        metrics = json.loads((det / "eval.json").read_text())["metrics"]
        if lines:
            assert "excess_mse" not in metrics and "mse" not in metrics
            return
        task = C.task_from_config(parse_config(FAST_CONFIG))
        model, _ = CK.load_model(out / "checkpoint.bin")
        test = tasks.generate(task).test
        merged = model.merged_forward(test.X)
        clean = test.X @ tasks.true_map(task).T
        assert metrics["excess_mse"] == float(np.mean((merged - clean) ** 2))
        assert 0.0 < metrics["excess_mse"] < metrics["mse"]

    def test_mc_steps_below_two_exits_2(self, tmp_path, fast_config):
        _, out = _train(tmp_path, fast_config)
        code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--mode", "mc", "--mc-steps", "1", "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("flag, via_config, expected", [
        ((), False, 8), ((), True, 8), (("--mc-steps", "4"), False, 4),
        (("--mc-steps", "4"), True, 4)])
    def test_mc_steps_from_config(self, tmp_path, flag, via_config, expected):
        cfg = tmp_path / "mc8.cfg"
        cfg.write_text(FAST_CONFIG + "mc_steps = 8\n")
        _, out = _train(tmp_path, cfg)
        argv = ["eval", "--checkpoint", str(out / "checkpoint.bin"), "--mode", "mc",
                "--out", str(tmp_path / "mc"), *flag]
        if via_config:
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        report = json.loads((tmp_path / "mc" / "eval.json").read_text())
        assert report["mc_steps"] == expected

    def test_mc_steps_below_two_in_config_exits_2(self, tmp_path, fast_config):
        _, out = _train(tmp_path, fast_config)
        cfg = tmp_path / "mc1.cfg"
        cfg.write_text(FAST_CONFIG + "mc_steps = 1\n")
        code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--mode", "mc",
                     "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_single_test_row(self, tmp_path):
        # Spearman is undefined on one row: null, as for constant input.
        cfg = tmp_path / "one.cfg"
        cfg.write_text(FAST_CONFIG + "n_test = 1\n")
        _, out = _train(tmp_path, cfg)
        for mode, extra in (("mc", ["--mc-steps", "4"]), ("deterministic", [])):
            assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--mode", mode,
                         *extra, "--out", str(tmp_path / mode)]) == 0
        report = json.loads((tmp_path / "mc" / "eval.json").read_text())
        assert len(report["per_sample"]) == 1
        assert report["metrics"]["spearman_var_err"] is None

    def test_task_that_does_not_fit_the_model(self, tmp_path, fast_config):
        d6 = tmp_path / "d6.cfg"
        d6.write_text(FAST_CONFIG + "d_in = 6\n")
        _, out = _train(tmp_path, d6)
        ckpt = out / "checkpoint.bin"
        argv = ["eval", "--checkpoint", str(ckpt), "--mode", "deterministic",
                "--out", str(tmp_path / "x")]
        # A user --config whose task has d_in 4 is a configuration error.
        assert main([*argv, "--config", str(fast_config)]) == 2
        # The same disagreement in the stored config is a corrupt checkpoint.
        _set_stored_config(ckpt, "d_in", 4)
        assert main(argv) == 3
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["status"] == "error" and "d_in" in manifest["error"]

    def test_non_finite_stored_config_exits_3(self, tmp_path, fast_config):
        _, out = _train(tmp_path, fast_config)
        _set_stored_config(out / "checkpoint.bin", "lr", float("nan"))
        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--mode", "deterministic", "--out", str(tmp_path / "x")]) == 3
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert "lr" in manifest["error"]

    def test_stored_retired_keys_at_their_kept_values_change_nothing(self, tmp_path,
                                                                      fast_config):
        # Checkpoints written before nll and weight_decay were removed store
        # "gaussian" and 0.0; they evaluate as if the keys were absent.
        _, out = _train(tmp_path, fast_config)
        old = tmp_path / "old.bin"
        old.write_bytes((out / "checkpoint.bin").read_bytes())
        _set_stored_config(old, "nll", "gaussian")
        _set_stored_config(old, "weight_decay", 0.0)
        reports = []
        for ckpt in (out / "checkpoint.bin", old):
            dest = tmp_path / ckpt.stem
            for mode in ("mc", "deterministic"):
                assert main(["eval", "--checkpoint", str(ckpt), "--mode", mode,
                             "--out", str(dest / mode)]) == 0
                reports.append((dest / mode / "eval.json").read_bytes())
        assert reports[:2] == reports[2:]

    def test_stored_retired_option_exits_3(self, tmp_path, fast_config):
        # A run trained with the L1 loss never fit sigma, so its aleatoric
        # variance would be the initial one: a checkpoint that says so is refused.
        _, out = _train(tmp_path, fast_config)
        _set_stored_config(out / "checkpoint.bin", "nll", "l1")
        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--out", str(tmp_path / "x")]) == 3
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["status"] == "error" and "nll was retired" in manifest["error"]

    def test_merge_gap_keeps_error_manifest(self, tmp_path, fast_config, monkeypatch):
        _, out = _train(tmp_path, fast_config)
        merged_forward = AdaptedModel.merged_forward
        monkeypatch.setattr(AdaptedModel, "merged_forward",
                            lambda self, X: merged_forward(self, X) + 1e-6)
        code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--mode", "deterministic", "--out", str(tmp_path / "x")])
        assert code == 1
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("merge equivalence violated")
        assert manifest["outputs"] == []

    def test_nan_merge_gap_fails(self, tmp_path, fast_config, monkeypatch):
        _, out = _train(tmp_path, fast_config)
        monkeypatch.setattr(AdaptedModel, "merged_forward",
                            lambda self, X: np.full((len(X), 1), np.nan))
        code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--mode", "deterministic", "--out", str(tmp_path / "x")])
        assert code == 1
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("merge equivalence violated")

        def no_constants(name):
            raise AssertionError(f"{name} in a JSON output")

        for path in (tmp_path / "x").glob("*.json"):
            json.loads(path.read_text(), parse_constant=no_constants)

    def test_corrupt_checkpoint_exits_3(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage bytes that are not a checkpoint")
        code = main(["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "x")])
        assert code == 3
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["wall_s"] > 0.0 and manifest["peak_rss_mb"] > 0.0


class TestOptionSurface:
    """The knobs a user can turn: every config key and every flag of each
    subcommand. A change that adds or drops one updates this pin and says
    why."""

    FLAGS = {
        "train": ["--config", "--out", "--seed"],
        "eval": ["--checkpoint", "--config", "--mode", "--mc-steps", "--csv", "--out"],
        "sample": ["--checkpoint", "--n", "--input", "--seed", "--out"],
        "bench": ["--k-range", "--r", "--samples", "--reps", "--seed", "--out"],
        "verify": ["--filter", "--seed", "--out"],
    }

    DEFAULTS = {
        "task": "heteroscedastic-regression", "d_in": 6, "d_out": 1, "n_train": 512,
        "n_val": 128, "n_test": 256, "n_classes": 3, "noise_std": 0.1, "noise_base": 0.05,
        "noise_slope": 0.4, "shift_rank": 2, "shift_scale": 1.0, "seed": 0,
        "hidden": (32, 32), "adapter": "balora", "adapt_layers": None, "rank": 4,
        "lora_alpha": 8.0, "init_std": 0.02, "init_alpha": 0.05, "alphanet_hidden": (16, 16),
        "alpha_min": 1e-6, "alpha_max": 1000.0, "prior_p": 0.5, "kl_weight": 1.0,
        "lr": 0.01, "epochs": 10, "batch_size": 64, "warmup_fraction": 0.1,
        "grad_clip_norm": 1.0, "pretrain_lr": 0.01, "pretrain_epochs": 30,
        "pretrain_batch_size": 64, "mc_steps": 100}

    def test_config_keys_are_pinned(self):
        # Most defaults are read off the dataclass fields, so this pin, types
        # included, is what makes moving one a deliberate change.
        assert len(C.SCHEMA) == 34
        typed = lambda cfg: {key: (type(value), value) for key, value in cfg.items()}
        assert typed(parse_config("")) == typed(self.DEFAULTS)

    def test_subcommand_flags_are_pinned(self):
        parser = cli.build_parser()
        top = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert [a.dest for a in top] == ["command"]
        subcommands = top[0].choices
        got = {name: [opt for a in sub._actions if a.option_strings
                      and not isinstance(a, argparse._HelpAction) for opt in a.option_strings]
               for name, sub in subcommands.items()}
        assert got == self.FLAGS
        assert sum(map(len, got.values())) == 23


class TestUsageErrors:
    """Commands that would do nothing useful exit 2 before they work."""

    def test_monte_carlo_on_a_lora_checkpoint_exits_2(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "lora.cfg"
        cfg.write_text(FAST_CONFIG.replace("adapter = balora", "adapter = lora"))
        assert _train(tmp_path, cfg)[0] == 0
        ckpt = str(tmp_path / "run" / "checkpoint.bin")
        capsys.readouterr()
        monkeypatch.setattr(tasks, "generate", lambda *a, **k: pytest.fail("task generated"))
        monkeypatch.setattr(AdaptedModel, "predict_stochastic",
                            lambda *a: pytest.fail("noise drawn"))
        for argv, named in ((["eval"], "--mode mc"), (["sample"], "sample")):
            out = tmp_path / argv[0]
            assert main([*argv, "--checkpoint", ckpt, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and named in err and "lora" in err
            assert json.loads((out / "manifest.json").read_text())["status"] == "error"

    @pytest.mark.parametrize("flag", [["--csv"], ["--mc-steps", "4"]], ids=" ".join)
    def test_deterministic_eval_rejects_mc_flags(self, tmp_path, capsys, flag):
        # An absent checkpoint would exit 3, so exit 2 means it was not read.
        argv = ["eval", "--checkpoint", str(tmp_path / "absent.bin"), "--mode",
                "deterministic", *flag, "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and flag[0] in err

    def test_verify_filter_matching_nothing_exits_2(self, tmp_path, capsys):
        assert main(["verify", "--filter", "zzz", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert all(s in err for s in ("'zzz'", *(n for n, _, _ in VF.ORACLES), "gradient"))
        assert not (tmp_path / "verify.json").exists()
        assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "error"

    def test_manifest_records_the_clipped_shift_rank(self, tmp_path):
        cfg = tmp_path / "hetero.cfg"
        toy = Path(__file__).resolve().parents[1] / "configs" / "toy_hetero.cfg"
        cfg.write_text(toy.read_text() + "shift_rank = 99\n")
        code, out = _train(tmp_path, cfg)
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["shift_rank"] == 1

    @pytest.mark.parametrize("lines,width", [
        ("", 1), ("task = multiclass-gaussian-blobs\nn_classes = 4\nd_out = 7", 4),
        ("task = two-moons-classification\nd_in = 2", 2)], ids=["hetero", "blobs", "moons"])
    def test_manifest_records_the_output_width_used(self, tmp_path, lines, width):
        cfg = tmp_path / "width.cfg"
        cfg.write_text(FAST_CONFIG + lines + "\n")
        code, out = _train(tmp_path, cfg)
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["output_dim"] == width

    def test_manifest_records_the_clipped_adapter_ranks(self, tmp_path):
        # Each adapter's rank is min(rank, d, k) of its layer: 6 -> 32 -> 32 -> 1.
        cfg = tmp_path / "hetero.cfg"
        toy = Path(__file__).resolve().parents[1] / "configs" / "toy_hetero.cfg"
        cfg.write_text(toy.read_text() + "rank = 99\n")
        code, out = _train(tmp_path, cfg)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["adapter_ranks"] == {"0": 6, "1": 32, "2": 1}


class TestTrainManifest:
    """The toy config's train manifest: parameter counts and phase timings."""

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("toy")
        config = Path(__file__).resolve().parents[1] / "configs" / "toy_hetero.cfg"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text()), load_config(config)

    def test_trainable_params(self, manifest):
        # Adapters: 6->32, 32->32 at rank 4 and 32->1 at rank 1 (24+128,
        # 128+128, 32+1); AlphaNet 6->16->3 (96+16, 48+3); one log_sigma.
        assert manifest[0]["trainable_params"] == {
            "balora": {"adapters": 441, "alphanet": 163, "log_sigma": 1, "total": 605},
            "lora": {"adapters": 441, "alphanet": 0, "log_sigma": 1, "total": 442}}

    def test_phase_steps(self, manifest):
        phases, cfg = manifest
        phases = phases["phases"]
        for phase, epochs, batch in (("pretrain", "pretrain_epochs", "pretrain_batch_size"),
                                     ("adapt", "epochs", "batch_size")):
            steps = cfg[epochs] * math.ceil(cfg["n_train"] / cfg[batch])
            assert phases[phase]["steps"] == steps
            assert phases[phase]["wall_s"] > 0
            assert phases[phase]["steps_per_s"] == steps / phases[phase]["wall_s"]

    def test_metrics_log_both_phases(self, manifest):
        # 25 pretraining epochs, then 15 adapting ones, of 512 rows in batches of 64.
        path = next(p for p in manifest[0]["outputs"] if p.endswith("metrics.jsonl"))
        records = [json.loads(line) for line in Path(path).read_text().splitlines()]
        assert [r["phase"] for r in records] == ["pretrain"] * 200 + ["adapt"] * 120
        assert [r["step"] for r in records] == [*range(200), *range(120)]
        assert manifest[0]["phases"]["pretrain"]["steps"] == 200
        assert manifest[0]["phases"]["adapt"]["steps"] == 120
        # Each phase's clipped count is its records' sum; clipping engages
        # on almost every step of both phases of the toy config.
        for phase, clipped in (("pretrain", 187), ("adapt", 107)):
            assert manifest[0]["phases"][phase]["clipped"] == clipped == sum(
                r["clipped"] for r in records if r["phase"] == phase)


class TestManifestTiming:
    def test_wall_and_peak_rss_recorded(self, tmp_path, fast_config):
        _, out1 = _train(tmp_path, fast_config, "a")
        _, out2 = _train(tmp_path, fast_config, "b")
        ckpt = str(out1 / "checkpoint.bin")
        commands = {"det": ["eval", "--checkpoint", ckpt, "--mode", "deterministic"],
                    "mc": ["eval", "--checkpoint", ckpt, "--mc-steps", "4"],
                    "sample": ["sample", "--checkpoint", ckpt, "--n", "2"],
                    "verify": ["verify", "--filter", "merge"]}
        for name, argv in commands.items():
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
        for run in (out1, out2, *(tmp_path / name for name in commands)):
            manifest = json.loads((run / "manifest.json").read_text())
            assert manifest["wall_s"] > 0.0
            assert manifest["peak_rss_mb"] > 0.0
            assert manifest["threads"] >= 1
        for name in ("checkpoint.bin", "metrics.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestImportBudget:
    TRACKED = ("balora.verify", "scipy.integrate", "scipy.special",
               "scipy.special._special_ufuncs", "scipy._lib._array_api", "scipy",
               "importlib.metadata", "numpy")

    @classmethod
    def _loaded(cls, code: str, tmp_path) -> dict:
        """Run ``code`` in a fresh process with ``OUT`` bound to a scratch
        directory; report which of the lazily imported modules it loaded."""
        code = (f"import json, sys; OUT = {str(tmp_path / 'out')!r}\n{code}\n"
                f"print(json.dumps({{m: m in sys.modules for m in {cls.TRACKED!r}}}))")
        proc = _python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_cli_import_leaves_oracle_suite_unloaded(self, tmp_path):
        # The oracle suite loads in `verify`, erf at the first GELU.
        assert not any(self._loaded("import balora.cli", tmp_path).values())

    def test_parser_exits_leave_numpy_unloaded(self, tmp_path):
        # --help and usage errors end in argparse, before the commands load.
        assert not self._loaded("import balora", tmp_path)["numpy"]
        for argv, code in ((["--help"], 0), (["train", "--help"], 0), (["train"], 2)):
            loaded = self._loaded(
                "from balora.cli import main\n"
                "try:\n"
                f"    main({argv!r})\n"
                "    raise AssertionError('argparse did not exit')\n"
                "except SystemExit as exit:\n"
                f"    assert exit.code == {code}, exit.code\n", tmp_path)
            assert not loaded["numpy"], argv

    def test_package_exports_resolve(self):
        import balora
        from balora import rng
        assert (balora.Rng, balora.Tensor, balora.backward) == (
            rng.Rng, tensor.Tensor, tensor.backward)
        with pytest.raises(AttributeError, match="no attribute 'tape'"):
            balora.tape

    def test_bench_never_loads_scipy_special(self, tmp_path):
        loaded = self._loaded(
            "from balora.cli import main\n"
            "assert main(['bench', '--k-range', '16,32', '--r', '2', '--samples', '8', "
            "'--reps', '1', '--out', OUT]) == 0", tmp_path)
        assert not loaded["scipy.special"]

    def test_first_gelu_loads_only_the_erf_extension(self, tmp_path):
        loaded = self._loaded(
            "import numpy as np; from balora import tensor as T\n"
            "assert 'scipy.special._special_ufuncs' not in sys.modules\n"
            "T.gelu(T.Tensor(np.zeros(3)))", tmp_path)
        assert loaded["scipy.special._special_ufuncs"]
        assert not loaded["scipy.special"] and not loaded["scipy._lib._array_api"]

    def test_commands_never_load_scipy_special(self, tmp_path, fast_config):
        # Each command in a fresh process of its own, as a user runs them.
        ckpt = str(tmp_path / "run0" / "checkpoint.bin")
        commands = [["train", "--config", str(fast_config)],
                    ["eval", "--checkpoint", ckpt, "--mode", "mc", "--mc-steps", "4"],
                    ["eval", "--checkpoint", ckpt, "--mode", "deterministic"],
                    ["sample", "--checkpoint", ckpt, "--n", "4"]]
        for i, argv in enumerate(commands):
            out = tmp_path / f"run{i}"
            loaded = self._loaded(
                "from balora.cli import main\n"
                f"assert main({[*argv, '--out', str(out)]!r}) == 0", tmp_path)
            assert loaded["scipy.special._special_ufuncs"], argv
            assert not loaded["scipy.special"] and not loaded["scipy._lib._array_api"], argv
            # The manifest's scipy version is read from scipy's version.py.
            assert not loaded["scipy"] and not loaded["importlib.metadata"], argv
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["erf_module"] == "scipy.special._special_ufuncs"
            assert manifest["versions"]["scipy"] == importlib.metadata.version("scipy")

    def test_scipy_version_sources(self, monkeypatch, tmp_path):
        # A loaded scipy answers itself; else its version.py; else, where
        # that file is missing, the installed metadata.
        monkeypatch.setitem(sys.modules, "scipy", types.SimpleNamespace(__version__="9.8"))
        assert CM._scipy_version() == "9.8"
        monkeypatch.delitem(sys.modules, "scipy")
        monkeypatch.setattr(CM.importlib.util, "find_spec", lambda name: types.SimpleNamespace(
            submodule_search_locations=[str(tmp_path)]))
        assert CM._scipy_version() == importlib.metadata.version("scipy")
        (tmp_path / "version.py").write_text('"""x"""\nversion = "1.2.3.dev0"\nfull = version\n')
        assert CM._scipy_version() == "1.2.3.dev0"

    def test_later_scipy_special_import_shares_the_ufunc(self, tmp_path):
        loaded = self._loaded(
            "import numpy as np; from balora import tensor as T\n"
            "T.gelu_gate(np.zeros(1))\n"
            "import scipy.special\n"
            "assert scipy.special.erf is T._erf\n"
            "assert sys.modules['scipy.special._special_ufuncs'].erf is T._erf", tmp_path)
        assert loaded["scipy.special"]

    def test_concurrent_first_gelus_load_erf_once(self, tmp_path):
        # Eight threads take their first GELU at once, switching as often
        # as the interpreter allows; the extension must load exactly once.
        code = """
import importlib.util, threading
import numpy as np
from balora import tensor as T
loads = []
real = importlib.util.spec_from_file_location
def counted(*args, **kwargs):
    loads.append(args[0])
    return real(*args, **kwargs)
importlib.util.spec_from_file_location = counted
z = np.linspace(-5.0, 5.0, 4096)
results = [None] * 8
start = threading.Barrier(8, timeout=60)
def first_gelu(i):
    start.wait()
    results[i] = T.gelu_gate(z).tobytes()
before = threading.active_count()
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=first_gelu, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
assert not any(t.is_alive() for t in threads)
assert loads == ['scipy.special._special_ufuncs'], loads
assert len(set(results)) == 1 and None not in results
assert threading.active_count() == before
"""
        loaded = self._loaded(code, tmp_path)
        assert loaded["scipy.special._special_ufuncs"] and not loaded["scipy.special"]


class TestManifestEnvironment:
    def test_versions_recorded(self, tmp_path, fast_config):
        import platform

        import scipy
        _, out = _train(tmp_path, fast_config)
        versions = json.loads((out / "manifest.json").read_text())["versions"]
        assert versions["python"] == platform.python_version()
        assert versions["numpy"] == np.__version__
        assert versions["scipy"] == scipy.__version__
        assert versions["blas"]

    def test_erf_module_null_without_a_gelu(self, tmp_path):
        # bench and an exit-2 path run no GELU in a fresh process.
        code = (
            "from balora.cli import main\n"
            "assert main(['bench', '--k-range', '16,32', '--r', '2', '--samples', '8', "
            "'--reps', '1', '--out', OUT]) == 0\n"
            "assert main(['sample', '--n', '0', '--checkpoint', 'absent.bin', "
            "'--out', OUT + '2']) == 2")
        loaded = TestImportBudget._loaded(code, tmp_path)
        assert not loaded["scipy.special"]
        for out in (tmp_path / "out", tmp_path / "out2"):
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["erf_module"] is None
            assert set(manifest["versions"]) == {"python", "numpy", "scipy", "blas"}


class TestSample:
    def test_samples_written(self, tmp_path, fast_config):
        _, out = _train(tmp_path, fast_config)
        code = main(["sample", "--checkpoint", str(out / "checkpoint.bin"),
                     "--n", "8", "--out", str(tmp_path / "s")])
        assert code == 0
        payload = json.loads((tmp_path / "s" / "samples.json").read_text())
        assert len(payload["samples"]) == 8
        assert len(payload["input"]) == 4
        assert json.loads((tmp_path / "s" / "manifest.json").read_text())["mc_workers"] == 1


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "0"], ["sample", "--n", "-2"], ["sample", "--input", "a,b"],
    ["sample", "--input", "nan,0,0,0"], ["sample", "--input", ""],
    ["bench", "--k-range", "16,abc"],
    ["bench", "--r", "0"], ["bench", "--k-range", "16,32", "--r", "40"],
    ["bench", "--reps", "0"], ["bench", "--samples", "0"], ["bench", "--k-range", "16"],
    ["bench", "--k-range", "16,16"]], ids=" ".join)
def test_malformed_arguments_exit_2_before_work(tmp_path, monkeypatch, capsys, argv):
    # An absent checkpoint would exit 3 and a started benchmark fails the
    # test, so exit 2 means the arguments were rejected before any work.
    monkeypatch.setattr(B, "run_bench", lambda *a, **k: pytest.fail("bench started"))
    if argv[0] == "sample":
        argv = [*argv, "--checkpoint", str(tmp_path / "absent.bin")]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["status"] == "error"


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A small trained checkpoint, an absent one, a config that fits it and
    one that does not (d_in 6)."""
    root = tmp_path_factory.mktemp("fuzz")
    fit, misfit = root / "fit.cfg", root / "misfit.cfg"
    fit.write_text(FAST_CONFIG + "epochs = 1\npretrain_epochs = 1\n")
    misfit.write_text(FAST_CONFIG + "d_in = 6\n")
    assert main(["train", "--config", str(fit), "--out", str(root / "run")]) == 0
    return {"ckpt": root / "run" / "checkpoint.bin", "absent": root / "absent.bin",
            "fit": fit, "misfit": misfit}


_SMALL = st.integers(-2, 64)
_SEED = st.integers(-2 ** 65, 2 ** 65)
_JUNK = st.sampled_from(["", "x", "1,,2", "nan", "inf", "1e999", "1.5"])
_K_RANGE = st.one_of(_JUNK, st.lists(st.integers(-2, 256), min_size=1, max_size=4)
                     .map(lambda ks: ",".join(map(str, ks))))
_INPUT = st.one_of(_JUNK, st.lists(st.floats(), min_size=3, max_size=5)
                   .map(lambda xs: ",".join(map(repr, xs))))
_CKPT = st.sampled_from(["{ckpt}", "{absent}"])
# Per command, the flags always given and the optional ones. bench always
# gets its sizes, because its defaults time up to k = 2048 and 4096 draws.
_CLI_FLAGS = {
    "eval": ({"checkpoint": _CKPT},
             {"mode": st.sampled_from(["mc", "deterministic"]), "mc-steps": _SMALL,
              "config": st.sampled_from(["{fit}", "{misfit}"])}),
    "sample": ({"checkpoint": _CKPT}, {"n": _SMALL, "seed": _SEED, "input": _INPUT}),
    "bench": ({"k-range": _K_RANGE, "samples": _SMALL, "reps": _SMALL},
              {"r": st.integers(-2, 70), "seed": _SEED}),
}


@st.composite
def _fuzzed_cli_args(draw):
    """A command of ``eval``, ``sample`` or ``bench`` and its ``--flag=value``
    arguments, every size at most 64 and every k at most 256; ``{name}``
    stands for a path of ``fuzz_files``."""
    command = draw(st.sampled_from(sorted(_CLI_FLAGS)))
    always, optional = _CLI_FLAGS[command]
    flags = {**always, **{name: values for name, values in optional.items()
                          if draw(st.booleans())}}
    argv = [command] + [f"--{name}={draw(values)}" for name, values in flags.items()]
    return argv + (["--csv"] if command == "eval" and draw(st.booleans()) else [])


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_fuzzed_cli_args())
@example(argv=["sample", "--checkpoint={ckpt}", "--input=1e200,1e200,0,0"])
@example(argv=["eval", "--checkpoint={ckpt}", "--config={misfit}"])
def test_any_cli_arguments_run_or_exit_2_naming_a_flag(fuzz_files, argv):
    # Exit 0; or exit 2 with one line naming a flag it was given; or exit 3
    # with one line for the absent checkpoint. Never a traceback. The
    # examples are defects found while writing it, each now mended.
    argv = [arg.format(**fuzz_files) for arg in argv]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, "--out", tmp])
    lines = err.getvalue().splitlines()
    # bench checks its default --r against --k-range too.
    flags = [arg.split("=")[0] for arg in argv[1:]] + (["--r"] if argv[0] == "bench" else [])
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("config error: "), (argv, lines)
        assert any(flag in lines[0] for flag in flags), (argv, lines)
    elif code == 3:
        assert len(lines) == 1 and lines[0].startswith("checkpoint error: ") \
            and str(fuzz_files["absent"]) in lines[0], (argv, lines)
    else:
        assert code == 0 and not lines, (argv, code, lines)


class TestBench:
    def test_csv_schema_and_slopes(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--k-range", "16,32,64", "--r", "2",
                     "--samples", "32", "--reps", "2", "--out", str(out)])
        assert code == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "k,r,method,median_ns,p10_ns,p90_ns"
        assert len(lines) == 1 + 3 * 2
        slopes = json.loads((out / "slopes.json").read_text())
        assert set(slopes) == {"lowrank", "full_cov", "blas_pinned"}

    @pytest.mark.parametrize("thread_var", [None, "1", "2"])
    def test_pinning_is_reported(self, tmp_path, monkeypatch, thread_var):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            if thread_var is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, thread_var)
        out = tmp_path / "bench"
        assert main(["bench", "--k-range", "16,32", "--r", "2", "--samples", "8",
                     "--reps", "1", "--out", str(out)]) == 0
        expected = thread_var == "1"
        assert json.loads((out / "slopes.json").read_text())["blas_pinned"] is expected
        assert json.loads((out / "manifest.json").read_text())["blas_pinned"] is expected

    def test_unfitted_dense_arm_is_null_and_named(self, tmp_path, capsys):
        # The dense arm skips every k above DENSE_MAX_K, so it times one k here.
        out = tmp_path / "bench"
        assert main(["bench", "--k-range", f"16,{B.DENSE_MAX_K + 1}", "--r", "2",
                     "--samples", "8", "--reps", "1", "--out", str(out)]) == 0
        slopes = json.loads((out / "slopes.json").read_text())
        assert slopes["full_cov"] is None and isinstance(slopes["lowrank"], float)
        methods = [line.split(",")[2] for line in
                   (out / "bench.csv").read_text().splitlines()[1:]]
        assert methods == ["lowrank", "lowrank", "full_cov"]
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "not fitted" in line] == [
            f"full_cov: not fitted: fewer than two distinct --k-range values "
            f"<= {B.DENSE_MAX_K}, the largest k this arm times"]


class TestThreads:
    def test_threads_not_in_effect_exit_2(self, monkeypatch, capsys):
        # numpy is already loaded here, so BALORA_THREADS holds only where
        # the BLAS thread variables already equal it.
        for var in BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
        monkeypatch.setenv("BALORA_THREADS", "1")
        assert main(["verify", "--filter", "kl_minimum"]) == 0
        for raw in ("2", "lots", "0"):
            monkeypatch.setenv("BALORA_THREADS", raw)
            assert main(["verify", "--filter", "kl_minimum"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: BALORA_THREADS")
            assert all(var in err for var in BLAS_THREAD_VARS)

    def test_balora_threads_pins_a_fresh_process(self, tmp_path):
        out = tmp_path / "bench"
        proc = _python(["-m", "balora.cli", "bench", "--k-range", "16,32", "--r", "2",
                        "--samples", "8", "--reps", "1", "--out", str(out)],
                       BALORA_THREADS="1", **dict.fromkeys(BLAS_THREAD_VARS))
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "slopes.json").read_text())["blas_pinned"] is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["thread_env"] == {var: "1" for var in
                                          ("BALORA_THREADS", *BLAS_THREAD_VARS)}

    def test_manifest_records_one_thread_under_balora_threads_1(self, tmp_path, fast_config):
        out = tmp_path / "train"
        proc = _python(["-m", "balora.cli", "train", "--config", str(fast_config),
                        "--out", str(out)],
                       BALORA_THREADS="1", **dict.fromkeys(BLAS_THREAD_VARS))
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "manifest.json").read_text())["threads"] == 1

    def test_mc_eval_joins_its_workers_under_balora_threads_1(self, tmp_path):
        # Pinned BLAS lets the evaluator run a model this wide on every
        # allowed CPU; its threads are gone by the time the manifest counts them.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(FAST_CONFIG + "hidden = 128,128\n")
        _, run = _train(tmp_path, cfg)
        out = tmp_path / "eval"
        proc = _python(["-m", "balora.cli", "eval", "--checkpoint",
                        str(run / "checkpoint.bin"), "--out", str(out)],
                       BALORA_THREADS="1", **dict.fromkeys(BLAS_THREAD_VARS))
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == 1
        assert manifest["mc_workers"] >= 1
        assert manifest["draws_per_s"] > 0

    def test_thread_count_is_null_where_unreadable(self, monkeypatch):
        def unreadable(*args, **kwargs):
            raise FileNotFoundError("/proc/self/status")
        monkeypatch.setattr(CM, "open", unreadable, raising=False)
        assert CM._os_threads() is None


class TestVerify:
    def test_filter_runs_subset(self, tmp_path, capsys):
        code = main(["verify", "--filter", "merge", "--out", str(tmp_path / "v")])
        assert code == 0
        results = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert [r["name"] for r in results] == ["merge_equivalence"]

    def test_covariance_filter(self, capsys):
        code = main(["verify", "--filter", "covariance"])
        assert code == 0
        out = capsys.readouterr().out
        assert "covariance_mc_match" in out
        assert "sampler_equivalence" in out
        assert "merge_equivalence" not in out

    def test_full_suite_passes_within_budget(self, tmp_path):
        import time
        t0 = time.perf_counter()
        code = main(["verify", "--out", str(tmp_path / "full")])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 300.0
        results = json.loads((tmp_path / "full" / "verify.json").read_text())
        assert all(r["passed"] for r in results)
        assert len(results) == 9
        assert VF.DEFAULT_SEED == 20250801
        assert {r["seed"] for r in results} == {VF.DEFAULT_SEED}
        manifest = json.loads((tmp_path / "full" / "manifest.json").read_text())
        assert manifest["seed"] == VF.DEFAULT_SEED

    def test_explicit_seed_recorded(self, tmp_path):
        assert main(["verify", "--filter", "merge", "--seed", "5",
                     "--out", str(tmp_path / "v")]) == 0
        results = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert [r["seed"] for r in results] == [5]
        assert json.loads((tmp_path / "v" / "manifest.json").read_text())["seed"] == 5

    @pytest.mark.parametrize("outcome", ["raises", "fails"])
    def test_manifest_finished_when_an_oracle_goes_wrong(self, tmp_path, monkeypatch,
                                                          outcome):
        def oracle(seed):
            if outcome == "raises":
                raise DomainError("injected")
            return VF.OracleResult("injected", "kl", False, 1.0, 0.0)

        monkeypatch.setattr(VF, "ORACLES", (("injected", "kl", oracle),))
        assert main(["verify", "--out", str(tmp_path / "v")]) == 1
        manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
        assert manifest["status"] == ("error" if outcome == "raises" else "failed")
        assert manifest["finished"] is not None

    def test_sign_flip_in_kl_caught(self, monkeypatch, capsys):
        real = variational.kl_per_entry

        def flipped(alpha, p, alpha_min=1e-6, alpha_max=1e3):
            value = real(alpha, p, alpha_min, alpha_max)
            return -value

        monkeypatch.setattr(variational, "kl_per_entry", flipped)
        code = main(["verify", "--filter", "kl_vs_quadrature"])
        assert code == 1
        captured = capsys.readouterr()
        assert "kl_vs_quadrature" in captured.err

    @pytest.mark.parametrize("fault, failing", [
        ("inflated", "covariance_mc_match, sampler_equivalence"),
        ("off_span", "subspace_confinement, nullspace_zero_variance")])
    def test_sampler_fault_caught(self, monkeypatch, capsys, fault, failing):
        # Acceptance criteria 1, 2 and 6 call these oracles, so each fault
        # fails those criteria too.
        real = adapter.sample_lowrank

        def faulty(layer, x, alpha, rng, n=None):
            draws = real(layer, x, alpha, rng, n=n).data
            if fault == "off_span":  # off the span of WB almost surely
                return Tensor(draws + 1e-6)
            mean = adapter.adapted_kernel(layer, x.data)
            return Tensor(mean + 1.05 * (draws - mean))  # noise 5% too wide

        monkeypatch.setattr(adapter, "sample_lowrank", faulty)
        assert main(["verify"]) == 1
        assert capsys.readouterr().err == f"failed oracles: {failing}\n"

    @pytest.mark.parametrize("fault", ["kl_vjp", "layer_vjp_gwa"])
    def test_gradient_fault_caught(self, monkeypatch, capsys, fault):
        # A 1% error in one cotangent, of the KL or of an adapter's WA.
        # Acceptance criterion 4 calls this oracle, so each fault fails it too.
        if fault == "kl_vjp":
            real_kl = variational._kl

            def faulty_kl(*args):
                value, vjp = real_kl(*args)
                return value, lambda g: tuple(c * 1.01 for c in vjp(g))

            monkeypatch.setattr(variational, "_kl", faulty_kl)
        else:
            real_vjp = adapter.layer_vjp

            def faulty_vjp(*args, **kwargs):
                gx, gwa, gwb, ga = real_vjp(*args, **kwargs)
                return gx, None if gwa is None else gwa * 1.01, gwb, ga

            monkeypatch.setattr(adapter, "layer_vjp", faulty_vjp)
        assert main(["verify"]) == 1
        assert capsys.readouterr().err == "failed oracles: gradient_finite_difference\n"


class TestAtomicWrites:
    """Every artifact goes to a temporary file beside it, then one
    ``os.replace``: a failed write leaves the old file and no temporary."""

    @pytest.mark.parametrize("mode", ["w", "wb"])
    def test_failed_write_keeps_the_old_bytes(self, tmp_path, mode):
        path = tmp_path / "artifact"
        path.write_bytes(b"old bytes\n")
        chunk = "half" if mode == "w" else b"half"
        with pytest.raises(OSError, match="disk full"):
            with CK.atomic_open(path, mode) as fh:
                fh.write(chunk)
                fh.flush()
                raise OSError("disk full")
        assert path.read_bytes() == b"old bytes\n"
        assert os.listdir(tmp_path) == ["artifact"]
        with CK.atomic_open(path, mode) as fh:
            fh.write(chunk)
        assert path.read_bytes() == b"half"
        assert os.listdir(tmp_path) == ["artifact"]

    def test_every_artifact_is_written_atomically(self, tmp_path, fast_config, monkeypatch):
        written = []
        atomic_open = CK.atomic_open

        def spy(path, *args, **kwargs):
            written.append(Path(path))
            return atomic_open(path, *args, **kwargs)

        monkeypatch.setattr(CK, "atomic_open", spy)
        code, run = _train(tmp_path, fast_config)
        ckpt = str(run / "checkpoint.bin")
        commands = [["eval", "--checkpoint", ckpt, "--mode", "mc", "--mc-steps", "4", "--csv"],
                    ["eval", "--checkpoint", ckpt, "--mode", "deterministic"],
                    ["sample", "--checkpoint", ckpt, "--n", "4"],
                    ["bench", "--k-range", "16,32", "--r", "2", "--samples", "8", "--reps", "1"],
                    ["verify", "--filter", "merge"]]
        outs = [run]
        for i, argv in enumerate(commands):
            outs.append(tmp_path / f"out{i}")
            code = max(code, main([*argv, "--out", str(outs[-1])]))
        assert code == 0
        files = {p for out in outs for p in out.iterdir()}
        assert len(files) == 18
        assert files == set(written)
        # Each manifest lists exactly the other files of its directory, once.
        for out in outs:
            outputs = json.loads((out / "manifest.json").read_text())["outputs"]
            assert sorted(outputs) == sorted(str(p) for p in out.iterdir()
                                             if p.name != "manifest.json")

    def test_failed_checkpoint_write_keeps_the_old_checkpoint(self, tmp_path, fast_config,
                                                              monkeypatch):
        code, run = _train(tmp_path, fast_config)
        assert code == 0
        before = {p.name: p.read_bytes() for p in run.iterdir() if p.name != "manifest.json"}

        def no_room(*args):
            raise OSError("No space left on device")

        # The checkpoint's magic is written, then its header length fails.
        monkeypatch.setattr(CK, "struct", types.SimpleNamespace(pack=no_room))
        code, _ = _train(tmp_path, fast_config)
        assert code == 3
        after = {p.name: p.read_bytes() for p in run.iterdir() if p.name != "manifest.json"}
        assert after == before
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["status"] == "error" and "No space" in manifest["error"]
