"""CLI contract tests: exit codes, determinism, manifests, and fault injection."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from balora import bench as B
from balora import tasks, variational
from balora import verify as VF
from balora.cli import main
from balora.config import ConfigError, load_config, parse_config
from balora.model import AdaptedModel
from balora.tensor import DomainError

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


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG)
    return path


def _train(tmp_path, fast_config, name="run", extra=()):
    out = tmp_path / name
    code = main(["train", "--config", str(fast_config), "--out", str(out), *extra])
    return code, out


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

    def test_outputs_and_manifest(self, tmp_path, fast_config):
        _, out = _train(tmp_path, fast_config)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["command"] == "train"
        assert manifest["started"] <= manifest["finished"]
        for name in ("checkpoint.bin", "metrics.jsonl", "train.csv", "test.csv"):
            assert (out / name).exists()
        lines = (out / "metrics.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        for key in ("loss", "nll", "kl_normalized", "alpha_per_layer", "lr"):
            assert key in record

    def test_summary_counts_clipped_steps(self, tmp_path, fast_config, capsys):
        _, out = _train(tmp_path, fast_config)
        records = [json.loads(line) for line in
                   (out / "metrics.jsonl").read_text().splitlines()]
        clipped = sum(record["clipped"] for record in records)
        assert f"clipped {clipped}/{len(records)} -> " in capsys.readouterr().out

    @pytest.mark.parametrize("line", [
        "n_test = 0", "prior_p = 1.0",                                  # task, prior
        "rank = 0", "init_std = 0", "alpha_min = 0", "alpha_min = 2e3",  # adapter
        "lr = 0", "pretrain_batch_size = 0",                            # training
        "hidden = 0", "hidden = 12,0", "alphanet_hidden = 0",           # widths
        "adapt_layers = 3", "adapt_layers = -1"])                       # layer indices
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

    @pytest.mark.parametrize("lines", [
        "", "kl_weight = 0.3", "nll = l1",
        "task = two-moons-classification\nd_in = 2"], ids=["gaussian", "weighted", "l1", "moons"])
    def test_logged_terms_add_up_to_the_loss(self, tmp_path, lines):
        # metrics.jsonl logs the KL term that enters the loss, not a KL at
        # some other alpha.
        cfg = tmp_path / "terms.cfg"
        cfg.write_text(FAST_CONFIG + lines + "\n")
        code, out = _train(tmp_path, cfg)
        assert code == 0
        weight = parse_config(cfg.read_text())["kl_weight"]
        for line in (out / "metrics.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert record["kl_normalized"] > 0.0
            expect = record["nll"] + weight * record["kl_normalized"]
            assert abs(record["loss"] - expect) <= 1e-12

    def test_kl_weight_zero_logged_but_excluded(self, tmp_path, fast_config):
        cfg = tmp_path / "klzero.cfg"
        cfg.write_text(FAST_CONFIG + "kl_weight = 0.0\n")
        code, out = _train(tmp_path, cfg, "klzero")
        assert code == 0
        record = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
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
        for mode in ("mc", "deterministic"):
            assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--mode", mode,
                         "--mc-steps", "4", "--out", str(tmp_path / mode)]) == 0
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
        raw = ckpt.read_bytes()
        hlen = struct.unpack("<Q", raw[8:16])[0]
        header = json.loads(raw[16:16 + hlen])
        header["extra"]["config"]["d_in"] = 4
        blob = json.dumps(header).encode("utf-8")
        ckpt.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen:])
        assert main(argv) == 3
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["status"] == "error" and "d_in" in manifest["error"]

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

    def test_corrupt_checkpoint_exits_3(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage bytes that are not a checkpoint")
        code = main(["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "x")])
        assert code == 3
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["wall_s"] > 0.0 and manifest["peak_rss_mb"] > 0.0


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
        for name in ("checkpoint.bin", "metrics.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestImportBudget:
    def test_cli_import_leaves_oracle_suite_unloaded(self):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        code = ("import json, sys, balora.cli; print(json.dumps({m: m in sys.modules for m in "
                "('balora.verify', 'scipy.integrate', 'scipy.special')}))")
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        assert not loaded["balora.verify"] and not loaded["scipy.integrate"]
        # erf behind tensor.gelu stays a start-up import, paid once per process.
        assert loaded["scipy.special"]


class TestSample:
    def test_samples_written(self, tmp_path, fast_config):
        _, out = _train(tmp_path, fast_config)
        code = main(["sample", "--checkpoint", str(out / "checkpoint.bin"),
                     "--n", "8", "--out", str(tmp_path / "s")])
        assert code == 0
        payload = json.loads((tmp_path / "s" / "samples.json").read_text())
        assert len(payload["samples"]) == 8
        assert len(payload["input"]) == 4


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "0"], ["sample", "--n", "-2"], ["sample", "--input", "a,b"],
    ["sample", "--input", "nan,0,0,0"], ["bench", "--k-range", "16,abc"],
    ["bench", "--r", "0"], ["bench", "--k-range", "16,32", "--r", "40"],
    ["bench", "--reps", "0"], ["bench", "--samples", "0"]], ids=" ".join)
def test_malformed_arguments_exit_2_before_work(tmp_path, monkeypatch, capsys, argv):
    # An absent checkpoint would exit 3 and a started benchmark fails the
    # test, so exit 2 means the arguments were rejected before any work.
    monkeypatch.setattr(B, "run_bench", lambda *a, **k: pytest.fail("bench started"))
    if argv[0] == "sample":
        argv = [*argv, "--checkpoint", str(tmp_path / "absent.bin")]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["status"] == "error"


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
        expected = thread_var == "1" or B.threadpool_limits is not None
        assert json.loads((out / "slopes.json").read_text())["blas_pinned"] is expected
        assert json.loads((out / "manifest.json").read_text())["blas_pinned"] is expected


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

    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setenv("BALORA_THREADS", "1")
        assert main(["verify", "--filter", "kl_minimum"]) == 0
        monkeypatch.setenv("BALORA_THREADS", "lots")
        assert main(["verify", "--filter", "kl_minimum"]) == 2

    def test_thread_cap_says_when_it_is_ignored(self, monkeypatch, capsys):
        monkeypatch.setattr(B, "threadpool_limits", None)
        monkeypatch.setenv("BALORA_THREADS", "1")
        assert main(["verify", "--filter", "kl_minimum"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("BALORA_THREADS ignored")
        assert all(var in lines[0] for var in B.BLAS_THREAD_VARS)
        monkeypatch.setenv("BALORA_THREADS", "lots")
        assert main(["verify", "--filter", "kl_minimum"]) == 2

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
