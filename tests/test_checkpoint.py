"""Round-trip and corruption checks for the binary/JSON checkpoint format."""

import contextlib
import copy
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from balora import checkpoint as CK
from balora import tasks as TK
from balora import uncertainty as U
from balora.cli import main
from balora.model import AdaptedModel
from balora.rng import Rng
from balora.verify import _tiny_model


def _saved(tmp_path, seed: int):
    model, X, _ = _tiny_model(seed)
    path = tmp_path / "model.bin"
    CK.save_model(path, model)
    return model, X, path


class TestLayerRoundTrip:
    """Adapted layers are stored inside model checkpoints."""

    def test_exact_bits_preserved(self, tmp_path):
        model, _, path = _saved(tmp_path, 1)
        loaded, _ = CK.load_model(path)
        assert loaded.adapters.keys() == model.adapters.keys()
        for i, layer in model.adapters.items():
            got = loaded.adapters[i]
            for name in ("W0", "WA", "WB"):
                assert np.array_equal(getattr(got, name).data, getattr(layer, name).data)
            assert (got.rank, got.lora_scale) == (layer.rank, layer.lora_scale)
        pairs = [(loaded.backbone, model.backbone), (loaded.alphanet, model.alphanet)]
        for new, old in pairs:
            for t_new, t_old in zip(new.weights + new.biases, old.weights + old.biases):
                assert np.array_equal(t_new.data, t_old.data)
        assert np.array_equal(loaded.log_sigma.data, model.log_sigma.data)

    def test_header_carries_declared_keys(self, tmp_path):
        _, _, path = _saved(tmp_path, 2)
        header, _ = _split(path.read_bytes())
        assert len(header["adapters"]) == 2
        for entry in header["adapters"].values():
            assert set(entry) == {"d", "k", "r", "lora_scale"}

    def test_arrays_are_little_endian_float64(self, tmp_path):
        model, _, path = _saved(tmp_path, 3)
        header, payload = _split(path.read_bytes())
        assert header["arrays"][0] == {"name": "backbone.w0", "shape": [5, 3]}
        w0 = np.frombuffer(payload[:15 * 8], dtype="<f8").reshape(5, 3)
        assert np.array_equal(w0, model.backbone.weights[0].data)

    def test_dropped_adapter_keys_still_load(self, tmp_path):
        # Older headers carried a clamp and a seed per adapter entry.
        model, X, path = _saved(tmp_path, 4)
        header, payload = _split(path.read_bytes())
        for entry in header["adapters"].values():
            entry.update(alpha_min=1e-6, alpha_max=1e3, seed=4)
        path.write_bytes(_join(header, payload))
        loaded, _ = CK.load_model(path)
        assert np.array_equal(loaded.predict(X), model.predict(X))


class TestModelRoundTrip:
    def test_predictions_survive_round_trip(self, tmp_path):
        model, X, y = _tiny_model(4)
        path = tmp_path / "model.bin"
        CK.save_model(path, model, extra={"note": "test"})
        loaded, extra = CK.load_model(path)
        assert extra == {"note": "test"}
        assert np.array_equal(loaded.predict(X), model.predict(X))
        r1 = U.uq_report(model, X, y, 16, Rng(5))
        r2 = U.uq_report(loaded, X, y, 16, Rng(5))
        assert r1.to_json() == r2.to_json()

    def test_trainables_are_trainable_after_load(self, tmp_path):
        model, X, y = _tiny_model(6)
        path = tmp_path / "model.bin"
        CK.save_model(path, model)
        loaded, _ = CK.load_model(path)
        assert all(p.requires_grad for p in loaded.trainables())
        assert loaded.backbone.frozen

    def test_loading_draws_nothing(self, tmp_path, monkeypatch):
        # The backbone is built from the stored arrays: no generator, no draw.
        _, _, path = _saved(tmp_path, 7)
        built, drawn = [], []
        philox, normal = np.random.Philox, Rng.normal

        def counted_philox(*args, **kwargs):
            built.append(kwargs.get("key"))
            return philox(*args, **kwargs)

        def counted_normal(self, *args, **kwargs):
            drawn.append(args)
            return normal(self, *args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted_philox)
        monkeypatch.setattr(Rng, "normal", counted_normal)
        loaded, _ = CK.load_model(path)
        assert built == [] and drawn == []
        assert loaded.backbone.frozen and not any(p.requires_grad
                                                  for p in loaded.backbone.parameters())


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTBALOR" + b"\x00" * 64)
        with pytest.raises(CK.CheckpointError):
            CK.load_model(path)

    def test_truncated_arrays(self, tmp_path):
        model, _, _ = _tiny_model(7)
        path = tmp_path / "model.bin"
        CK.save_model(path, model)
        raw = path.read_bytes()
        (tmp_path / "trunc.bin").write_bytes(raw[:len(raw) - 17])
        with pytest.raises(CK.CheckpointError):
            CK.load_model(tmp_path / "trunc.bin")

    def test_trailing_bytes_rejected(self, tmp_path):
        _, _, path = _saved(tmp_path, 8)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(CK.CheckpointError, match="trailing bytes"):
            CK.load_model(path)

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "garbage.bin"
        blob = b"{not json"
        path.write_bytes(CK.MAGIC + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(CK.CheckpointError):
            CK.load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CK.CheckpointError):
            CK.load_model(tmp_path / "absent.bin")

    def test_kind_and_alphanet_entry_must_agree(self, tmp_path):
        # A balora header carries an AlphaNet entry and a lora header none,
        # even an entry that declares no arrays.
        model, _, path = _saved(tmp_path, 8)
        balora, payload = _split(path.read_bytes())
        CK.save_model(path, AdaptedModel(model.backbone, model.adapters, None))
        lora, lora_payload = _split(path.read_bytes())
        for header, data in (({**lora, "alphanet": balora["alphanet"]}, lora_payload),
                             ({k: v for k, v in balora.items() if k != "alphanet"}, payload)):
            path.write_bytes(_join(header, data))
            with pytest.raises(CK.CheckpointError, match="adapter_kind"):
                CK.load_model(path)

    def test_wrong_kind(self, tmp_path):
        _, _, path = _saved(tmp_path, 8)
        header, payload = _split(path.read_bytes())
        header["kind"] = "layer"
        path.write_bytes(_join(header, payload))
        with pytest.raises(CK.CheckpointError, match="kind='layer'"):
            CK.load_model(path)


def _split(raw: bytes) -> tuple[dict, bytes]:
    hlen = struct.unpack("<Q", raw[8:16])[0]
    return json.loads(raw[16:16 + hlen]), raw[16 + hlen:]


def _join(header, payload: bytes) -> bytes:
    blob = json.dumps(header).encode("utf-8")
    return CK.MAGIC + struct.pack("<Q", len(blob)) + blob + payload


class TestLayerHeaderSchema:
    """The adapter entries and the AlphaNet entry of a model header."""

    @pytest.mark.parametrize("mutate", [
        lambda h: h["adapters"]["0"].update(r="2"),
        lambda h: h["adapters"]["1"].update(r=3),     # exceeds min(d, k)
        lambda h: h["adapters"]["1"].update(k=5),     # disagrees with the backbone
        lambda h: h["alphanet"].update(alpha_min=-1.0),
        lambda h: h["adapters"]["0"].pop("lora_scale"),
        lambda h: h["arrays"][0].update(name="W1"),
        lambda h: h["alphanet"].update(hidden_dims=[7]),
    ])
    def test_violation_is_checkpoint_error(self, tmp_path, mutate):
        _, _, path = _saved(tmp_path, 9)
        header, payload = _split(path.read_bytes())
        mutate(header)
        path.write_bytes(_join(header, payload))
        with pytest.raises(CK.CheckpointError):
            CK.load_model(path)


# -- malformed model checkpoints through ``balora eval`` ---------------------------

TINY_CONFIG = """
d_in = 3
n_train = 32
n_val = 8
n_test = 16
hidden = 5,4
rank = 2
alphanet_hidden = 4
epochs = 1
pretrain_epochs = 1
batch_size = 16
pretrain_batch_size = 16
seed = 5
"""

# Every string a valid header or stored config may hold in a choice field.
VALID_STRINGS = {"model", "layer", "balora", "lora", "regression", "classification",
                 "gaussian", "l1", *TK.KINDS}


@pytest.fixture(scope="module")
def model_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(cfg), "--out", str(root / "train")]) == 0
    return root, (root / "train" / "checkpoint.bin").read_bytes()


def _eval(root, data: bytes) -> int:
    path = root / "mutated.bin"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["eval", "--checkpoint", str(path), "--mode", "deterministic",
                     "--out", str(root / "eval")])


def _paths(node, prefix=()):
    """Every key or index path into a JSON value."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _wrong_value(current):
    """JSON values a field holding ``current`` must reject: another type (an
    int is a valid float), or a string that no choice field accepts."""
    values = st.one_of(st.none(), st.booleans(), st.integers(-3, 300),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.text(max_size=8), st.lists(st.integers(0, 9), max_size=3),
                       st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2))

    def wrong(v):
        if isinstance(current, str) and isinstance(v, str):
            return v != current and v not in VALID_STRINGS
        if type(current) is float:
            return type(v) not in (int, float)
        if current is None:                           # adapt_layers = all
            return type(v) not in (type(None), list)
        return type(v) is not type(current)
    return values.filter(wrong)


class TestModelHeaderSchema:
    @pytest.mark.parametrize("mutate", [
        lambda h: next(a for a in h["arrays"] if a["name"] == "adapter0.WA")
        .update(name="adapter0.WX"),
        lambda h: h.pop("backbone"),
        lambda h: h["adapters"]["0"].update(r="x"),
        lambda h: [1, 2],
        lambda h: h.update(adapter_kind="nope"),
        lambda h: h["extra"]["config"].update(hidden="x"),
        lambda h: h["adapters"]["1"].update(r=3),     # disagrees with WA's shape
        lambda h: h["adapters"].update({"7": h["adapters"]["0"]}),
        lambda h: h.update(has_log_sigma=False),
        lambda h: h["alphanet"].update(num_layers=1),
        lambda h: h.update(kind="layer"),
        lambda h: h["extra"]["config"].update(d_in=4),          # the model has d_in 3
        lambda h: h["extra"]["config"].update(d_out=2),
        lambda h: h["extra"]["config"].update(task="multiclass-gaussian-blobs"),
        lambda h: h["extra"]["config"].update(n_test=0),
        lambda h: h.update(adapter_kind="lora"),      # a lora model has no AlphaNet
    ])
    def test_eval_exits_3(self, model_checkpoint, mutate):
        root, raw = model_checkpoint
        header, payload = _split(raw)
        mutated = mutate(header)
        assert _eval(root, _join(header if mutated is None else mutated, payload)) == 3
        manifest = json.loads((root / "eval" / "manifest.json").read_text())
        assert manifest["status"] == "error"

    def test_unmutated_checkpoint_evaluates(self, model_checkpoint):
        root, raw = model_checkpoint
        header, payload = _split(raw)
        assert _eval(root, _join(header, payload)) == 0


@st.composite
def _malformed(draw, raw: bytes) -> bytes:
    header, payload = _split(raw)
    action = draw(st.sampled_from(("drop", "replace", "truncate")))
    if action == "truncate":
        ends = [0, len(CK.MAGIC), 16, len(raw) - len(payload)]
        for entry in header["arrays"]:
            ends.append(ends[-1] + 8 * int(np.prod(entry["shape"], dtype=np.int64)))
        cut = draw(st.sampled_from(ends[:-1])) + draw(st.integers(-1, 1))
        return raw[:min(max(cut, 0), len(raw) - 1)]
    header = copy.deepcopy(header)
    # The stored config and ``extra`` itself are optional: only a wrong type
    # is malformed there.
    paths = [p for p in _paths(header)
             if action == "replace" or p[0] != "extra"]
    path = draw(st.sampled_from(paths))
    parent = header
    for key in path[:-1]:
        parent = parent[key]
    if action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_wrong_value(parent[path[-1]]))
    return _join(header, payload)


class TestHeaderFuzz:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_every_malformation_exits_3(self, model_checkpoint, data):
        root, raw = model_checkpoint
        assert _eval(root, data.draw(_malformed(raw))) == 3
