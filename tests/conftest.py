"""Shared test helpers."""

import numpy as np
import pytest

from balora import adapter as A
from balora import model as M
from balora.model import AdaptedModel, BackboneSpec, ToyBackbone
from balora.rng import Rng
from balora.tensor import Tensor


def single_linear_model(seed: int, d: int = 3, k: int = 2, r: int = 1,
                        init_alpha: float = 0.8) -> AdaptedModel:
    """One adapted linear layer without activation: the predictive law of the
    whole model is exactly the layer's Gaussian, handy for exactness tests."""
    rng = Rng(seed)
    backbone = ToyBackbone(BackboneSpec(d_in=d, d_out=k, hidden=(), head="regression"),
                           rng.stream_of(0))
    backbone.biases = [Tensor(np.zeros(k), requires_grad=True)]
    backbone.freeze()
    layer = A.init_layer(rng.stream_of(1), d=d, k=k, r=r, init_std=0.6,
                         w0=backbone.weights[0], lora_scale=1.0)
    layer.WB = Tensor(rng.stream_of(2).normal((k, r)), requires_grad=True)
    net = A.init_alphanet(rng.stream_of(3), feature_dim=d, num_layers=1,
                          hidden_dims=(4,), init_alpha=init_alpha)
    return AdaptedModel(backbone, {0: layer}, net, "balora")


@pytest.fixture
def two_mc_workers(monkeypatch):
    """Let the Monte Carlo evaluator use two threads, even on small models.
    It uses one whenever the BLAS is not pinned to one thread, as in a plain
    test run, so without this the threaded path would go untested there."""
    monkeypatch.setattr(M, "_cpu_workers", lambda: 2)
    monkeypatch.setattr(M, "_MIN_GELUS_PER_ROW", 0)


@pytest.fixture(autouse=True, scope="session")
def no_balora_threads():
    """Run the whole session without ``BALORA_THREADS``. The test process
    loads numpy before balora, so an exported value never reaches the BLAS
    variables, and every in-process command would exit 2 on the mismatch.
    Tests that need a pin set it through ``monkeypatch``. Session scope, so
    that module-scoped fixtures that train a model run without it too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("BALORA_THREADS", raising=False)
        yield
