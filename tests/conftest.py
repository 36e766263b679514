"""Shared test helpers."""

import functools
import math

import numpy as np
import pytest

from balora import adapter as A
from balora import model as M
from balora import tasks as TK
from balora import uncertainty as U
from balora import variational as V
from balora.model import AdaptedModel, AdapterSpec, BackboneSpec, init_backbone
from balora.rng import Rng
from balora.tensor import Tensor


def loss_node(term, parents) -> Tensor:
    """A plain ``(value, vjp)`` loss term of ``balora.variational`` as one tape
    node over ``parents``, the tensors whose data it was given, in order."""
    return Tensor._from_op(term[0], parents, term[1], "loss")


def single_linear_model(seed: int, d: int = 3, k: int = 2, r: int = 1,
                        init_alpha: float = 0.8) -> AdaptedModel:
    """One adapted linear layer without activation: the predictive law of the
    whole model is exactly the layer's Gaussian, handy for exactness tests."""
    rng = Rng(seed)
    backbone = init_backbone(BackboneSpec(d_in=d, d_out=k, hidden=(), head="regression"),
                             rng.stream_of(0))
    backbone.biases = [Tensor(np.zeros(k), requires_grad=True)]
    backbone.freeze()
    layer = A.init_layer(rng.stream_of(1), d=d, k=k, r=r, init_std=0.6,
                         w0=backbone.weights[0], lora_scale=1.0)
    layer.WB = Tensor(rng.stream_of(2).normal((k, r)), requires_grad=True)
    net = A.init_alphanet(rng.stream_of(3), feature_dim=d, num_layers=1,
                          hidden_dims=(4,), init_alpha=init_alpha)
    return AdaptedModel(backbone, {0: layer}, net)


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


def hetero_task(seed: int) -> TK.SyntheticTask:
    """The heteroscedastic task of :class:`Protocol`."""
    return TK.SyntheticTask(kind="heteroscedastic-regression", d_in=6, d_out=1,
                            n_train=512, n_val=16, n_test=256, noise_base=0.05,
                            noise_slope=0.5, seed=seed)


class Protocol:
    """The paper's comparison at one seed on :func:`hetero_task`: balora with a
    ``(32, 32)`` backbone and rank-4 adapters, and on its backbone lora and a
    5-member lora ensemble. Each part is built on first use; tests only read
    them, because :func:`protocol` hands the same object to all of them."""

    def __init__(self, seed: int):
        self.seed, self.task = seed, hetero_task(seed)
        self.arch = ((32, 32), AdapterSpec(rank=4, lora_alpha=8.0, alphanet_hidden=(16,)))
        self.cfgs = (V.TrainConfig(lr=5e-3, epochs=25, batch_size=64, kl_weight=0.0),
                     V.TrainConfig(lr=1e-2, epochs=15, batch_size=64, kl_weight=1.0),
                     V.PriorConfig(0.5))

    @functools.cached_property
    def balora(self) -> TK.TrainedModel:
        return TK.pretrain_then_adapt(self.task, *self.arch, "balora", *self.cfgs, seed=self.seed)

    @functools.cached_property
    def lora(self) -> TK.TrainedModel:
        return TK.pretrain_then_adapt(self.task, *self.arch, "lora", *self.cfgs,
                                      seed=self.seed, backbone=self.balora.model.backbone)

    @functools.cached_property
    def ensemble(self) -> list[TK.TrainedModel]:
        return TK.train_ensemble(self.task, *self.arch, *self.cfgs, seed=self.seed, m=5,
                                 backbone=self.balora.model.backbone)

    @functools.cached_property
    def report(self) -> U.UQReport:
        """balora's S=100 report; seed ``2000 + i`` draws from ``Rng(31_000 + i)``."""
        test = self.balora.target.test
        return U.uq_report(self.balora.model, test.X, test.y, 100, Rng(29_000 + self.seed))


protocol = functools.cache(Protocol)  # one Protocol per seed and test session


def sign_test_p(diffs) -> float:
    """Two-sided sign-test p-value of paired differences; ties are dropped."""
    wins, losses = int(np.sum(np.greater(diffs, 0))), int(np.sum(np.less(diffs, 0)))
    tail = sum(math.comb(wins + losses, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** (wins + losses))


def wins_for_significance(n: int):
    """The fewest wins out of ``n`` untied pairs whose two-sided sign-test
    p-value is below 0.05, or None if even ``n`` of ``n`` is not."""
    return next((w for w in range(n // 2 + 1, n + 1)
                 if sign_test_p([1.0] * w + [-1.0] * (n - w)) < 0.05), None)


def paired_report(what: str, balora, other, fmt: str, higher_is_better: bool) -> None:
    """Print one report-only line comparing balora with a baseline seed by
    seed: its wins, its median paired advantage (positive favours balora),
    the sign-test p-value, the wins that p < 0.05 would need and both
    medians. ``[PASS]`` means the median advantage favours balora."""
    advantage = np.subtract(balora, other) * (1.0 if higher_is_better else -1.0)
    median, n = np.median(advantage), len(advantage)
    needed = wins_for_significance(n)
    power = "unreachable" if needed is None else f"needs {needed}/{n}"
    print(f"[{'PASS' if median > 0 else 'WARN'}] {what}: balora ahead on "
          f"{np.sum(advantage > 0)}/{n} seeds, median paired advantage "
          f"{median:+{fmt}}, sign-test p = {sign_test_p(advantage):.3f}, p < 0.05 {power} "
          f"(medians {np.median(balora):{fmt}} vs {np.median(other):{fmt}}; "
          f"reported, not gated)")
