"""The adapted model's stochastic forward: noise is an argument."""

import numpy as np
import pytest

from balora.model import AdaptedModel, BackboneSpec, ToyBackbone
from balora.rng import Rng
from balora.tensor import DomainError, ShapeError
from balora.verify import _tiny_model


class TestStochasticForward:
    def test_eps_makes_the_forward_stochastic(self):
        model, X, _ = _tiny_model(1)
        eps = model.draw_eps(X.shape[0], Rng(2))
        assert [e.shape for e in eps] == [(X.shape[0], model.adapters[i].rank)
                                          for i in model.adapted_layers]
        det = model.forward(X).data
        a = model.forward(X, eps=eps).data
        b = model.forward(X, eps=model.draw_eps(X.shape[0], Rng(2))).data
        assert a.tobytes() == b.tobytes()
        assert not np.allclose(a, det)

    def test_predict_stochastic_matches_forward(self):
        model, X, _ = _tiny_model(3)
        expected = model.forward(X, eps=model.draw_eps(X.shape[0], Rng(4))).data
        got = model.predict_stochastic(X, Rng(4))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_wrong_number_of_eps_arrays_rejected(self):
        model, X, _ = _tiny_model(5)
        eps = model.draw_eps(X.shape[0], Rng(6))
        for bad in (eps[:-1], [*eps, eps[0]], []):
            with pytest.raises(ShapeError):
                model.forward(X, eps=bad)

    @pytest.mark.parametrize("reshape", [
        lambda e: e[:-1], lambda e: e[:, :-1], lambda e: np.hstack([e, e]),
        lambda e: e[0], lambda e: e[None]], ids=["rows", "rank", "wide", "1d", "3d"])
    def test_wrong_eps_shape_rejected(self, reshape):
        model, X, _ = _tiny_model(7)
        eps = model.draw_eps(X.shape[0], Rng(8))
        eps[-1] = reshape(eps[-1])
        with pytest.raises(ShapeError):
            model.forward(X, eps=eps)

    def test_lora_model_has_no_noise(self):
        backbone = ToyBackbone(BackboneSpec(d_in=3, d_out=2, hidden=(4,)), Rng(9))
        backbone.freeze()
        model = AdaptedModel(backbone, {}, None, "lora")
        with pytest.raises(DomainError):
            model.draw_eps(2, Rng(10))
        with pytest.raises(DomainError):
            model.forward(np.ones((2, 3)), eps=[])
