"""Tensor-core checks: hand values, brute-force oracles, and tape contracts."""

import sys
import threading
import types
import zlib

import numpy as np
import pytest

from balora import tensor as T
from balora.rng import Rng
from balora.tensor import (DomainError, NonFiniteError, ShapeError, TapeError,
                           Tensor, backward)
from balora.verify import finite_difference_grads, gradient_error


def _naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, n = a.shape
    n2, p = b.shape
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            acc = 0.0
            for k in range(n):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_hand_case(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_against_triple_loop(self):
        rng = Rng(11)
        a = rng.normal((5, 7))
        b = rng.normal((7, 3))
        out = T.matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(out - _naive_matmul(a, b))) < 1e-12

    def test_associativity(self):
        rng = Rng(12)
        for i in range(10):
            r = rng.stream_of(i)
            a, b, c = r.normal((4, 6)), r.normal((6, 5)), r.normal((5, 3))
            left = T.matmul(T.matmul(Tensor(a), Tensor(b)), Tensor(c)).data
            right = T.matmul(Tensor(a), T.matmul(Tensor(b), Tensor(c))).data
            ref = _naive_matmul(_naive_matmul(a, b), c)
            rel = np.linalg.norm(left - right) / np.linalg.norm(ref)
            assert rel < 1e-10
            assert np.linalg.norm(left - ref) / np.linalg.norm(ref) < 1e-10

    def test_vector_cases(self):
        # Matrices only: every 1-D or 0-D operand is refused.
        a, v = Tensor(np.ones((3, 4))), Tensor(np.ones(4))
        for left, right in ((a, v), (Tensor(np.ones(3)), a), (v, v), (Tensor(1.0), a)):
            with pytest.raises(ShapeError, match="two matrices"):
                T.matmul(left, right)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestElementwise:
    def test_square(self):
        assert T.square(Tensor([-2.0, 3.0])).data.tolist() == [4.0, 9.0]

    def test_sqrt_square_is_abs(self):
        v = Rng(3).normal((50,))
        out = T.sqrt(T.square(Tensor(v))).data
        assert np.allclose(out, np.abs(v), atol=1e-12)

    def test_scalar_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            T.add(Tensor([[1.0, 2.0]]), Tensor(1.5))
        with pytest.raises(ShapeError):
            T.mul(Tensor(1.5), Tensor([[1.0, 2.0]]))

    def test_vector_matrix_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_sqrt_negative_rejected(self):
        with pytest.raises(DomainError):
            T.sqrt(Tensor([-1.0]))

    def test_overflow_raises(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            T.mul(Tensor([1e308]), Tensor([10.0]))


class TestBackward:
    def test_sum_of_squares(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        backward(T.tsum(T.square(w)))
        assert w.grad.tolist() == [2.0, 4.0]

    def test_matmul_matches_finite_differences(self):
        rng = Rng(21)
        a = Tensor(rng.normal((3, 4)), requires_grad=True)
        b = Tensor(rng.normal((4, 2)), requires_grad=True)

        def loss_fn():
            return T.tsum(T.matmul(a, b)).item()

        backward(T.tsum(T.matmul(a, b)))
        num = finite_difference_grads(loss_fn, [a, b], h=1e-5)
        assert np.allclose(a.grad, num[0], rtol=1e-5, atol=1e-8)
        assert np.allclose(b.grad, num[1], rtol=1e-5, atol=1e-8)

    def test_independent_leaf_gets_zero_grad(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        u = Tensor([3.0, 4.0], requires_grad=True)
        loss = T.add(T.tsum(T.square(w)), T.mul(T.tsum(u), Tensor(0.0)))
        backward(loss)
        assert u.grad.tolist() == [0.0, 0.0]

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(TapeError):
            backward(T.square(w))

    def test_double_backward_rejected(self):
        w = Tensor([1.0], requires_grad=True)
        loss = T.tsum(T.square(w))
        backward(loss)
        with pytest.raises(TapeError):
            backward(loss)

    def test_shared_nodes_get_every_path(self):
        # w reaches the loss through h (used three times) and directly; h
        # must collect all its cotangents before its own closure runs.
        w = Tensor([1.0, 2.0], requires_grad=True)
        h = T.mul(w, Tensor([2.0, 2.0]))
        loss = T.tsum(T.add(T.add(T.mul(h, h), h), w))  # 4 w^2 + 3 w
        backward(loss)
        assert w.grad.tolist() == [11.0, 19.0]
        with pytest.raises(TapeError):
            backward(loss)

    def test_graph_sharing_a_consumed_node_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        h = T.mul(w, w)
        backward(T.tsum(h))
        with pytest.raises(TapeError, match="already-consumed"):
            backward(T.tsum(T.add(h, w)))
        assert w.grad.tolist() == [2.0, 4.0]

    def test_creation_order_holds_across_threads(self):
        # Tensors made on several threads at once get distinct sequence
        # numbers, each above its parents', and backward stays exact.
        def work(results):
            w = Tensor([1.0], requires_grad=True)
            hs = [w]
            for _ in range(500):
                hs.append(T.add(hs[-1], w))
            results.append(hs)

        results: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(results,)) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(results) == 6
        assert len({h._seq for hs in results for h in hs}) == 6 * 501
        for hs in results:
            assert all(a._seq < b._seq for a, b in zip(hs, hs[1:]))
            backward(T.tsum(hs[-1]))
            assert hs[0].grad.tolist() == [501.0]

    def test_leaf_cotangents_are_summed_before_the_grad_it_holds(self):
        # A leaf that already holds a grad, reached from two interior nodes:
        # their cotangents are summed first, then added to it once. These
        # values tell the groupings apart: (1 + e) + e rounds back to 1.
        e = np.finfo(np.float64).eps / 2
        g0, g1, g2 = np.array([1.0, 3.0]), np.array([e, -0.5]), np.array([e, 0.25])
        assert ((g0 + g1) + g2).tobytes() != (g0 + (g1 + g2)).tobytes()
        w = Tensor([0.5, 0.5], requires_grad=True)
        w.grad = g0.copy()
        a = Tensor._from_op(w.data, (w,), lambda g: (g1,), "a")
        b = Tensor._from_op(w.data, (w,), lambda g: (g2,), "b")
        loss = Tensor._from_op(np.asarray(0.0), (a, b), lambda g: (g, g), "loss")
        backward(loss)
        assert w.grad.tobytes() == (g0 + (g1 + g2)).tobytes()

    def test_loss_that_is_a_leaf(self):
        w = Tensor(2.0, requires_grad=True)
        backward(w)
        assert w.grad.tobytes() == np.ones(()).tobytes()
        with pytest.raises(TapeError, match="already called"):
            backward(w)
        with pytest.raises(TapeError, match="does not depend"):
            backward(Tensor(2.0))

    def test_leaf_loss_enters_later_graphs(self):
        # A leaf loss has no tape to consume: it is not a loss again, but it
        # is a parent of later graphs. A consumed interior loss is neither.
        w = Tensor(2.0, requires_grad=True)
        backward(w)
        backward(T.mul(w, w))
        assert w.grad.tolist() == 5.0
        with pytest.raises(TapeError, match="already called"):
            backward(w)
        loss = T.mul(w, w)
        backward(loss)
        with pytest.raises(TapeError, match="already-consumed"):
            backward(T.mul(loss, w))
        assert w.grad.tolist() == 9.0

    def test_consumed_node_reached_only_as_a_parent_rejected(self):
        # A consumed node has lost its closure, so the walk never visits it;
        # it is still caught as a parent, before any grad is written.
        w = Tensor([1.0, 2.0], requires_grad=True)
        h = T.mul(w, w)
        backward(T.tsum(h))
        with pytest.raises(TapeError, match="already-consumed"):
            backward(T.tsum(T.add(T.square(w), h)))
        assert w.grad.tolist() == [2.0, 4.0]

    def test_grad_accumulates_across_graphs(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        backward(T.tsum(T.square(w)))
        backward(T.tsum(T.square(w)))
        assert w.grad.tolist() == [4.0, 8.0]


class TestFiniteDifferenceSweep:
    """Every differentiable op agrees with central differences at random points."""

    CASES = [
        ("add", lambda a, b: T.add(a, b), 2),
        ("mul", lambda a, b: T.mul(a, b), 2),
        ("square", lambda a: T.square(a), 1),
        ("sqrt", lambda a: T.sqrt(T.add(T.square(a), Tensor(np.full(a.shape, 0.1)))), 1),
        ("gelu", lambda a: T.gelu(a), 1),
        ("transpose", lambda a: T.transpose(T.reshape(a, (4, 5))), 1),
    ]

    @pytest.mark.parametrize("name,fn,arity", CASES, ids=[c[0] for c in CASES])
    def test_op_gradient(self, name, fn, arity):
        rng = Rng(zlib.crc32(name.encode()))
        for trial in range(20):
            r = rng.stream_of(trial)
            params = [Tensor(r.normal((20,)), requires_grad=True) for _ in range(arity)]

            def loss_fn():
                out = fn(*params)
                flat = T.reshape(out, (out.size,))
                w = Tensor(r.stream_of(7).normal((out.size,)))
                return T.tsum(T.mul(flat, w))

            # The random projection inside loss_fn must be identical across
            # calls; stream_of is stateless so this holds by construction.
            assert np.isfinite(loss_fn().item())
            assert gradient_error(loss_fn, params) <= 1.0, name


class TestFiniteness:
    def test_finite_array_whose_sum_overflows_passes(self):
        with np.errstate(over="ignore"):
            t = Tensor([1e308, 1e308])
            halved = T.mul(t, Tensor([0.5, 0.5]))
            flipped = T.mul(t, Tensor([-1.0, -1.0]))
        assert halved.data.tolist() == [5e307, 5e307]
        assert flipped.data.tolist() == [-1e308, -1e308]

    @pytest.mark.parametrize("bad,sign", [(np.nan, 0.0), (np.inf, 1.0), (-np.inf, -1.0)])
    @pytest.mark.parametrize("background", [1.0, 1e308])
    def test_poison_at_any_position_raises(self, bad, sign, background):
        # The huge background overflows the sum, so the elementwise fallback
        # has to find the poison.
        with np.errstate(all="ignore"):
            for pos in range(4):
                vals = np.full(4, background)
                vals[pos] = bad
                with pytest.raises(NonFiniteError):
                    Tensor(vals)
                with pytest.raises(NonFiniteError):
                    if np.isnan(bad):
                        Tensor._from_op(vals, (), None, "poison")
                    else:
                        # Only the entry at pos overflows to +-Inf.
                        base, factor = np.full(4, background), np.ones(4)
                        base[pos], factor[pos] = sign * 1e308, 10.0
                        T.mul(Tensor(base), Tensor(factor))


class TestLinearHelper:
    @pytest.mark.parametrize("with_bias", [False, True], ids=["nobias-batch", "bias-batch"])
    def test_vjp_matches_finite_differences(self, with_bias):
        rng = Rng(35 + with_bias)
        # Every non-empty subset of {x, W, b} requiring grad.
        for mask in range(1, 8 if with_bias else 4):
            r = rng.stream_of(mask)
            x = Tensor(r.normal((5, 4)), requires_grad=bool(mask & 1))
            w = Tensor(r.normal((3, 4)), requires_grad=bool(mask & 2))
            b = Tensor(r.normal((3,)), requires_grad=bool(mask & 4)) if with_bias else None
            proj = Tensor(r.normal((5, 3)))

            def loss_fn():
                return T.tsum(T.mul(T.linear(x, w, b), proj))

            parents = [p for p in (x, w, b) if p is not None]
            assert gradient_error(loss_fn, [p for p in parents if p.requires_grad]) <= 1.0
            for p in parents:
                if not p.requires_grad:
                    assert p.grad is None

    def test_batch_matches_per_row(self):
        rng = Rng(31)
        w = Tensor(rng.normal((4, 6)), requires_grad=True)
        b = Tensor(rng.normal((4,)), requires_grad=True)
        X = rng.normal((8, 6))
        batch = T.linear(Tensor(X), w, b).data
        rows = np.concatenate([T.linear(Tensor(x[None, :]), w, b).data for x in X])
        assert np.allclose(batch, rows, atol=1e-14)

    def test_vector_input_rejected(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones(3)), Tensor(np.ones((2, 3))))

    def test_bias_gradient_sums_over_rows(self):
        rng = Rng(32)
        w = Tensor(rng.normal((3, 5)), requires_grad=True)
        b = Tensor(rng.normal((3,)), requires_grad=True)
        X = Tensor(rng.normal((7, 5)))
        backward(T.tsum(T.linear(X, w, b)))
        assert np.allclose(b.grad, np.full(3, 7.0), atol=1e-12)


class TestInvariants:
    def test_shape_data_consistency(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        assert int(np.prod(t.shape)) == t.data.size
        assert t.data.flags.c_contiguous
        assert not t.data.flags.writeable

    def test_nan_construction_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])


def _gate_points() -> np.ndarray:
    """A dense grid over [-40, 40] plus signed zeros, infinities and subnormals."""
    tiny = np.finfo(np.float64).tiny
    edges = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310, tiny, -tiny,
             tiny / 2, -tiny / 2]
    return np.concatenate([np.linspace(-40.0, 40.0, 1_600_001), edges])


def _scipy_special_gate(z: np.ndarray) -> np.ndarray:
    """The gate as computed through the ``scipy.special`` package: the
    reference every way of loading ``erf`` must match bit for bit."""
    from scipy.special import erf
    g = z * (1.0 / np.sqrt(2.0))
    erf(g, out=g)
    g += 1.0
    g *= 0.5
    return g


class TestGeluGate:
    def test_bitwise_equal_to_scipy_special(self):
        z = _gate_points()
        expected = _scipy_special_gate(z).tobytes()
        assert T.gelu_gate(z).tobytes() == expected
        out = np.empty_like(z)
        assert T.gelu_gate(z, out=out) is out
        assert out.tobytes() == expected

    @pytest.mark.parametrize("lookup", ["missing", "without erf"])
    def test_falls_back_to_scipy_special(self, monkeypatch, lookup):
        # Where scipy has no extension module with erf, the GELU takes erf
        # from the scipy.special package, with the same bits.
        fake = "scipy.special._balora_test_absent"
        if lookup == "without erf":
            monkeypatch.setitem(sys.modules, fake, types.ModuleType(fake))
        monkeypatch.setattr(T, "_ERF_EXTENSION", fake)
        monkeypatch.setattr(T, "_erf", None)
        monkeypatch.setattr(T, "_erf_module", None)
        assert T.erf_module() is None
        z = _gate_points()
        assert T.gelu_gate(z).tobytes() == _scipy_special_gate(z).tobytes()
        assert T.erf_module() == "scipy.special"
        import scipy.special
        assert T._erf is scipy.special.erf

    def test_folded_sign_bitwise_equal_to_unfolded_formula(self):
        # The gate takes erf of |z / sqrt 2| and the sign from z; compared
        # bit for bit with 0.5 * (1 + erf(z / sqrt 2)) computed directly.
        erf = T._load_erf()
        normals = Rng(5).normal((1_000_000,))
        root2, tiny = np.sqrt(2.0), np.finfo(np.float64).tiny
        edges = [0.0, 5e-324, 1e-310, tiny / 2, tiny, root2, np.nextafter(root2, 0.0),
                 np.nextafter(root2, 3.0), 5.9 * root2, 8.0 * root2, 30.0, 1e300, np.inf]
        z = np.concatenate([normals * scale for scale in (0.1, 1.0, 3.0, 10.0)]
                           + [edges, np.negative(edges), [np.nan, -np.nan]])
        assert np.signbit(z[-len(edges) - 2]) and np.isnan(z[-2:]).all()
        expected = 0.5 * (1.0 + erf(z * T._INV_SQRT2))
        nan = np.isnan(expected)
        out = np.empty_like(z)
        for gate in (T.gelu_gate(z), T.gelu_gate(z, out=out)):
            assert (np.isnan(gate) == nan).all()
            assert (gate[~nan].view(np.int64) == expected[~nan].view(np.int64)).all()

    def test_out_sharing_memory_with_z_rejected(self):
        # The sign is read from z after out is written, so out may not alias z.
        z = Rng(6).normal((4, 8)) - 0.5
        with pytest.raises(ValueError, match="share memory"):
            T.gelu_gate(z, out=z)
        with pytest.raises(ValueError, match="share memory"):
            T.gelu_gate(z[1:], out=z[:-1])
        buf = np.empty(64)
        assert T.gelu_gate(z, out=buf[32:].reshape(4, 8)).tobytes() == T.gelu_gate(z).tobytes()
