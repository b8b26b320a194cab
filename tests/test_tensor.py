"""Autodiff engine tests: analytic gradients against central finite
differences, plus tape-contract behavior (fan-out, reuse, reachability)."""

import threading

import numpy as np
import pytest

import querymix.tensor as T
from querymix.errors import ContractError, ShapeError
from querymix.tensor import Tensor, backward, finite_difference_check, no_grad

TOL_SIMPLE = 1e-6
TOL_COMPOSITE = 1e-5


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape))


class TestForwardValues:
    def test_matmul_example(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_matmul_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), Tensor(m))
        assert np.array_equal(out.data, m)

    def test_softmax_rows_normalized_under_extremes(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x = rng.standard_normal(6) * rng.choice([1.0, 1e3])
            s = T.softmax(Tensor(x)).data
            assert np.all(s >= 0.0)
            assert abs(s.sum() - 1.0) <= 1e-12

    def test_forward_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 4))

        def run():
            h = T.relu(T.matmul(Tensor(x), Tensor(x)))
            return T.softmax(h).data.tobytes()

        assert run() == run()

    def test_softmax_uniform(self):
        out = T.softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_softmax_large_logits_stable(self):
        out = T.softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert abs(out.data[0] - 1.0) < 1e-12

    def test_softmax_matches_exp_normalize(self):
        x = np.array([1.0, 2.0, 3.0])
        want = np.exp(x) / np.exp(x).sum()
        out = T.softmax(Tensor(x))
        assert np.allclose(out.data, want, atol=1e-12)

    def test_log_softmax_is_log_of_softmax(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 5))
        ls = T.log_softmax(Tensor(x)).data
        assert np.allclose(ls, np.log(T.softmax(Tensor(x)).data), atol=1e-12)
        assert np.allclose(np.exp(ls).sum(axis=-1), 1.0, atol=1e-12)

    def test_scalar_broadcast(self):
        out = T.add(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor(10.0))
        assert np.array_equal(out.data, [[11.0, 12.0], [13.0, 14.0]])

    def test_suffix_broadcast_add(self):
        a = Tensor(np.ones((2, 3, 4)))
        b = Tensor(np.arange(4.0))
        assert np.allclose(T.add(a, b).data, 1.0 + np.arange(4.0))

    def test_bad_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((2,))))

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


class TestFiniteDifferences:
    """Every differentiable op, checked against the numeric oracle."""

    def test_elementwise_ops(self):
        rng = np.random.default_rng(11)
        x = rand(rng, 3, 4)
        y = Tensor(rng.standard_normal((3, 4)) + 3.0)  # positive shift for log/div
        cases = [
            (lambda a, b: T.sum_(T.add(a, b)), [x, y]),
            (lambda a, b: T.sum_(T.sub(a, b)), [x, y]),
            (lambda a, b: T.sum_(T.mul(a, b)), [x, y]),
            (lambda a, b: T.sum_(T.div(a, b)), [x, y]),
            (lambda a: T.sum_(T.scale(a, -2.5)), [x]),
            (lambda a: T.sum_(T.sigmoid(a)), [x]),
            (lambda a: T.sum_(T.exp(a)), [x]),
            (lambda b: T.sum_(T.log(b)), [y]),
            (lambda a, b: T.sum_(T.minimum(a, b)), [x, y]),
            (lambda a, b: T.sum_(T.maximum(a, b)), [x, y]),
            (lambda a: T.mean(a), [x]),
            (lambda a: T.sum_(T.mean(a, axis=1)), [x]),
        ]
        for f, xs in cases:
            assert finite_difference_check(f, xs) < TOL_SIMPLE

    def test_relu_off_kink(self):
        # keep inputs away from 0 so the subgradient is unambiguous
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((3, 4)) + np.where(rng.random((3, 4)) < 0.5, -1.0, 1.0))
        assert finite_difference_check(lambda a: T.sum_(T.relu(a)), [x]) < TOL_SIMPLE

    def test_abs_off_zero(self):
        x = Tensor(np.array([[1.3, -0.7], [2.1, -1.9]]))
        assert finite_difference_check(lambda a: T.sum_(T.abs_(a)), [x]) < TOL_SIMPLE

    def test_matmul(self):
        rng = np.random.default_rng(17)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        assert finite_difference_check(lambda x, y: T.sum_(T.matmul(x, y)), [a, b]) < TOL_SIMPLE

    def test_matmul_batched(self):
        rng = np.random.default_rng(19)
        a, b = rand(rng, 2, 3, 4), rand(rng, 4, 5)
        f = lambda x, y: T.sum_(T.matmul(x, y))
        assert finite_difference_check(f, [a, b]) < TOL_SIMPLE

    def test_softmax_grad(self):
        rng = np.random.default_rng(23)
        x = rand(rng, 2, 5)
        w = rng.standard_normal((2, 5))  # random probe so the grad is not trivially zero
        f = lambda a: T.sum_(T.mul(T.softmax(a), Tensor(w)))
        assert finite_difference_check(f, [x]) < TOL_SIMPLE

    def test_log_softmax_grad(self):
        rng = np.random.default_rng(29)
        x = rand(rng, 3, 4)
        w = rng.standard_normal((3, 4))
        f = lambda a: T.sum_(T.mul(T.log_softmax(a), Tensor(w)))
        assert finite_difference_check(f, [x]) < TOL_SIMPLE

    def test_shape_ops(self):
        rng = np.random.default_rng(31)
        x = rand(rng, 2, 3, 4)
        wt = rng.standard_normal((2, 4, 3))
        wr = rng.standard_normal((6, 4))
        ws = rng.standard_normal((2, 2, 4))
        cases = [
            lambda a: T.sum_(T.mul(T.transpose(a), Tensor(wt))),
            lambda a: T.sum_(T.mul(T.reshape(a, (6, 4)), Tensor(wr))),
            lambda a: T.sum_(T.mul(T.slice_axis(a, 1, 1, 3), Tensor(ws))),
        ]
        for f in cases:
            assert finite_difference_check(f, [x]) < TOL_SIMPLE

    def test_concat(self):
        rng = np.random.default_rng(37)
        a, b = rand(rng, 2, 3), rand(rng, 4, 3)
        w = rng.standard_normal((6, 3))
        f = lambda x, y: T.sum_(T.mul(T.concat([x, y], axis=0), Tensor(w)))
        assert finite_difference_check(f, [a, b]) < TOL_SIMPLE

    def test_gather_rows_repeated_indices(self):
        rng = np.random.default_rng(41)
        table = rand(rng, 5, 3)
        idx = np.array([0, 2, 2, 4])
        w = rng.standard_normal((4, 3))
        f = lambda t: T.sum_(T.mul(T.gather_rows(t, idx), Tensor(w)))
        assert finite_difference_check(f, [table]) < TOL_SIMPLE

    def test_take_last(self):
        rng = np.random.default_rng(43)
        x = rand(rng, 3, 5)
        idx = np.array([0, 4, 2])
        f = lambda a: T.sum_(T.take_last(a, idx))
        assert finite_difference_check(f, [x]) < TOL_SIMPLE

    def test_expand_batch(self):
        rng = np.random.default_rng(47)
        x = rand(rng, 3, 2)
        w = rng.standard_normal((4, 3, 2))
        f = lambda a: T.sum_(T.mul(T.expand_batch(a, 4), Tensor(w)))
        assert finite_difference_check(f, [x]) < TOL_SIMPLE

    def test_layer_norm(self):
        rng = np.random.default_rng(53)
        x, g, b = rand(rng, 4, 6), rand(rng, 6), rand(rng, 6)
        w = rng.standard_normal((4, 6))
        f = lambda a, gg, bb: T.sum_(T.mul(T.layer_norm(a, gg, bb), Tensor(w)))
        assert finite_difference_check(f, [x, g, b]) < TOL_COMPOSITE

    def test_conv2d(self):
        rng = np.random.default_rng(59)
        x = rand(rng, 2, 3, 6, 6)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.3)
        b = rand(rng, 4)
        f = lambda xx, ww, bb: T.sum_(T.conv2d(xx, ww, bb, stride=2, padding=1))
        assert finite_difference_check(f, [x, w, b]) < TOL_COMPOSITE

    def test_composite_chain(self):
        rng = np.random.default_rng(61)
        x = rand(rng, 2, 4)
        w1, w2 = rand(rng, 4, 8), rand(rng, 8, 3)

        def f(a, u, v):
            h = T.relu(T.matmul(a, u))
            return T.sum_(T.log_softmax(T.matmul(h, v)))

        assert finite_difference_check(f, [x, w1, w2]) < TOL_COMPOSITE


class TestConv2dOracle:
    def test_against_naive_loops(self):
        rng = np.random.default_rng(67)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        stride, pad = 2, 1
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad).data

        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        oh = (5 + 2 * pad - 3) // stride + 1
        ow = oh
        want = np.zeros((2, 4, oh, ow))
        for n in range(2):
            for o in range(4):
                for i in range(oh):
                    for j in range(ow):
                        patch = xp[n, :, i * stride:i * stride + 3, j * stride:j * stride + 3]
                        want[n, o, i, j] = (patch * w[o]).sum() + b[o]
        assert np.allclose(out, want, atol=1e-12)

    def test_unbatched_input(self):
        rng = np.random.default_rng(71)
        x = rng.standard_normal((3, 8, 8))
        w = rng.standard_normal((2, 3, 3, 3))
        b = np.zeros(2)
        single = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1).data
        batched = T.conv2d(Tensor(x[None]), Tensor(w), Tensor(b), stride=2, padding=1).data
        assert np.array_equal(single, batched[0])


class TestAnalyticGradients:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        grads = backward(T.sum_(x), params=[x])
        assert np.array_equal(grads[id(x)], np.ones((2, 3)))

    def test_half_square_gives_identity(self):
        rng = np.random.default_rng(97)
        x = Tensor(rng.standard_normal(5), requires_grad=True)
        loss = T.scale(T.sum_(T.mul(x, x)), 0.5)
        grads = backward(loss, params=[x])
        assert np.allclose(grads[id(x)], x.data, atol=1e-14)

    def test_matmul_sum_grad_closed_form(self):
        rng = np.random.default_rng(101)
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        grads = backward(T.sum_(T.matmul(a, b)), params=[a, b])
        assert np.allclose(grads[id(a)], np.ones((4, 3)) @ b.data.T, atol=1e-12)
        assert np.allclose(grads[id(b)], a.data.T @ np.ones((4, 3)), atol=1e-12)

    def test_two_layer_mlp_fd(self):
        rng = np.random.default_rng(103)
        x = Tensor(rng.standard_normal((3, 4)))
        w1 = Tensor(rng.standard_normal((4, 8)))
        b1 = Tensor(rng.standard_normal(8))
        w2 = Tensor(rng.standard_normal((8, 2)))
        b2 = Tensor(rng.standard_normal(2))

        def f(xx, u1, c1, u2, c2):
            h = T.relu(T.add(T.matmul(xx, u1), c1))
            return T.sum_(T.add(T.matmul(h, u2), c2))

        assert finite_difference_check(f, [x, w1, b1, w2, b2]) < TOL_SIMPLE

    def test_fd_oracle_self_consistency(self):
        # trivially exact case, then two composites at the documented bounds
        x = Tensor(np.array([1.0, 2.0, 3.0]))
        assert finite_difference_check(T.sum_, [x]) < 1e-10
        pick = lambda a: T.take_last(T.softmax(a), np.array(0))
        assert finite_difference_check(pick, [x]) < 1e-7
        g = Tensor(np.ones(3))
        b = Tensor(np.zeros(3))
        ln = lambda a, gg, bb: T.sum_(T.layer_norm(a, gg, bb))
        assert finite_difference_check(ln, [x, g, b]) < TOL_SIMPLE

    def test_fd_rejects_bad_eps(self):
        with pytest.raises(ContractError):
            finite_difference_check(T.sum_, [Tensor(np.ones(2))], eps=0.0)


class TestTapeContract:
    def test_fanout_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = T.sum_(T.add(x, x))
        grads = backward(y, params=[x])
        assert grads[id(x)][0] == 2.0

    def test_diamond_fanout(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = T.mul(x, x)          # x^2
        y = T.sum_(T.add(a, a))  # 2 x^2, dy/dx = 4x = 8
        grads = backward(y, params=[x])
        assert grads[id(x)][0] == 8.0

    def test_unreachable_param_gets_zeros(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        z = Tensor(np.array([[5.0, 1.0]]), requires_grad=True)
        loss = T.sum_(T.mul(x, x))
        grads = backward(loss, params=[x, z])
        assert np.array_equal(grads[id(z)], np.zeros((1, 2)))
        assert z.grad.shape == (1, 2)

    def test_grad_attribute_set_without_params(self):
        # the training loop relies on backward(loss) alone storing .grad
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 1.0]), requires_grad=True)
        loss = T.sum_(T.add(T.mul(x, x), y))
        grads = backward(loss)
        assert np.array_equal(x.grad, np.array([2.0, 4.0]))
        assert np.array_equal(y.grad, np.array([1.0, 1.0]))
        assert np.array_equal(grads[id(x)], x.grad)

    def test_second_backward_raises(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        loss = T.sum_(T.mul(x, x))
        backward(loss, params=[x])
        with pytest.raises(ContractError):
            backward(loss, params=[x])

    def test_backward_through_shared_subgraph_raises(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        h = T.mul(x, x)
        l1 = T.sum_(h)
        l2 = T.sum_(T.add(h, h))
        backward(l1, params=[x])
        with pytest.raises(ContractError):
            backward(l2, params=[x])

    def test_nonscalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            backward(T.mul(x, x), params=[x])

    def test_detached_loss_rejected(self):
        with pytest.raises(ContractError):
            backward(Tensor(1.0), params=[])

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = T.mul(x, x)
        assert y.node is None and not y.requires_grad

    def test_no_grad_is_per_thread(self):
        x = Tensor(np.ones(3), requires_grad=True)
        inside, release = threading.Event(), threading.Event()
        out = {}

        def worker():
            with no_grad():
                inside.set()
                release.wait(timeout=10)
                out["worker"] = T.mul(x, x)
            out["fresh"] = T.mul(x, x)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert inside.wait(timeout=10)
            out["main"] = T.mul(x, x)  # recorded while the worker sits in no_grad
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert out["main"].node is not None
        assert out["worker"].node is None
        assert out["fresh"].node is not None  # leaving no_grad restores recording

        with no_grad():  # a thread started under the caller's no_grad still records
            spawned = {}
            thread = threading.Thread(target=lambda: spawned.update(y=T.mul(x, x)))
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert spawned["y"].node is not None

    def test_detach_cuts_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        h = T.mul(x, x)
        loss = T.sum_(T.mul(h.detach(), x))  # only the direct factor sees grad
        grads = backward(loss, params=[x])
        assert grads[id(x)][0] == 4.0

    def test_tape_order_matches_creation_order(self):
        rng = np.random.default_rng(73)
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        h = T.relu(T.matmul(x, x))
        loss = T.sum_(T.mul(h, h))
        tape = T.GradientTape.from_output(loss)
        seqs = [n.seq for n in tape.nodes]
        assert seqs == sorted(seqs)
        assert tape.nodes[-1].out is loss

    def test_grad_map_keys_and_attr_agree(self):
        rng = np.random.default_rng(79)
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        w = Tensor(rng.standard_normal(4), requires_grad=True)
        loss = T.sum_(T.mul(x, w))
        grads = backward(loss, params=[x, w])
        assert np.array_equal(grads[id(x)], w.data)
        assert np.array_equal(x.grad, w.data)
        assert np.array_equal(w.grad, x.data)


class TestDropout:
    def test_identity_when_eval(self):
        x = Tensor(np.ones((4, 4)))
        assert T.dropout(x, 0.5, training=False) is x

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(83)
        x = Tensor(np.ones((200, 200)))
        out = T.dropout(x, 0.25, rng=rng, training=True)
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_grad_uses_same_mask(self):
        rng = np.random.default_rng(89)
        x = Tensor(np.ones((8, 8)), requires_grad=True)
        out = T.dropout(x, 0.5, rng=rng, training=True)
        grads = backward(T.sum_(out), params=[x])
        assert np.array_equal(grads[id(x)], np.where(out.data > 0, 2.0, 0.0))


class TestDtype:
    def test_default_is_f64(self):
        assert Tensor([1.0]).data.dtype == np.float64
