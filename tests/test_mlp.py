import numpy as np
import pytest

from padlander.mlp import CHUNK, Adam, Mlp

PRODUCTION_STACKS = (
    ([18, 512, 512, 256, 128, 1], "linear"),
    ([15, 512, 512, 256, 128, 3], "tanh"),
)


def finite_difference_grads(net, x, upstream, h):
    """Central finite differences of sum(output * upstream) per parameter."""
    flat = net.flat
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f1 = float(np.sum(net.forward(x) * upstream))
        flat[i] = orig - h
        f2 = float(np.sum(net.forward(x) * upstream))
        flat[i] = orig
        grads[i] = (f1 - f2) / (2.0 * h)
    return grads


def reference_forward(net, x):
    """Activations [input, layer outputs...] by the plain `h @ w + b` formulas."""
    h = np.atleast_2d(np.asarray(x, dtype=net.dtype))
    acts = [h]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        if i < net.n_layers - 1:
            h = np.maximum(z, 0.0)
        elif net.output_activation == "tanh":
            h = np.tanh(z)
        else:
            h = z
        acts.append(h)
    return acts


def reference_backward(net, acts, upstream):
    """(flat weight gradients, input gradient) with a fresh array per step."""
    delta = np.atleast_2d(np.asarray(upstream, dtype=net.dtype))
    if net.output_activation == "tanh":
        delta = delta * (1.0 - acts[-1] ** 2)
    flat = np.empty_like(net.flat)
    views = net.unflatten(flat)
    for i in range(net.n_layers - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=views[2 * i])
        np.sum(delta, axis=0, out=views[2 * i + 1])
        delta = delta @ net.weights[i].T
        if i > 0:
            delta = delta * (acts[i] > 0)
    return flat, delta


def reference_adam_step(params, m, v, t, g, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The 13 whole-buffer Adam operations, in place; t is the new step count."""
    dt = params.dtype.type
    b1t = 1.0 - beta1**t
    b2t = 1.0 - beta2**t
    s = np.empty_like(params)
    m *= dt(beta1)
    np.multiply(g, dt(1.0 - beta1), out=s)
    m += s
    v *= dt(beta2)
    np.multiply(g, g, out=s)
    s *= dt(1.0 - beta2)
    v += s
    np.multiply(v, dt(1.0 / b2t), out=s)
    np.sqrt(s, out=s)
    s += dt(eps)
    np.divide(m, s, out=s)
    s *= dt(lr / b1t)
    params -= s


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b))


class TestForward:
    def test_zero_parameters_zero_output(self):
        net = Mlp([4, 8, 3], "tanh")
        net.flat[:] = 0.0
        out = net.forward(np.ones(4))
        assert np.array_equal(out, np.zeros(3))

    def test_identity_single_layer(self):
        net = Mlp([3, 3], "linear")
        net.weights[0][:] = np.eye(3)
        net.biases[0][:] = 0.0
        x = np.array([0.5, -1.2, 2.0], dtype=np.float32)
        assert np.allclose(net.forward(x), x)

    def test_matches_hand_rolled_matrix_products(self):
        # independent oracle: explicit matrix products and maximum(0, .)
        rng = np.random.default_rng(5)
        net = Mlp([6, 10, 4], "tanh", rng, np.float64)
        x = rng.normal(size=(7, 6))
        h = np.maximum(x @ net.weights[0] + net.biases[0], 0.0)
        expected = np.tanh(h @ net.weights[1] + net.biases[1])
        assert np.allclose(net.forward(x), expected, atol=1e-6)

    @pytest.mark.parametrize("dims,act", PRODUCTION_STACKS)
    def test_bit_equal_to_reference_production_stacks(self, dims, act):
        rng = np.random.default_rng(20)
        net = Mlp(dims, act, rng)
        x1 = rng.normal(size=dims[0]).astype(np.float32)
        assert np.array_equal(net.forward(x1), reference_forward(net, x1)[-1][0])
        for batch in (1, 100):
            x = rng.normal(size=(batch, dims[0])).astype(np.float32)
            out = net.forward(x)
            assert out.dtype == np.float32
            assert np.array_equal(out, reference_forward(net, x)[-1])

    def test_returned_output_not_aliased(self):
        rng = np.random.default_rng(21)
        net = Mlp([6, 10, 3], "tanh", rng)
        x1, x2 = rng.normal(size=(2, 4, 6)).astype(np.float32)
        first = net.forward(x1)
        kept = first.copy()
        net.forward(x2)
        assert np.array_equal(first, kept)

    def test_dimension_mismatch_rejected(self):
        net = Mlp([4, 2])
        with pytest.raises(ValueError):
            net.forward(np.ones(5))


class TestBackward:
    def test_finite_difference_toy_float64(self):
        rng = np.random.default_rng(1)
        net = Mlp([4, 8, 2], "tanh", rng, np.float64)
        x = rng.normal(size=(3, 4))
        up = rng.normal(size=(3, 2))
        net.forward(x)
        grads, _ = net.backward(up)
        fd = finite_difference_grads(net, x, up, h=1e-6)
        assert np.max(rel_err(grads, fd)) < 1e-5

    def test_finite_difference_toy_float32(self):
        rng = np.random.default_rng(2)
        net = Mlp([4, 8, 2], "linear", rng, np.float32)
        x = rng.normal(size=(5, 4)).astype(np.float32)
        up = rng.normal(size=(5, 2)).astype(np.float32)
        net.forward(x)
        grads, _ = net.backward(up)
        fd = finite_difference_grads(net, x, up, h=1e-3)
        # float32 central differences have ~1e-4 absolute cancellation noise;
        # check relative error above that floor, absolute error below it
        err = rel_err(grads, fd)
        ok = (err < 1e-2) | (np.abs(grads - fd) < 5e-4)
        assert np.all(ok)

    def test_input_gradient_finite_difference(self):
        rng = np.random.default_rng(3)
        net = Mlp([5, 9, 3], "tanh", rng, np.float64)
        x = rng.normal(size=(2, 5))
        up = rng.normal(size=(2, 3))
        net.forward(x)
        _, d_in = net.backward(up)
        h = 1e-6
        fd = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                fd[i, j] = (np.sum(net.forward(xp) * up) - np.sum(net.forward(xm) * up)) / (2 * h)
        assert np.max(np.abs(fd - d_in)) < 1e-8

    def test_zero_upstream_zero_grads(self):
        net = Mlp([4, 6, 2], "tanh", np.random.default_rng(4))
        x = np.ones((2, 4), dtype=np.float32)
        net.forward(x)
        grads, d_in = net.backward(np.zeros((2, 2)))
        assert np.all(grads == 0.0)
        assert np.all(d_in == 0.0)

    def test_dead_unit_blocks_gradient(self):
        net = Mlp([1, 1, 1], "linear", dtype=np.float64)
        net.weights[0][:] = 1.0
        net.biases[0][:] = -5.0  # pre-activation negative for small inputs
        net.weights[1][:] = 1.0
        net.forward(np.array([[1.0]]))
        grads, d_in = net.backward(np.array([[1.0]]))
        views = net.unflatten(grads)
        assert views[0][0, 0] == 0.0  # w0 gradient blocked by the dead unit
        assert d_in[0, 0] == 0.0

    @pytest.mark.parametrize("dims,act", PRODUCTION_STACKS)
    def test_bit_equal_to_reference_production_stacks(self, dims, act):
        rng = np.random.default_rng(22)
        net = Mlp(dims, act, rng)
        for batch in (1, 100):
            x = rng.normal(size=(batch, dims[0])).astype(np.float32)
            up = rng.normal(size=(batch, dims[-1])).astype(np.float32)
            ref_grads, ref_d_in = reference_backward(net, reference_forward(net, x), up)
            net.forward(x)
            grads, d_in = net.backward(up)
            assert np.array_equal(grads, ref_grads)
            assert np.array_equal(d_in, ref_d_in)
            net.forward(x)
            grads, d_in = net.backward(up, need_input_grad=False)
            assert d_in is None
            assert np.array_equal(grads, ref_grads)
            net.forward(x)
            grads, d_in = net.backward(up, need_param_grads=False)
            assert grads is None
            assert np.array_equal(d_in, ref_d_in)

    def test_backward_requires_forward(self):
        net = Mlp([2, 2])
        with pytest.raises(RuntimeError):
            net.backward(np.ones((1, 2)))


class TestAdamAndPolyak:
    def test_adam_first_step_is_lr_sized(self):
        # with a constant gradient the bias-corrected first step equals lr * sign(g)
        params = np.array([1.0, -1.0, 0.5], dtype=np.float32)
        opt = Adam(params, lr=0.01)
        g = np.array([3.0, -2.0, 0.1], dtype=np.float32)
        before = params.copy()
        opt.step(g)
        assert np.allclose(before - params, 0.01 * np.sign(g), atol=1e-6)

    def test_adam_converges_on_quadratic(self):
        params = np.array([5.0], dtype=np.float64)
        opt = Adam(params, lr=0.1)
        for _ in range(500):
            opt.step(2.0 * params)  # d/dx x^2
        assert abs(params[0]) < 1e-3

    def test_adam_chunked_bit_equal_to_whole_buffer_reference(self):
        rng = np.random.default_rng(9)
        n = 2 * CHUNK + 123
        params = rng.normal(size=n).astype(np.float32)
        ref_params, ref_m, ref_v = params.copy(), np.zeros(n, np.float32), np.zeros(n, np.float32)
        opt = Adam(params, lr=1e-3)
        for t in range(1, 6):
            g = rng.normal(size=n).astype(np.float32)
            opt.step(g)
            reference_adam_step(ref_params, ref_m, ref_v, t, g, lr=1e-3)
        assert opt.t == 5
        assert np.array_equal(params, ref_params)
        assert np.array_equal(opt.m, ref_m)
        assert np.array_equal(opt.v, ref_v)

    def test_polyak_exact_formula(self):
        rng = np.random.default_rng(8)
        for dims in ([4, 6, 2], [CHUNK // 128, 200, 2]):  # one chunk; a full chunk and a partial one
            online = Mlp(dims, "tanh", rng)
            target = online.copy()
            target.flat[:] = rng.normal(size=target.flat.shape).astype(np.float32)
            tau = np.float32(0.005)
            expected = target.flat * (np.float32(1.0) - tau) + tau * online.flat
            target.polyak_from(online, 0.005)
            assert np.array_equal(target.flat, expected)

    def test_copy_is_independent(self):
        net = Mlp([3, 4, 1])
        clone = net.copy()
        clone.flat[:] = 0.0
        assert not np.array_equal(net.flat, clone.flat)


class TestFullLayerShapes:
    def test_finite_difference_sampled_full_shapes(self):
        # the production actor/critic stacks, checked on a random subset of
        # parameters per tensor (full enumeration would take hours)
        rng = np.random.default_rng(10)
        for dims, act in (
            ([15, 512, 512, 256, 128, 3], "tanh"),
            ([18, 512, 512, 256, 128, 1], "linear"),
        ):
            net = Mlp(dims, act, rng, np.float64)
            x = rng.normal(size=(4, dims[0]))
            up = rng.normal(size=(4, dims[-1]))
            net.forward(x)
            grads, _ = net.backward(up)
            h = 1e-6
            idx = rng.choice(net.flat.size, size=300, replace=False)
            for i in idx:
                orig = net.flat[i]
                net.flat[i] = orig + h
                f1 = float(np.sum(net.forward(x) * up))
                net.flat[i] = orig - h
                f2 = float(np.sum(net.forward(x) * up))
                net.flat[i] = orig
                fd = (f1 - f2) / (2 * h)
                assert rel_err(np.array(fd), np.array(grads[i])) < 1e-5 or abs(fd - grads[i]) < 1e-9
