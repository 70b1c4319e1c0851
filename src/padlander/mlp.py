"""Plain-numpy feedforward networks with hand-written backprop and Adam.

Hidden layers are rectified linear; the output is linear or tanh-squashed.
forward() caches layer activations so backward() can return exact
reverse-mode gradients for every weight and bias plus the gradient with
respect to the input (needed to push critic gradients into the actor).

All parameters of a network live in one contiguous flat buffer; the
per-layer weight matrices and bias vectors are views into it. That keeps
the optimizer and the target-network Polyak update single flat passes
instead of a dozen small ones. Those passes run CHUNK elements at a time,
so every stream of one chunk stays in L2 cache between the elementwise
operations.

Buffer ownership: a net allocates its activation, delta and ReLU-mask
buffers once per batch size, and one flat gradient buffer. forward()
returns a fresh array. The flat gradient buffer returned by backward() is
overwritten by the next backward() on the same net; step the optimizer
with it (or copy it) before then. Every float operation runs in the same
order as the plain `h @ w + b` formulation that tests/test_mlp.py keeps as
its reference, so results are bit-identical to it.

Parameters default to float32; float64 is available for gradient
verification against finite differences.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

# Elements per chunk of the Adam and Polyak passes: 64Ki float32 is 256 KiB
# per stream, so Adam's five streams (params, grads, m, v, scratch) take
# 1.25 MiB and stay in a 2 MiB per-core L2 (Sapphire Rapids). There, with
# the streams evicted from L2 between steps as the matmuls do, 64Ki chunks
# ran Adam 7-12% faster than 32Ki or 128Ki ones; 4Ki chunks lose more to
# per-call overhead than they gain, and whole buffers run 40-50% slower.
CHUNK = 1 << 16


def _chunks(n: int):
    for lo in range(0, n, CHUNK):
        yield slice(lo, min(lo + CHUNK, n))


class Mlp:
    def __init__(
        self,
        layer_dims: Sequence[int],
        output_activation: str = "linear",
        rng: Optional[np.random.Generator] = None,
        dtype=np.float32,
    ):
        if len(layer_dims) < 2:
            raise ValueError("need at least an input and an output dimension")
        if output_activation not in ("linear", "tanh"):
            raise ValueError(f"unsupported output activation {output_activation!r}")
        self.layer_dims = list(layer_dims)
        self.output_activation = output_activation
        self.dtype = dtype
        self.n_params = sum(
            i * o + o for i, o in zip(layer_dims[:-1], layer_dims[1:])
        )
        self.flat = np.zeros(self.n_params, dtype=dtype)
        self.weights, self.biases = self._views(self.flat)
        rng = rng or np.random.default_rng(0)
        for w in self.weights:
            # He-style scaling for the rectifier stack.
            fan_in = w.shape[0]
            w[:] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=w.shape)
        self._reset_buffers()

    def _reset_buffers(self) -> None:
        self._cache = None
        self._acts = {}  # batch size -> [input, layer outputs...]
        self._deltas = {}  # batch size -> (per-layer deltas, hidden ReLU masks)
        self._grads = self._grad_views = None
        self._scratch = None  # one Polyak chunk

    def _views(self, flat: np.ndarray):
        weights, biases, off = [], [], 0
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            weights.append(flat[off : off + fan_in * fan_out].reshape(fan_in, fan_out))
            off += fan_in * fan_out
            biases.append(flat[off : off + fan_out])
            off += fan_out
        return weights, biases

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def unflatten(self, flat: np.ndarray) -> List[np.ndarray]:
        """View a flat gradient buffer with the parameter layout."""
        w, b = self._views(flat)
        out = []
        for wi, bi in zip(w, b):
            out.append(wi)
            out.append(bi)
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched forward pass; x is (batch, in) or (in,). Returns a fresh array."""
        squeeze = x.ndim == 1
        h = np.atleast_2d(np.asarray(x, dtype=self.dtype))
        if h.shape[1] != self.layer_dims[0]:
            raise ValueError(f"input dim {h.shape[1]} != expected {self.layer_dims[0]}")
        acts = self._acts.get(h.shape[0])
        if acts is None:
            acts = [None] + [np.empty((h.shape[0], d), self.dtype) for d in self.layer_dims[1:]]
            self._acts[h.shape[0]] = acts
        acts[0] = h
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[i + 1]
            np.matmul(h, w, out=z)
            z += b
            if i < self.n_layers - 1:
                np.maximum(z, 0.0, out=z)
            elif self.output_activation == "tanh":
                np.tanh(z, out=z)
            h = z
        self._cache = acts
        return h[0].copy() if squeeze else h.copy()

    def backward(
        self, upstream: np.ndarray, need_input_grad: bool = True, need_param_grads: bool = True
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Gradients of sum(output * upstream) w.r.t. parameters and input.

        Requires a preceding forward() call; returns (flat_grads, d_input)
        where flat_grads shares the layout of self.flat (see unflatten()).
        flat_grads is a buffer this net owns: the next backward() on the same
        net overwrites it. d_input is a fresh array. Either is None when its
        need_* flag is false, which skips its products: the layer-0 input
        product, or every weight-gradient product and bias sum.
        """
        if self._cache is None:
            raise RuntimeError("backward() without a cached forward() pass")
        acts = self._cache
        b = acts[0].shape[0]
        up = np.atleast_2d(np.asarray(upstream, dtype=self.dtype))
        if up.shape != acts[-1].shape:
            raise ValueError(f"upstream shape {up.shape} != output shape {acts[-1].shape}")
        bufs = self._deltas.get(b)
        if bufs is None:
            dims = self.layer_dims[1:]
            bufs = self._deltas[b] = (
                [np.empty((b, d), self.dtype) for d in dims],
                [np.empty((b, d), bool) for d in dims[:-1]],
            )
        deltas, masks = bufs
        delta = up
        if self.output_activation == "tanh":
            # delta = upstream * (1 - out**2), one rounding per operation
            delta = deltas[-1]
            np.square(acts[-1], out=delta)
            np.subtract(1.0, delta, out=delta)
            np.multiply(up, delta, out=delta)
        if self._grads is None:
            self._grads = np.empty_like(self.flat)
            self._grad_views = self._views(self._grads)
        gw, gb = self._grad_views
        for i in range(self.n_layers - 1, -1, -1):
            if need_param_grads:
                np.matmul(acts[i].T, delta, out=gw[i])
                np.sum(delta, axis=0, out=gb[i])
            if i > 0:
                nxt, mask = deltas[i - 1], masks[i - 1]
                np.matmul(delta, self.weights[i].T, out=nxt)
                np.greater(acts[i], 0, out=mask)
                np.multiply(nxt, mask, out=nxt)
                delta = nxt
        d_input = delta @ self.weights[0].T if need_input_grad else None
        return (self._grads if need_param_grads else None), d_input

    def copy(self) -> "Mlp":
        clone = Mlp.__new__(Mlp)
        clone.layer_dims = list(self.layer_dims)
        clone.output_activation = self.output_activation
        clone.dtype = self.dtype
        clone.n_params = self.n_params
        clone.flat = self.flat.copy()
        clone.weights, clone.biases = clone._views(clone.flat)
        clone._reset_buffers()
        return clone

    def load_flat(self, flat: np.ndarray) -> None:
        if flat.shape != self.flat.shape:
            raise ValueError(f"parameter vector shape {flat.shape} != {self.flat.shape}")
        self.flat[:] = flat

    def polyak_from(self, online: "Mlp", tau: float) -> None:
        """target <- tau * online + (1 - tau) * target, in place."""
        keep, take = self.dtype(1.0 - tau), self.dtype(tau)
        if self._scratch is None:
            self._scratch = np.empty(min(CHUNK, self.n_params), self.dtype)
        for c in _chunks(self.n_params):
            target = self.flat[c]
            s = self._scratch[: c.stop - c.start]
            target *= keep
            np.multiply(online.flat[c], take, out=s)
            target += s

    def all_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.flat)))


class Adam:
    """Adam over one flat parameter buffer."""

    def __init__(self, flat_params: np.ndarray, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = flat_params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(flat_params)
        self.v = np.zeros_like(flat_params)
        self._scratch = np.empty(min(CHUNK, flat_params.size), flat_params.dtype)

    def step(self, flat_grads: np.ndarray) -> None:
        if flat_grads.shape != self.params.shape:
            raise ValueError("gradient buffer does not match parameter buffer")
        g = flat_grads.astype(self.params.dtype, copy=False)
        dt = self.params.dtype.type
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        beta1, one_m_beta1 = dt(self.beta1), dt(1.0 - self.beta1)
        beta2, one_m_beta2 = dt(self.beta2), dt(1.0 - self.beta2)
        inv_b2t, eps, step = dt(1.0 / b2t), dt(self.eps), dt(self.lr / b1t)
        for c in _chunks(self.params.size):
            m, v, gc = self.m[c], self.v[c], g[c]
            s = self._scratch[: c.stop - c.start]
            m *= beta1
            np.multiply(gc, one_m_beta1, out=s)
            m += s
            v *= beta2
            np.multiply(gc, gc, out=s)
            s *= one_m_beta2
            v += s
            np.multiply(v, inv_b2t, out=s)
            np.sqrt(s, out=s)
            s += eps
            np.divide(m, s, out=s)
            s *= step
            self.params[c] -= s
