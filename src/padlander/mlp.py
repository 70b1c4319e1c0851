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
with it (or copy it) before then. Given a submit callable, one backward()
writes that buffer from two threads: the caller walks the delta chain
while submitted jobs write each layer's weight and bias gradients, and
backward() joins every job before it returns or raises. Every float
operation runs in the same order as the plain `h @ w + b` formulation
that tests/test_mlp.py keeps as its reference, so results are
bit-identical to it.

Parameters default to float32; float64 is available for gradient
verification against finite differences.
"""

import functools
import itertools
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

# Elements per chunk of the Adam and Polyak passes: 64Ki float32 is 256 KiB
# per stream, so Adam's five streams (params, grads, m, v, scratch) take
# 1.25 MiB and stay in a 2 MiB per-core L2 (Sapphire Rapids). There, with
# the streams evicted from L2 between steps as the matmuls do, 64Ki chunks
# ran Adam 7-12% faster than 32Ki or 128Ki ones; 4Ki chunks lose more to
# per-call overhead than they gain, and whole buffers run 40-50% slower.
CHUNK = 1 << 16
# Adam's moment decay rates and denominator offset (Kingma & Ba defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _polyak_chunk(target: np.ndarray, online: np.ndarray, tau: float, s: np.ndarray) -> None:
    """target <- tau * online + (1 - tau) * target for one chunk; s is scratch of its length."""
    dt = target.dtype.type
    target *= dt(1.0 - tau)
    np.multiply(online, dt(tau), out=s)
    target += s


class Mlp:
    def __init__(
        self,
        layer_dims: Sequence[int],
        output_activation: str = "linear",
        rng: Optional[np.random.Generator] = None,
        dtype=np.float32,
    ):
        if len(layer_dims) < 2:
            raise ValueError(f"need at least an input and an output dimension, got {list(layer_dims)}")
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched forward pass; x is (batch, in) or (in,). Returns a fresh array."""
        x = np.asarray(x, dtype=self.dtype)
        squeeze = x.ndim == 1
        h = np.atleast_2d(x)
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
        self,
        upstream: np.ndarray,
        need_input_grad: bool = True,
        need_param_grads: bool = True,
        submit: Optional[Callable] = None,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Gradients of sum(output * upstream) w.r.t. parameters and input.

        Requires a preceding forward() call; returns (flat_grads, d_input)
        where flat_grads shares the layout of self.flat.
        flat_grads is a buffer this net owns: the next backward() on the same
        net overwrites it. d_input is a fresh array. Either is None when its
        need_* flag is false, which skips its products: the layer-0 input
        product, or every weight-gradient product and bias sum.

        With submit (an executor's submit: it takes a job and returns its
        concurrent.futures.Future), each layer's weight-gradient product and
        bias sum are submitted as soon as that layer's delta exists, while
        this thread goes on down the delta chain. Each job reads buffers
        this thread no longer writes. Every job is joined before backward()
        returns or raises, and a job's error is raised here.
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
        jobs = []
        try:
            for i in range(self.n_layers - 1, -1, -1):
                if need_param_grads:
                    if submit is None:
                        self._param_grads(i, acts[i], delta)
                    else:
                        jobs.append(submit(functools.partial(self._param_grads, i, acts[i], delta)))
                if i > 0:
                    nxt, mask = deltas[i - 1], masks[i - 1]
                    np.matmul(delta, self.weights[i].T, out=nxt)
                    np.greater(acts[i], 0, out=mask)
                    np.multiply(nxt, mask, out=nxt)
                    delta = nxt
            d_input = delta @ self.weights[0].T if need_input_grad else None
        finally:
            for job in jobs:
                job.exception()  # waits for the job without raising its error
        for job in jobs:
            job.result()
        return (self._grads if need_param_grads else None), d_input

    def _param_grads(self, i: int, h: np.ndarray, delta: np.ndarray) -> None:
        """Layer i's weight gradient h.T @ delta and bias gradient, into the flat gradient buffer."""
        gw, gb = self._grad_views
        np.matmul(h.T, delta, out=gw[i])
        np.sum(delta, axis=0, out=gb[i])

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

    def polyak_from(self, online: "Mlp", tau: float) -> None:
        """target <- tau * online + (1 - tau) * target, in place.

        No update calls it (Td3Learner.update fuses it into Adam.step); it
        stays as the tests' sequential reference and perfbench's traced span.
        """
        if self._scratch is None:
            self._scratch = np.empty(min(CHUNK, self.n_params), self.dtype)
        for start in range(0, self.n_params, CHUNK):
            c = slice(start, min(start + CHUNK, self.n_params))
            _polyak_chunk(self.flat[c], online.flat[c], tau, self._scratch[: c.stop - c.start])


class Adam:
    """Adam over one flat parameter buffer."""

    def __init__(self, flat_params: np.ndarray, lr: float):
        self.params = flat_params
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(flat_params)
        self.v = np.zeros_like(flat_params)
        self._scratch = np.empty(min(CHUNK, flat_params.size), flat_params.dtype)
        self._worker_scratch = None  # the second lane's chunk, made on its first use

    def step(
        self, flat_grads: np.ndarray, target: Optional[Mlp] = None, tau: float = 0.0, both: Optional[Callable] = None
    ) -> None:
        """One Adam step; with target, then target.polyak_from(online, tau) where online owns the parameters.

        Each chunk's Polyak pass runs right after its Adam pass, so every
        element sees the float operations of step() followed by polyak_from()
        in the same order. Given both (td3's two-lane runner: both(mine,
        theirs) runs the two thunks and returns once both have finished),
        the two lanes claim chunks from one shared counter, each lane with
        its own scratch chunk, until none is left: a lane that starts late,
        still busy with earlier work, steps few chunks or none, and when
        both runs mine() first on this thread it steps every chunk in order.
        """
        if flat_grads.shape != self.params.shape:
            raise ValueError(f"gradient shape {flat_grads.shape} != parameter shape {self.params.shape}")
        g = flat_grads.astype(self.params.dtype, copy=False)
        dt = self.params.dtype.type
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        beta1, one_m_beta1 = dt(ADAM_BETA1), dt(1.0 - ADAM_BETA1)
        beta2, one_m_beta2 = dt(ADAM_BETA2), dt(1.0 - ADAM_BETA2)
        inv_b2t, eps, step = dt(1.0 / b2t), dt(ADAM_EPS), dt(self.lr / b1t)
        n = self.params.size
        starts = itertools.count(0, CHUNK)  # next() on it is atomic under the GIL: each start goes to one lane

        def run(scratch: np.ndarray) -> None:
            for start in starts:
                if start >= n:
                    return
                c = slice(start, min(start + CHUNK, n))
                m, v, gc, p = self.m[c], self.v[c], g[c], self.params[c]
                s = scratch[: c.stop - c.start]
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
                p -= s
                if target is not None:
                    _polyak_chunk(target.flat[c], p, tau, s)

        if both is None:
            run(self._scratch)
            return
        if self._worker_scratch is None:
            self._worker_scratch = np.empty_like(self._scratch)
        both(lambda: run(self._scratch), lambda: run(self._worker_scratch))
