"""Dense float64 math substrate.

Everything downstream (losses, the dual-branch model, the context encoder)
is built from the handful of primitives here, each with a hand-derived
backward pass. ``grad_check`` is the verification oracle that gates the
rest of the package: any new loss or layer must match finite differences
before it is trusted. Every layer runs through ReLUs, so the oracle does
not take a central difference across a kink for a derivative: an element
whose central difference misses its analytic value by more than smooth
curvature and roundoff explain is re-measured at eps/10, then eps/100,
and an element with a kink at the point itself is compared with its
nearer one-sided slope and reported by ``warnings.warn``. The returned
value is still the max over parameters of the per-parameter relative
error.
"""

import math
import warnings

import numpy as np


class ConfigurationError(ValueError):
    """An unusable combination of configuration values."""


def as_array(x):
    """Coerce to a float64 ndarray (the only dtype this package computes in)."""
    return np.asarray(x, dtype=np.float64)


def softmax(z, axis=-1):
    """Numerically stable softmax along ``axis`` (max-subtraction).

    Raises ValueError on empty input. Output rows are nonnegative and sum
    to 1 within 1e-12 even for entries with magnitude up to ~1e3.
    """
    z = as_array(z)
    if z.size == 0:
        raise ValueError("softmax of an empty array")
    e = z - np.maximum.reduce(z, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def log_softmax(z, axis=-1):
    z = as_array(z)
    if z.size == 0:
        raise ValueError("log_softmax of an empty array")
    shifted = z - np.maximum.reduce(z, axis=axis, keepdims=True)
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))
    return shifted


def softmax_vjp(p, grad_p, axis=-1):
    """Backward through softmax: given p = softmax(z) and dL/dp, return dL/dz."""
    inner = np.add.reduce(p * grad_p, axis=axis, keepdims=True)
    return p * (grad_p - inner)


def linear_forward(x, w, b):
    """y = x @ w + b for x of shape (n, fan_in) or (G, n, fan_in), w (fan_in,
    fan_out), b (fan_out,)."""
    y = x @ w
    y += b
    return y


def linear_backward(x, w, grad_y):
    """Gradients of a linear layer: returns (grad_x, grad_w, grad_b).

    For a (G, n, fan_in) stack, grad_w and grad_b are (G, ...) stacks of the
    per-image gradients, which ``ParamStore.accumulate`` adds in stack order,
    so each image's gradient keeps the bits of its own call. The extractor
    and decoders use this; the set encoder forms each of its parameter
    gradients as one product over the stack's rows instead.
    """
    return grad_y @ w.T, x.swapaxes(-1, -2) @ grad_y, np.add.reduce(grad_y, axis=-2)


def relu(x):
    return np.maximum(x, 0.0)


def relu_backward(pre_activation, grad_out):
    return grad_out * (pre_activation > 0.0)


def glorot_uniform(rng, fan_in, fan_out):
    """Uniform init in [-a, a] with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


class ParamStore:
    """Named float64 parameters, fixed by a layout, with gradient
    accumulators for the trainable ones.

    ``layout``, unique (name, shape, trainable) triples, sizes three flat
    arenas once: trainable parameters, frozen parameters (embedding tables,
    the prior-bias table) and the trainable parameters' gradients.
    ``store[name]`` and ``store.grad(name)`` are reshaped views into them,
    so ``sgd_step`` is one update of the trainable arena and ``zero_grads``
    one fill. Every parameter starts at zero and ``add`` copies a value into
    its slot. A frozen parameter has no gradient: ``grad`` and
    ``accumulate`` reject it. Single-writer during training: no concurrent
    mutation.
    """

    def __init__(self, layout):
        # name -> (trainable, offset into its arena, shape)
        self._slots = {}
        sizes = {True: 0, False: 0}
        for name, shape, trainable in layout:
            if name in self._slots:
                raise ValueError(f"duplicate parameter name {name!r}")
            kind, shape = bool(trainable), tuple(shape)
            self._slots[name] = (kind, sizes[kind], shape)
            sizes[kind] += math.prod(shape)
        self._arenas = {kind: np.zeros(size) for kind, size in sizes.items()}
        self._grad_arena = np.zeros(sizes[True])
        self._bind()

    def _bind(self):
        self._params, self._grads = {}, {}
        for name, (kind, offset, shape) in self._slots.items():
            span = slice(offset, offset + math.prod(shape))
            self._params[name] = self._arenas[kind][span].reshape(shape)
            if kind:
                self._grads[name] = self._grad_arena[span].reshape(shape)

    def add(self, name, value):
        """Copy a value into the slot the layout gives ``name``."""
        if name not in self._slots:
            raise ValueError(f"parameter {name!r} is not in the store's layout")
        value = as_array(value)
        param = self._params[name]
        if value.shape != param.shape:
            raise ValueError(
                f"parameter {name!r} of shape {value.shape} does not fit its "
                f"slot of shape {param.shape}"
            )
        param[...] = value

    def __getstate__(self):
        # the views are rebuilt from the arenas, so a copy shares no memory
        return {"slots": self._slots, "arenas": self._arenas,
                "grad_arena": self._grad_arena}

    def __setstate__(self, state):
        self._slots = state["slots"]
        self._arenas = state["arenas"]
        self._grad_arena = state["grad_arena"]
        self._bind()

    def __getitem__(self, name):
        return self._params[name]

    def grad(self, name):
        """The gradient buffer of a trainable parameter."""
        try:
            return self._grads[name]
        except KeyError:
            if name in self._slots:
                raise ValueError(f"frozen parameter {name!r} has no gradient") from None
            raise

    def is_trainable(self, name):
        return self._slots[name][0]

    def names(self):
        return sorted(self._params)

    def trainable_names(self):
        return sorted(self._grads)

    def zero_grads(self):
        self._grad_arena.fill(0.0)

    def accumulate(self, name, grad):
        """Add a gradient, or a (G, ...) stack of gradients one at a time.

        A stack is added in order, so the buffer holds exactly what G
        separate calls would leave. (``np.add.reduce`` over the stack does
        not: for a one-element parameter and G >= 8 it sums pairwise.)
        """
        buf = self.grad(name)
        shape = np.shape(grad)
        if shape == buf.shape:
            buf += grad
        elif shape[1:] == buf.shape:
            for g in grad:
                buf += g
        else:
            raise ValueError(
                f"gradient shape {shape} does not match parameter "
                f"{name!r} of shape {buf.shape}"
            )

    def sgd_step(self, learning_rate):
        self._arenas[True] -= learning_rate * self._grad_arena


# grad_check: a central difference that misses the analytic value by more
# than this share of its one-sided slope gap is re-measured at smaller steps
_SMOOTH_MISS = 0.1
# grad_check: loss roundoff allowed for, in ulps of the largest loss value
_ROUNDOFF_ULPS = 64.0


def _roundoff(h, *losses):
    """Roundoff allowance for a difference quotient of ``losses`` at step h."""
    return _ROUNDOFF_ULPS * np.finfo(np.float64).eps * max(map(abs, losses)) / h


def grad_check(loss_fn, store, eps=1e-5, names=None):
    """Max relative error between analytic and finite-difference gradients.

    ``loss_fn(store)`` must return a scalar loss and accumulate the analytic
    gradients into the store; it must be deterministic. Every element of
    every checked parameter is perturbed by +/-eps; per parameter, the
    analytic and measured gradients are compared as
    |analytic - measured| / max(|analytic|, |measured|, 1e-8) with |.| the
    Euclidean norm over the parameter, and the max over parameters is
    returned. (The per-parameter norm is what finite differences can
    actually resolve: individual elements whose true derivative sits near
    the float64 differencing floor would otherwise report pure roundoff.)
    ``names`` restricts the check to a subset of the trainable parameters.

    An element's measured gradient is its central difference, unless a
    ReLU kink inside the step may have biased it. With up = (plus - base)
    / eps and down = (base - minus) / eps its one-sided slopes, a smooth
    loss makes the central difference miss the analytic value by far less
    than the gap |up - down|, which is curvature times eps. An element
    that misses by more than a tenth of that gap plus roundoff (64 ulps of
    the loss, over the step) is re-measured: a kink crossed by one step
    makes the miss half the gap, and one whose slope jump cancels the
    curvature leaves the miss with no gap at all. Only these elements
    cost loss evaluations beyond the first two.

    Re-measuring takes steps h = eps/10, then eps/100, and keeps the first
    central difference whose one-sided slopes agree: their gap is at most
    2 (h / eps) C plus roundoff, with C = gap at eps + 2 |central at eps -
    central at h| the curvature scale seen at eps (the second term restores
    curvature a kink cancelled). A smooth gap shrinks with the step; a gap
    across a kink does not. The kept value is a central difference of the
    same loss, so a wrong backward still fails.

    An element whose slopes disagree at every step down to eps/100 has a
    kink at the point itself, where either one-sided slope is a valid
    backward. It is compared with the slope at eps/100 nearer the analytic
    value, and ``warnings.warn`` names the parameter and the flat index.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    checked = store.trainable_names() if names is None else sorted(names)
    for name in checked:
        if not store.is_trainable(name):
            raise ValueError(f"cannot grad-check frozen parameter {name!r}")
    store.zero_grads()
    base = float(loss_fn(store))
    if not math.isfinite(base):
        raise ValueError("non-finite loss at the unperturbed point")
    analytic = {n: store.grad(n).copy() for n in checked}

    worst = 0.0
    for name in checked:
        flat = store[name].reshape(-1)
        target = analytic[name].reshape(-1)

        def losses_at(i, h):
            orig = flat[i]
            flat[i] = orig + h
            store.zero_grads()
            plus = float(loss_fn(store))
            flat[i] = orig - h
            store.zero_grads()
            minus = float(loss_fn(store))
            flat[i] = orig
            if not (math.isfinite(plus) and math.isfinite(minus)):
                raise ValueError(
                    f"non-finite loss while perturbing parameter {name!r} "
                    f"at flat index {i}"
                )
            return plus, minus

        measured = np.zeros(flat.size)
        for i in range(flat.size):
            plus, minus = losses_at(i, eps)
            central = (plus - minus) / (2.0 * eps)
            gap = abs(plus - 2.0 * base + minus) / eps
            smooth_miss = _SMOOTH_MISS * gap + _roundoff(eps, base, plus, minus)
            if abs(central - target[i]) <= smooth_miss:
                measured[i] = central
                continue
            for h in (eps / 10.0, eps / 100.0):
                plus, minus = losses_at(i, h)
                central_h = (plus - minus) / (2.0 * h)
                gap_h = abs(plus - 2.0 * base + minus) / h
                curvature = gap + 2.0 * abs(central - central_h)
                smooth_gap = 2.0 * (h / eps) * curvature + _roundoff(h, base, plus, minus)
                if gap_h <= smooth_gap:
                    measured[i] = central_h
                    break
            else:
                up, down = (plus - base) / h, (base - minus) / h
                measured[i] = min((up, down), key=lambda s: abs(s - target[i]))
                warnings.warn(
                    f"grad_check: parameter {name!r} has a kink at flat index "
                    f"{i} (one-sided slopes {down:.6g} below, {up:.6g} "
                    f"above); compared with the one nearer the analytic value",
                    stacklevel=2,
                )
        a_norm = float(np.linalg.norm(target))
        m_norm = float(np.linalg.norm(measured))
        diff = float(np.linalg.norm(target - measured))
        worst = max(worst, diff / max(a_norm, m_norm, 1e-8))
    # leave the store holding the analytic gradients of the unperturbed point
    store.zero_grads()
    loss_fn(store)
    return worst
