"""Hypothesis classes and weighted ERM fitters.

Three regression classes: norm-bounded linear predictors (exact
constrained weighted least squares), piecewise-constant step functions on
[0, 1) (per-bin weighted means), and box-constrained ReLU networks fitted
by projected full-batch gradient descent (approximate ERM; the achieved
empirical risk is recorded).

The network fitter keeps all parameters in one flat vector, W then b for
each layer, so a layer's stacked [W; b] is one reshaped view and its
(W, b) are two more; each step updates and clips that vector in place and
saves an improving iterate with one copy.  The step loop is feature-major:
each layer's input is a (fan_in + 1, n) buffer whose last row is ones, so
one product applies W and b together and one product writes [gW; gb].  A
fit is deterministic per seed.  Its bytes are pinned, and it agrees with
a row-major reference loop kept in the tests to 1e-12 relative in the
achieved risk and 1e-7 in every parameter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .processes import CovariateLaw, ProcessSpec, SamplePath, law_second_moment
from .processes import refuse_unread, sample_covariates
from .weights import WeightVector

# Relative floor under which the weighted Gram matrix counts as deficient.
GRAM_EIG_FLOOR = 1e-8

# Projected-gradient defaults for the network fitter.
NET_STEP_SIZE = 0.05
NET_ITERATIONS = 5000

MC_DRAWS_DEFAULT = 100_000

# A class sized from the weight norm u has ceil(u^-SIZE_EXPONENT) pieces: its covering growth alpha.
SIZE_EXPONENT = 2.0 / 3.0


class HypothesisKind(Enum):
    LINEAR_BALL = "linear"
    STEP_BASIS = "step"
    RELU_NET = "relu"


class RankDeficientGramError(RuntimeError):
    """Signed weights produced a (near-)indefinite weighted Gram matrix."""


class HypothesisError(ValueError):
    """Invalid hypothesis-class configuration or incompatible operands."""


def _each(fn, x):
    """fn applied to each element of x as a Python float, so a pow or log is
    libm's, bit for bit (numpy's SIMD pow and log differ in the last ulp);
    a float for a scalar x, an array of x's shape otherwise."""
    x = np.asarray(x, dtype=float)
    return np.array(list(map(fn, x.ravel().tolist()))).reshape(x.shape)[()]


def basis_size(w_l2):
    """Piece count matched to a weight norm: ceil(w_l2^(-SIZE_EXPONENT)),
    elementwise on an array of norms (an int for a scalar norm).

    Snaps values within 1e-9 of an integer before the ceiling so exact
    powers are not bumped up by float rounding.
    """
    u = np.asarray(w_l2, dtype=float)
    outside = ~((0 < u) & (u <= 1))
    if outside.any():
        raise HypothesisError(f"weight norm must be in (0, 1], got {u[outside][0]}")
    v = np.array([x**-SIZE_EXPONENT for x in u.ravel().tolist()]).reshape(u.shape)  # libm's pow
    nearest = np.rint(v)  # half to even, as round() does
    q = np.where(np.abs(v - nearest) < 1e-9 * np.maximum(1.0, v), nearest, np.ceil(v))
    return int(q) if q.ndim == 0 else q


@dataclass(frozen=True)
class HypothesisClassSpec:
    """A regression class: the config's ``hypothesis`` object and a fit's class.

    ``q = None`` on a step class sizes it for each weight from the weight
    norm (``class_spec``, which ``fit_weighted_erm`` calls); every other
    field is fixed, and a field that the kind does not read must keep its
    default.  The class owns its rate inputs (``rate_inputs``).
    """

    kind: HypothesisKind = HypothesisKind.LINEAR_BALL
    b_bound: float = 1.0
    q: int | None = None
    nu: int | None = None
    ell: int | None = None
    param_bound: float | None = None

    def __post_init__(self) -> None:
        if self.b_bound <= 0:
            raise HypothesisError("b_bound must be positive")
        if self.kind is HypothesisKind.STEP_BASIS and self.q is not None and self.q < 1:
            raise HypothesisError("step class needs q >= 1")
        if self.kind is HypothesisKind.RELU_NET:
            if self.nu is None or self.ell is None or self.param_bound is None:
                raise HypothesisError("network class needs nu, ell, param_bound")
            if self.nu < 1 or self.ell < 1:
                raise HypothesisError(f"network class needs nu >= 1 and ell >= 1, got {self.nu}, {self.ell}")
            if not (math.isfinite(self.param_bound) and self.param_bound > 0):
                raise HypothesisError(f"param_bound must be finite and positive, got {self.param_bound}")
        unread = {"linear": ("q", "nu", "ell", "param_bound"), "step": ("nu", "ell", "param_bound"),
                  "relu": ("q", "b_bound")}
        refuse_unread(self, unread, "class", HypothesisError)

    @staticmethod
    def linear(b_bound: float) -> "HypothesisClassSpec":
        """Linear predictors with ||beta|| <= b_bound."""
        return HypothesisClassSpec(kind=HypothesisKind.LINEAR_BALL, b_bound=b_bound)

    @staticmethod
    def step(q: int, b_bound: float) -> "HypothesisClassSpec":
        """q-bin step functions on [0,1) with values clipped to [-b, b]."""
        return HypothesisClassSpec(kind=HypothesisKind.STEP_BASIS, b_bound=b_bound, q=q)

    @staticmethod
    def relu(nu: int, ell: int, param_bound: float) -> "HypothesisClassSpec":
        """Box-constrained ReLU networks of width nu and depth ell."""
        return HypothesisClassSpec(kind=HypothesisKind.RELU_NET, nu=nu, ell=ell, param_bound=param_bound)

    def class_spec(self, spec: ProcessSpec, w_l2: float) -> "HypothesisClassSpec":
        """The class of one cell with weight norm w_l2: a sized step class gets
        q = basis_size(w_l2).  A step class needs the interval law."""
        if self.kind is not HypothesisKind.STEP_BASIS:
            return self
        if spec.law is not CovariateLaw.INTERVAL:
            raise HypothesisError(f"step class needs the interval law, got {spec.law.value}")
        return self if self.q is not None else replace(self, q=basis_size(w_l2))

    def rate_inputs(self, spec: ProcessSpec) -> dict:
        """The ``RateParameters`` fields that the class owns at horizon spec.n, by
        name: alpha, c_inf, log_ninf_h ((eps, w_l2) -> log Ninf) and approx_err
        (w_l2 -> the sup-norm approximation error, None for none), both
        elementwise on arrays of norms with libm's log and pow per element.

        alpha is SIZE_EXPONENT for classes sized from ||w||, 0 for fixed ones.
        c_inf links the class's L2 and sup-norm distances under the law, sup
        <= sqrt(L2) / c_inf: the root of the smallest eigenvalue of E[Z Z^T]
        for linear predictors, 1/sqrt(q) for q orthogonal bins of mass 1/q (q
        at the smallest weight norm 1/sqrt(n) when sized), 0 (no link) for
        networks.  A log-covering is size(w_l2) log(scale/eps) floored at 0:
        p, q or basis_size(w_l2) pieces at scale 3B, or basis_size(w_l2) at
        scale n for ReLU; a norm above 1 (Brown's c1 = 3) is one piece.  The
        approximation errors assume 1-Lipschitz targets.
        """
        sized = lambda u: basis_size(np.minimum(u, 1.0))

        if self.kind is HypothesisKind.LINEAR_BALL:
            p = spec.p
            alpha, size, scale, approx_err = 0.0, (lambda u: p), 3.0 * self.b_bound, None
            c_inf = math.sqrt(np.linalg.eigvalsh(law_second_moment(spec.law, p))[0])
        elif self.kind is HypothesisKind.STEP_BASIS:
            alpha, size = (SIZE_EXPONENT, sized) if self.q is None else (0.0, lambda u: self.q)
            scale, c_inf = 3.0 * self.b_bound, 1.0 / math.sqrt(size(1.0 / math.sqrt(spec.n)))
            approx_err = lambda u: 1.0 / size(u)
        else:
            alpha, size, scale, c_inf = SIZE_EXPONENT, sized, spec.n, 0.0
            approx_err = lambda u: _each(lambda x: x**SIZE_EXPONENT, u)

        def log_ninf(eps, w_l2):
            return np.maximum(0.0, size(w_l2) * _each(math.log, scale / eps))

        return dict(alpha=alpha, c_inf=c_inf, log_ninf_h=log_ninf, approx_err=approx_err)


# The unbounded classes of a bare comparison operand, a constant or a
# coefficient vector: a distance reads only its bin values or coefficients.
_CONSTANT_CLASS = HypothesisClassSpec.step(1, math.inf)
_LINEAR_CLASS = HypothesisClassSpec.linear(math.inf)


# The parameters that a fit of each kind does not read, and so must leave None.
_UNREAD_FIT_FIELDS = {"linear": ("bins", "layers"), "step": ("coef", "layers"), "relu": ("coef", "bins")}


@dataclass(frozen=True)
class FittedHypothesis:
    """A fitted model: coefficient vector, bin values, or network layers,
    whichever its kind reads; the parameter it holds is its kind."""

    class_spec: HypothesisClassSpec
    coef: np.ndarray | None = None
    bins: np.ndarray | None = None
    layers: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None
    fit_meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        kind, q = self.class_spec.kind, self.class_spec.q
        if kind is HypothesisKind.LINEAR_BALL and self.coef is None:
            raise HypothesisError("linear hypothesis needs coef")
        if kind is HypothesisKind.STEP_BASIS and (self.bins is None or len(self.bins) != q):
            raise HypothesisError(f"step hypothesis needs bins of length q={q}")
        if kind is HypothesisKind.RELU_NET:
            if not self.layers:
                raise HypothesisError("network hypothesis needs layers")
            self._check_layer_shapes()
        for name in _UNREAD_FIT_FIELDS[kind.value]:
            if getattr(self, name) is not None:
                raise HypothesisError(f"{kind.value} hypothesis does not read {name}")

    def _check_layer_shapes(self) -> None:
        """ell + 1 layers chained p -> nu -> ... -> nu -> 1, each b as wide as its W."""
        nu, ell = self.class_spec.nu, self.class_spec.ell
        if len(self.layers) != ell + 1:
            raise HypothesisError(f"network with ell={ell} needs {ell + 1} layers, got {len(self.layers)}")
        first = np.shape(self.layers[0][0])
        sizes = [first[0] if first else 0] + [nu] * ell + [1]
        for i, ((W, b), fan_in, fan_out) in enumerate(zip(self.layers, sizes[:-1], sizes[1:])):
            if np.shape(W) != (fan_in, fan_out) or np.shape(b) != (fan_out,):
                raise HypothesisError(
                    f"layer {i} has W {np.shape(W)} and b {np.shape(b)}; "
                    f"the class needs W {(fan_in, fan_out)} and b {(fan_out,)}"
                )

    @property
    def p(self) -> int:
        """Input dimension: the coefficient count, 1 for step functions, or the first layer's rows."""
        if self.coef is not None:
            return self.coef.shape[0]
        if self.bins is not None:
            return 1
        return self.layers[0][0].shape[0]

    def predict(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if self.coef is not None:
            return z @ self.coef
        if self.bins is not None:
            idx = _bin_index(z[:, 0], self.class_spec.q)
            return self.bins[idx]
        return _net_forward(self.layers, z)


def _bin_index(z: np.ndarray, q: int) -> np.ndarray:
    idx = np.floor(z * q).astype(int)
    return np.clip(idx, 0, q - 1)


def _weighted_risk(w: np.ndarray, residuals: np.ndarray) -> float:
    return float(np.dot(w, residuals**2))


def _per_row(seed, size: int) -> list:
    """A block's seeds, one per row: a zero-argument callable is called now for
    its int or list; a list or tuple gives one seed per row, its size the block's."""
    seed = seed() if callable(seed) else seed
    seeds = list(seed) if isinstance(seed, (list, tuple)) else [seed] * size
    if len(seeds) != size:
        raise HypothesisError(f"seed: a list of {len(seeds)} seeds for a block of {size} rows")
    return seeds


def _fit_linear(z: np.ndarray, y: np.ndarray, w: np.ndarray, spec: HypothesisClassSpec) -> "FitBlock":
    """Exact ball-constrained weighted least squares on a block: z (R, n, p), y (R, n).

    The Grams, right-hand sides, eigendecompositions and rotations are
    stacked products, each row the product its path alone would give; only
    the rows whose unconstrained solution leaves the ball solve for their
    multiplier.  A deficient Gram under signed weights fails the block."""
    R, n, p = z.shape
    zw = (z.reshape(R, n * p) * np.repeat(w, p)).reshape(R, n, p)  # z_t w_t in one long loop
    gram = np.matmul(zw.transpose(0, 2, 1), z)
    rhs = np.matmul(z.transpose(0, 2, 1), (w * y)[:, :, None])[:, :, 0]
    eigvals, eigvecs = np.linalg.eigh(gram)
    floor = GRAM_EIG_FLOOR * np.trace(gram, axis1=1, axis2=2) / p
    deficient = np.flatnonzero(eigvals[:, 0] < floor) if np.any(w < 0) else ()
    if len(deficient):
        r = deficient[0]
        raise RankDeficientGramError(
            f"weighted Gram matrix has eigenvalue {eigvals[r, 0]:.3e} below floor {floor[r]:.3e} "
            "with signed weights; the objective may be indefinite"
        )
    c_rot = np.matmul(eigvecs.transpose(0, 2, 1), rhs[:, :, None])[:, :, 0]
    safe = eigvals > np.maximum(floor, 0.0)[:, None]
    beta_unc_rot = np.where(safe, c_rot / np.where(safe, eigvals, 1.0), 0.0)
    beta = np.matmul(eigvecs, beta_unc_rot[:, :, None])[:, :, 0]
    multiplier = np.zeros(len(beta))
    B = spec.b_bound
    norm = np.sqrt(np.matmul(beta[:, None, :], beta[:, :, None])[:, 0, 0])  # np.linalg.norm's dot, row by row
    for r in np.flatnonzero(norm > B):
        # Exact ball-constrained minimizer: (G + lam I) beta = rhs with the
        # unique lam > 0 putting beta on the boundary.
        from scipy.optimize import brentq

        eig_pos, c = np.maximum(eigvals[r], 0.0), c_rot[r]

        def radius_gap(lam: float) -> float:
            return float(np.sum((c / (eig_pos + lam)) ** 2)) - B**2

        # a singular Gram needs a strictly positive lower bracket
        lo = 0.0 if eig_pos[0] > 0 else 1e-30 * max(1.0, float(np.trace(gram[r])))
        hi = max(1.0, np.linalg.norm(rhs[r]) / B - eig_pos[0]) + 1.0
        while radius_gap(hi) > 0:
            hi *= 2.0
        multiplier[r] = brentq(radius_gap, lo, hi, xtol=1e-14, rtol=1e-15)
        beta[r] = eigvecs[r] @ (c / (eig_pos + multiplier[r]))
    beta.flags.writeable = False

    def row(r: int) -> FittedHypothesis:
        return FittedHypothesis(
            class_spec=spec,
            coef=beta[r],
            fit_meta={
                "solver": "constrained" if multiplier[r] > 0 else "normal_equations",
                "multiplier": float(multiplier[r]),
                "empirical_risk": _weighted_risk(w, y[r] - z[r] @ beta[r]),
                "min_gram_eig": float(eigvals[r, 0]),
            },
        )

    return FitBlock(len(beta), row, coef=beta)


def _fit_step(z: np.ndarray, y: np.ndarray, w: np.ndarray, spec: HypothesisClassSpec) -> "FitBlock":
    """Per-bin box-constrained weighted means on a block: z (R, n, 1), y (R, n).

    One bincount over the flattened block, bin j of row r at offset
    j + q r, sums every bin in path order, as its path alone would; the
    per-bin rules then run as arrays."""
    R, q, B = len(y), spec.q, spec.b_bound
    if np.any(z[:, :, 0] < 0) or np.any(z[:, :, 0] >= 1):
        raise HypothesisError("step basis expects covariates in [0, 1)")
    idx = _bin_index(z[:, :, 0], q)
    flat = (idx + q * np.arange(R)[:, None]).ravel()
    sw = np.bincount(flat, weights=np.tile(w, R), minlength=R * q).reshape(R, q)
    sy = np.bincount(flat, weights=(w * y).ravel(), minlength=R * q).reshape(R, q)
    # Clipped weighted mean = box-constrained minimizer of a convex bin's
    # objective; an empty bin (or exactly cancelling weights) gets 0.
    means = np.divide(sy, sw, out=np.zeros((R, q)), where=sw > 0)
    bins = np.minimum(np.maximum(means, -B), B)
    # Concave bin objective: the box minimizer is an endpoint.
    concave = sw < 0
    lo, hi = sw * B**2 + 2.0 * sy * B, sw * B**2 - 2.0 * sy * B
    bins[concave] = np.where(lo < hi, -B, B)[concave]
    bins.flags.writeable = False

    def row(r: int) -> FittedHypothesis:
        return FittedHypothesis(
            class_spec=spec,
            bins=bins[r],
            fit_meta={
                "solver": "bin_means",
                "empirical_risk": _weighted_risk(w, y[r] - bins[r][idx[r]]),
                "nonconvex_bins": int(np.count_nonzero(concave[r])),
            },
        )

    return FitBlock(R, row, bins=bins)


def _net_forward(layers, z: np.ndarray) -> np.ndarray:
    h = z
    for W, b in layers[:-1]:
        h = np.maximum(h @ W + b, 0.0)
    W, b = layers[-1]
    return (h @ W + b)[:, 0]


def _fit_net(
    z: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    spec: HypothesisClassSpec,
    seed: int,
) -> FittedHypothesis:
    """Projected full-batch gradient descent, keeping the best iterate.

    The loop is feature-major: each layer's input is a (fan_in + 1, n)
    buffer whose last row is ones, so one product with the layer's stacked
    [W; b] applies both, and one product of that input with the
    backpropagated delta writes the layer's stacked [gW; gb].  theta, grad
    and best are flat vectors, W then b for each layer, so each [W; b] is
    one reshaped view.  The residual pass keeps w r undoubled and the step
    is doubled instead.  Every array the loop writes is allocated once.
    """
    rng = np.random.default_rng(seed)
    n, nu = z.shape[0], spec.nu
    sizes = [z.shape[1]] + [nu] * spec.ell + [1]
    shapes = list(zip(sizes[:-1], sizes[1:]))
    bound, step_size = spec.param_bound, 2.0 * NET_STEP_SIZE
    theta = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in shapes))
    grad = np.empty_like(theta)

    def views(flat):
        """Each layer's [W; b] as a reshaped (fan_in + 1, fan_out) view of one flat vector."""
        stacked, at = [], 0
        for fan_in, fan_out in shapes:
            stacked.append(flat[at:at + (fan_in + 1) * fan_out].reshape(fan_in + 1, fan_out))
            at += (fan_in + 1) * fan_out
        return stacked

    layers, grads = views(theta), views(grad)
    for (fan_in, _), Wb in zip(shapes, layers):
        Wb[:-1] = np.clip(rng.standard_normal((fan_in, Wb.shape[1])) / math.sqrt(fan_in), -bound, bound)
    inputs = [np.empty((fan_in + 1, n)) for fan_in, _ in shapes]  # each layer's input over a ones row
    inputs[0][:-1] = z.T
    for h in inputs:
        h[-1] = 1.0
    out, d_out = np.empty((1, n)), np.empty((1, n))
    pred, wr, r = out[0], d_out[0], np.empty(n)
    backs = [np.empty((nu, n)) for _ in range(spec.ell)]
    mask = np.empty((nu, n))

    # Loop invariants, all views of the buffers above: the hidden
    # ([W; b]^T, input, units) triples, the output layer, and for layers
    # ell..1 of the backward pass ([gW; gb], input, its units, W, delta buffer).
    hidden = [(Wb.T, h, h_next[:-1]) for Wb, h, h_next in zip(layers[:-1], inputs[:-1], inputs[1:])]
    Wb_out_t, h_out = layers[-1].T, inputs[-1]
    backward = [(grads[i], inputs[i], inputs[i][:-1], layers[i][:-1], backs[i - 1]) for i in range(spec.ell, 0, -1)]
    g_in, h_in = grads[0], inputs[0]

    best_risk = math.inf
    best = theta.copy()
    for step in range(NET_ITERATIONS + 1):
        for Wb_t, h, units in hidden:
            np.dot(Wb_t, h, out=units)
            np.maximum(units, 0.0, out=units)
        np.dot(Wb_out_t, h_out, out=out)
        np.subtract(pred, y, out=r)
        np.multiply(w, r, out=wr)
        risk = float(np.dot(wr, r))
        if risk < best_risk:
            best_risk = risk
            best[:] = theta
        if step == NET_ITERATIONS:  # the last iterate is scored, not stepped
            break
        delta = d_out
        for g, h, act, W, back in backward:
            np.dot(h, delta.T, out=g)
            np.dot(W, delta, out=back)
            np.sign(act, out=mask)  # ReLU derivative, 0 at 0
            delta = np.multiply(back, mask, out=back)
        np.dot(h_in, delta.T, out=g_in)
        grad *= step_size
        np.subtract(theta, grad, out=theta)
        np.minimum(np.maximum(theta, -bound, out=theta), bound, out=theta)  # np.clip without its wrapper
    best.flags.writeable = False
    return FittedHypothesis(
        class_spec=spec,
        layers=tuple((Wb[:-1], Wb[-1]) for Wb in views(best)),
        fit_meta={
            "solver": "projected_gd",
            "iterations": NET_ITERATIONS,
            "step_size": NET_STEP_SIZE,
            "empirical_risk": best_risk,
            "seed": int(seed),
        },
    )


class FitBlock:
    """One weight's fits on a block of paths: ``block[r]`` is path r's fit.

    ``row(r)`` returns that fit.  A linear block stacks its coefficients in
    ``coef`` (R, p) and a step block its bin values in ``bins`` (R, q),
    which the distances read as they are; either builds a row's fit, with
    its fit_meta, only when it is asked for.  Only network fits are made
    row by row.
    """

    def __init__(self, size: int, row, coef: np.ndarray | None = None, bins: np.ndarray | None = None) -> None:
        self.size, self.row, self.coef, self.bins = size, row, coef, bins

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, r: int) -> FittedHypothesis:
        return self.row(r)

    def __iter__(self):
        return map(self.row, range(self.size))


def fit_weighted_erm(
    path: SamplePath,
    w: WeightVector,
    class_spec: HypothesisClassSpec,
    *,
    seed=0,
) -> "FittedHypothesis | FitBlock":
    """Minimize the weighted empirical square loss over the class.

    The class is sized for the weight first (``class_spec.class_spec``): a
    step class with q unset gets q = basis_size(||w||), and a fixed class
    is fitted as given.  Only the first n observations of the path enter
    the fit; the held-out final row never does.  Linear and step fits are
    exact minimizers; the network fit is approximate (projected gradient
    descent) and records its achieved empirical risk.  A NaN or infinity
    in the weights is rejected (``SamplePath`` refuses one in the path).

    A block of paths gives a ``FitBlock``, row r fitted on path r as that
    path alone would be.  Linear and step blocks are solved as stacked
    arrays; only network fits run row by row.  ``seed`` seeds a network's
    start: an int, for a block also a list of per-row ints, or a
    zero-argument callable that returns one, called only by a network fit.
    """
    n = path.spec.n
    if w.entries.shape[0] != n:
        raise HypothesisError(f"weight length {w.entries.shape[0]} != n={n}")
    wv = w.entries
    if not np.isfinite(wv).all():
        raise HypothesisError("w has non-finite entries")
    class_spec = class_spec.class_spec(path.spec, w.l2)
    block = path.y.ndim == 2
    z, y = (path.z, path.y) if block else (path.z[None], path.y[None])
    z, y = z[:, :n], y[:, :n]
    if class_spec.kind is HypothesisKind.LINEAR_BALL:
        fits = _fit_linear(z, y, wv, class_spec)
    elif class_spec.kind is HypothesisKind.STEP_BASIS:
        fits = _fit_step(z, y, wv, class_spec)
    else:
        fits = tuple(_fit_net(zr, yr, wv, class_spec, s) for zr, yr, s in zip(z, y, _per_row(seed, len(z))))
        fits = FitBlock(len(fits), fits.__getitem__)
    return fits if block else fits[0]


# ---------------------------------------------------------------------------
# Distances


def _linear_coef(g) -> np.ndarray | None:
    """The coefficients of a linear operand (a linear fit or a coefficient vector), else None."""
    if isinstance(g, FittedHypothesis):
        return g.coef
    arr = np.asarray(g, dtype=float)
    return arr if arr.ndim else None


def _as_hypothesis(g) -> FittedHypothesis:
    """Coerce a coefficient vector / scalar into a hypothesis for comparisons."""
    if isinstance(g, FittedHypothesis):
        return g
    arr = np.asarray(g, dtype=float)
    if arr.ndim == 0:
        return FittedHypothesis(class_spec=_CONSTANT_CLASS, bins=np.array([float(arr)]))
    return FittedHypothesis(class_spec=_LINEAR_CLASS, coef=arr)


def _piecewise(f: "FittedHypothesis | FitBlock") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edges, slope, intercept) of a univariate hypothesis on [0, 1).

    On the piece [edges[i], edges[i+1]) the hypothesis is
    slope[..., i] z + intercept[..., i]; a linear or step block's slopes or
    intercepts stack its rows on the leading axis.  A step function is q
    equal pieces of slope 0.  A network is split layer by layer at the
    root of every unit's pre-activation inside a current piece; each
    piece's affine map is carried through the layers exactly.
    """
    if f.bins is not None:
        q = f.bins.shape[-1]
        return np.arange(q + 1, dtype=float) / q, np.zeros(q), f.bins
    p = f.p if f.coef is None else f.coef.shape[-1]
    if p != 1:
        raise HypothesisError(f"distances on [0, 1) need univariate hypotheses, got p={p}")
    if f.coef is not None:
        return np.array([0.0, 1.0]), f.coef, np.zeros(1)
    edges = np.array([0.0, 1.0])
    slope, intercept = np.ones((1, 1)), np.zeros((1, 1))
    for W, b in f.layers[:-1]:
        s, c = slope @ W, intercept @ W + b
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = -c / s
        inside = (roots > edges[:-1, None]) & (roots < edges[1:, None])
        parent_edges, edges = edges, np.union1d(edges, roots[inside])
        mids = 0.5 * (edges[:-1] + edges[1:])
        parent = np.searchsorted(parent_edges, mids, side="right") - 1
        s, c = s[parent], c[parent]
        active = s * mids[:, None] + c > 0
        slope, intercept = s * active, c * active
    W, b = f.layers[-1]
    return edges, (slope @ W)[:, 0], (intercept @ W + b)[:, 0]


def _difference_pieces(f_pieces, g_pieces):
    """f - g as (edges, slope, intercept) on the union of both edge sets,
    from the ``_piecewise`` pieces of each; slopes and intercepts are
    indexed on their last axis, so either operand may be a block's.

    An operand of one piece (a line or a constant, as every population
    target is) needs no merge: the other operand's edges are the union.
    """
    ef, sf, cf = f_pieces
    eg, sg, cg = g_pieces
    if eg.size == 2:
        return ef, sf - sg[..., :1], cf - cg[..., :1]
    if ef.size == 2:
        return eg, sf[..., :1] - sg, cf[..., :1] - cg
    edges = np.union1d(ef, eg)
    i = np.searchsorted(ef, edges[:-1], side="right") - 1
    j = np.searchsorted(eg, edges[:-1], side="right") - 1
    return edges, sf[..., i] - sg[..., j], cf[..., i] - cg[..., j]


def _piece_sum(edges: np.ndarray, s: np.ndarray, c: np.ndarray):
    """The integral over [0, 1) of (s z + c)^2, piece by piece: a piece of width
    w and midpoint m adds w (d(m)^2 + (s w)^2 / 12).  Summed along the last
    axis, so a block's (R, pieces) slopes or intercepts give one value per row."""
    mids, widths = 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)
    return np.sum(widths * ((s * mids + c) ** 2 + (s * widths) ** 2 / 12.0), axis=-1)


def _quadratic_form(d: np.ndarray, m: np.ndarray):
    """d^T m d of each row of d, (..., p): d m as a vector-matrix product,
    then its dot with d, the products ``d @ m @ d`` makes for one row."""
    return np.matmul(np.matmul(d[..., None, :], m), d[..., :, None])[..., 0, 0]


def l2_distance(
    f: "FittedHypothesis | FitBlock",
    g,
    law: CovariateLaw,
    *,
    draws: int = MC_DRAWS_DEFAULT,
    seed=0,
) -> tuple[float, float, str]:
    """Squared L2 distance between two hypotheses under the covariate law.

    Returns (value, stderr, mode).  Linear pairs are exact on every law:
    the quadratic form in the law's second-moment matrix at f's dimension.
    Under the uniform interval law every pairing of univariate linear,
    step, constant and ReLU hypotheses is exact: f - g is affine,
    d(z) = s z + c, on each piece of the merged breakpoints, and a piece of
    width w and midpoint m adds w (d(m)^2 + (s w)^2 / 12), a form that
    does not cancel when f is close to g.  Off the interval law (the ball
    law) every other pairing is Monte Carlo over ``draws`` fresh covariate
    draws in the larger dimension of f and g, with its stderr.  ``seed``
    seeds them: an int, for a block also a list of per-row ints, or a
    zero-argument callable that returns one, called only where a draw is made.

    For a ``FitBlock`` the value and stderr are arrays, one entry per row,
    each as that row's fit alone gives it: a linear or step block takes the
    same closed forms as one stacked product or piece sum, and only a block
    with neither runs row by row, deriving its seeds at its first draw.
    """
    block = isinstance(f, FitBlock)
    if f.coef is not None and (coef := _linear_coef(g)) is not None:
        value = _quadratic_form(f.coef - coef, law_second_moment(law, f.coef.shape[-1]))
    elif law is CovariateLaw.INTERVAL and not (block and f.coef is None and f.bins is None):
        value = _piece_sum(*_difference_pieces(_piecewise(f), _piecewise(_as_hypothesis(g))))
    elif block:
        seeds = functools.cache(lambda: _per_row(seed, f.size))
        values, stderrs, modes = zip(*(
            l2_distance(fit, g, law, draws=draws, seed=lambda r=r: seeds()[r]) for r, fit in enumerate(f)
        ))
        return np.array(values), np.array(stderrs), modes[0]
    else:
        g, rng = _as_hypothesis(g), np.random.default_rng(seed() if callable(seed) else seed)
        z = sample_covariates(law, max(f.p, g.p), draws, rng)
        sq = (f.predict(z) - g.predict(z)) ** 2
        return float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(draws)), "monte_carlo"
    return (value, np.zeros(f.size), "exact") if block else (float(value), 0.0, "exact")


def sup_distance(f: FittedHypothesis, g) -> float:
    """Sup-norm distance over the covariate support.

    A linear pair's difference d . z is largest at a vertex of the ball
    law's cube [-1/sqrt(p), 1/sqrt(p)]^p, where it is ||d||_1 / sqrt(p); for
    p = 1 that is |d|, the sup over [0, 1) as well.  Every other pairing
    of univariate hypotheses is exact on [0, 1): f - g is affine on each
    piece of the merged breakpoints, so its largest absolute value sits at
    a piece end (the one-sided limits at the jumps of a step function).
    """
    g = _as_hypothesis(g)
    if f.coef is not None and g.coef is not None:
        d = f.coef - g.coef
        return float(np.abs(d).sum() / math.sqrt(d.size))
    edges, s, c = _difference_pieces(_piecewise(f), _piecewise(g))
    return float(max(np.abs(s * edges[:-1] + c).max(), np.abs(s * edges[1:] + c).max()))
