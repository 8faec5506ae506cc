"""Hypothesis classes and weighted ERM fitters.

Three regression classes: norm-bounded linear predictors (exact
constrained weighted least squares), piecewise-constant step functions on
[0, 1) (per-bin weighted means), and box-constrained ReLU networks fitted
by projected full-batch gradient descent (approximate ERM; the achieved
empirical risk is recorded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .processes import CovariateLaw, SamplePath, sample_covariates
from .weights import WeightVector

# Relative floor under which the weighted Gram matrix counts as deficient.
GRAM_EIG_FLOOR = 1e-8

# Projected-gradient defaults for the network fitter.
NET_STEP_SIZE = 0.05
NET_ITERATIONS = 5000

MC_DRAWS_DEFAULT = 100_000


class HypothesisKind(Enum):
    LINEAR_BALL = "linear"
    STEP_BASIS = "step"
    RELU_NET = "relu"


class RankDeficientGramError(RuntimeError):
    """Signed weights produced a (near-)indefinite weighted Gram matrix."""


class HypothesisError(ValueError):
    """Invalid hypothesis-class configuration or incompatible operands."""


def basis_size(w_l2: float) -> int:
    """Bin count matched to a weight norm: ceil(w_l2^(-2/3)).

    Snaps values within 1e-9 of an integer before the ceiling so exact
    powers are not bumped up by float rounding.
    """
    if not 0 < w_l2 <= 1:
        raise HypothesisError(f"weight norm must be in (0, 1], got {w_l2}")
    v = w_l2 ** (-2.0 / 3.0)
    nearest = round(v)
    if abs(v - nearest) < 1e-9 * max(1.0, v):
        return int(nearest)
    return int(math.ceil(v))


@dataclass(frozen=True)
class HypothesisClassSpec:
    """A regression class with its complexity constants.

    ``c_inf`` is the constant linking the class's L2 distances to sup-norm
    distances (0 when no such link is claimed).
    """

    kind: HypothesisKind
    b_bound: float
    q: int | None = None
    nu: int | None = None
    ell: int | None = None
    param_bound: float | None = None
    c_inf: float = 0.0

    def __post_init__(self) -> None:
        if self.b_bound <= 0:
            raise HypothesisError("b_bound must be positive")
        if self.kind is HypothesisKind.STEP_BASIS and (self.q is None or self.q < 1):
            raise HypothesisError("step class needs q >= 1")
        if self.kind is HypothesisKind.RELU_NET:
            if not (self.nu and self.ell and self.param_bound):
                raise HypothesisError("network class needs nu, ell, param_bound")

    @staticmethod
    def linear(b_bound: float, lambda_min: float) -> "HypothesisClassSpec":
        """Linear predictors with ||beta|| <= b_bound over a law with known
        smallest second-moment eigenvalue."""
        return HypothesisClassSpec(
            kind=HypothesisKind.LINEAR_BALL,
            b_bound=b_bound,
            c_inf=math.sqrt(lambda_min),
        )

    @staticmethod
    def step(q: int, b_bound: float) -> "HypothesisClassSpec":
        """q-bin step functions on [0,1) with values clipped to [-b, b].

        Under the uniform covariate law the bin indicators are orthogonal
        with second moment 1/q, giving c_inf = 1/sqrt(q).
        """
        return HypothesisClassSpec(
            kind=HypothesisKind.STEP_BASIS,
            b_bound=b_bound,
            q=q,
            c_inf=1.0 / math.sqrt(q),
        )

    @staticmethod
    def relu(nu: int, ell: int, param_bound: float, b_bound: float) -> "HypothesisClassSpec":
        """Box-constrained ReLU networks; no usable sup-norm link (c_inf = 0)."""
        return HypothesisClassSpec(
            kind=HypothesisKind.RELU_NET,
            b_bound=b_bound,
            nu=nu,
            ell=ell,
            param_bound=param_bound,
            c_inf=0.0,
        )


@dataclass(frozen=True)
class FittedHypothesis:
    """A fitted model: coefficient vector, bin values, or network layers."""

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
        if kind is HypothesisKind.RELU_NET and not self.layers:
            raise HypothesisError("network hypothesis needs layers")

    @property
    def kind(self) -> HypothesisKind:
        return self.class_spec.kind

    def predict(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if self.kind is HypothesisKind.LINEAR_BALL:
            return z @ self.coef
        if self.kind is HypothesisKind.STEP_BASIS:
            idx = _bin_index(z[:, 0], self.class_spec.q)
            return self.bins[idx]
        return _net_forward(self.layers, z)


def _bin_index(z: np.ndarray, q: int) -> np.ndarray:
    idx = np.floor(z * q).astype(int)
    return np.clip(idx, 0, q - 1)


def _weighted_risk(w: np.ndarray, residuals: np.ndarray) -> float:
    return float(np.dot(w, residuals**2))


def _fit_linear(z: np.ndarray, y: np.ndarray, w: np.ndarray, spec: HypothesisClassSpec) -> FittedHypothesis:
    p = z.shape[1]
    gram = (z * w[:, None]).T @ z
    rhs = z.T @ (w * y)
    eigvals, eigvecs = np.linalg.eigh(gram)
    floor = GRAM_EIG_FLOOR * np.trace(gram) / p
    signed = bool(np.any(w < 0))
    if eigvals[0] < floor and signed:
        raise RankDeficientGramError(
            f"weighted Gram matrix has eigenvalue {eigvals[0]:.3e} below floor {floor:.3e} "
            "with signed weights; the objective may be indefinite"
        )
    c_rot = eigvecs.T @ rhs
    safe = eigvals > max(floor, 0.0)
    beta_unc_rot = np.where(safe, c_rot / np.where(safe, eigvals, 1.0), 0.0)
    beta = eigvecs @ beta_unc_rot
    multiplier = 0.0
    B = spec.b_bound
    if np.linalg.norm(beta) > B:
        # Exact ball-constrained minimizer: (G + lam I) beta = rhs with the
        # unique lam > 0 putting beta on the boundary.
        from scipy.optimize import brentq

        eig_pos = np.maximum(eigvals, 0.0)

        def radius_gap(lam: float) -> float:
            return float(np.sum((c_rot / (eig_pos + lam)) ** 2)) - B**2

        # a singular Gram needs a strictly positive lower bracket
        lo = 0.0 if eig_pos[0] > 0 else 1e-30 * max(1.0, float(np.trace(gram)))
        hi = max(1.0, np.linalg.norm(rhs) / B - eig_pos[0]) + 1.0
        while radius_gap(hi) > 0:
            hi *= 2.0
        multiplier = float(brentq(radius_gap, lo, hi, xtol=1e-14, rtol=1e-15))
        beta = eigvecs @ (c_rot / (eig_pos + multiplier))
    residuals = y - z @ beta
    beta = np.asarray(beta, dtype=float)
    beta.flags.writeable = False
    return FittedHypothesis(
        class_spec=spec,
        coef=beta,
        fit_meta={
            "solver": "constrained" if multiplier > 0 else "normal_equations",
            "multiplier": multiplier,
            "empirical_risk": _weighted_risk(w, residuals),
            "min_gram_eig": float(eigvals[0]),
        },
    )


def _fit_step(z: np.ndarray, y: np.ndarray, w: np.ndarray, spec: HypothesisClassSpec) -> FittedHypothesis:
    q, B = spec.q, spec.b_bound
    if np.any(z[:, 0] < 0) or np.any(z[:, 0] >= 1):
        raise HypothesisError("step basis expects covariates in [0, 1)")
    idx = _bin_index(z[:, 0], q)
    sw = np.bincount(idx, weights=w, minlength=q)
    sy = np.bincount(idx, weights=w * y, minlength=q)
    values = np.zeros(q)
    degenerate = 0
    for j in range(q):
        if sw[j] > 0:
            # Clipped weighted mean = box-constrained minimizer of the
            # convex per-bin objective.
            values[j] = min(max(sy[j] / sw[j], -B), B)
        elif sw[j] < 0:
            # Concave per-bin objective: the box minimizer is an endpoint.
            lo = sw[j] * B**2 + 2.0 * sy[j] * B
            hi = sw[j] * B**2 - 2.0 * sy[j] * B
            values[j] = -B if lo < hi else B
            degenerate += 1
        else:
            values[j] = 0.0  # empty bin (or exactly cancelling weights)
    fitted = values[idx]
    values.flags.writeable = False
    return FittedHypothesis(
        class_spec=spec,
        bins=values,
        fit_meta={
            "solver": "bin_means",
            "empirical_risk": _weighted_risk(w, y - fitted),
            "nonconvex_bins": degenerate,
        },
    )


def _net_forward(layers, z: np.ndarray) -> np.ndarray:
    h = z
    for W, b in layers[:-1]:
        h = np.maximum(h @ W + b, 0.0)
    W, b = layers[-1]
    return (h @ W + b)[:, 0]


def _net_forward_cache(layers, z: np.ndarray):
    acts = [z]
    h = z
    for W, b in layers[:-1]:
        h = np.maximum(h @ W + b, 0.0)
        acts.append(h)
    W, b = layers[-1]
    return (h @ W + b)[:, 0], acts


def _net_gradients(layers, acts, dout: np.ndarray):
    grads = [None] * len(layers)
    delta = dout[:, None]
    for i in range(len(layers) - 1, -1, -1):
        W, _ = layers[i]
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ W.T) * (acts[i] > 0)
    return grads


def _fit_net(
    z: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    spec: HypothesisClassSpec,
    seed: int,
) -> FittedHypothesis:
    rng = np.random.default_rng(seed)
    sizes = [z.shape[1]] + [spec.nu] * spec.ell + [1]
    bound = spec.param_bound
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        W = rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)
        layers.append([np.clip(W, -bound, bound), np.zeros(fan_out)])

    best_risk = math.inf
    best_layers = None
    for _ in range(NET_ITERATIONS):
        pred, acts = _net_forward_cache(layers, z)
        resid = pred - y
        risk = _weighted_risk(w, resid)
        if risk < best_risk:
            best_risk = risk
            best_layers = [(W.copy(), b.copy()) for W, b in layers]
        dout = 2.0 * w * resid
        grads = _net_gradients(layers, acts, dout)
        for (gW, gb), layer in zip(grads, layers):
            layer[0] = np.clip(layer[0] - NET_STEP_SIZE * gW, -bound, bound)
            layer[1] = np.clip(layer[1] - NET_STEP_SIZE * gb, -bound, bound)
    pred, _ = _net_forward_cache(layers, z)
    final_risk = _weighted_risk(w, pred - y)
    if final_risk < best_risk:
        best_risk = final_risk
        best_layers = [(W.copy(), b.copy()) for W, b in layers]
    frozen = tuple((W, b) for W, b in best_layers)
    for W, b in frozen:
        W.flags.writeable = False
        b.flags.writeable = False
    return FittedHypothesis(
        class_spec=spec,
        layers=frozen,
        fit_meta={
            "solver": "projected_gd",
            "iterations": NET_ITERATIONS,
            "step_size": NET_STEP_SIZE,
            "empirical_risk": best_risk,
            "seed": int(seed),
        },
    )


def fit_weighted_erm(
    path: SamplePath,
    w: WeightVector,
    class_spec: HypothesisClassSpec,
    *,
    seed: int = 0,
) -> FittedHypothesis:
    """Minimize the weighted empirical square loss over the class.

    Only the first n observations of the path enter the fit; the held-out
    final row never does.  Linear and step fits are exact minimizers; the
    network fit is approximate (projected gradient descent) and records
    its achieved empirical risk.  A NaN or infinity in the first n
    covariates, responses or weights is rejected.
    """
    n = path.spec.n
    if w.entries.shape[0] != n:
        raise HypothesisError(f"weight length {w.entries.shape[0]} != n={n}")
    z, y, wv = path.z[:n], path.y[:n], w.entries
    for name, values in (("z", z), ("y", y), ("w", wv)):
        if not np.isfinite(values).all():
            raise HypothesisError(f"{name} has non-finite entries")
    if class_spec.kind is HypothesisKind.LINEAR_BALL:
        return _fit_linear(z, y, wv, class_spec)
    if class_spec.kind is HypothesisKind.STEP_BASIS:
        return _fit_step(z, y, wv, class_spec)
    return _fit_net(z, y, wv, class_spec, seed)


# ---------------------------------------------------------------------------
# Distances


def _as_hypothesis(g) -> FittedHypothesis:
    """Coerce a coefficient vector / scalar into a hypothesis for comparisons."""
    if isinstance(g, FittedHypothesis):
        return g
    arr = np.asarray(g, dtype=float)
    if arr.ndim == 0:
        spec = HypothesisClassSpec.step(q=1, b_bound=max(1.0, abs(float(arr)) + 1.0))
        return FittedHypothesis(class_spec=spec, bins=np.array([float(arr)]))
    spec = HypothesisClassSpec.linear(
        b_bound=max(1.0, float(np.linalg.norm(arr))), lambda_min=1.0
    )
    return FittedHypothesis(class_spec=spec, coef=arr)


def _piecewise(f: FittedHypothesis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edges, slope, intercept) of a univariate hypothesis on [0, 1).

    On the piece [edges[i], edges[i+1]) the hypothesis is
    slope[i] z + intercept[i].  A network is split layer by layer at the
    root of every unit's pre-activation inside a current piece; each
    piece's affine map is carried through the layers exactly.
    """
    if f.kind is HypothesisKind.STEP_BASIS:
        q = f.class_spec.q
        return np.arange(q + 1, dtype=float) / q, np.zeros(q), f.bins
    p = f.coef.shape[0] if f.kind is HypothesisKind.LINEAR_BALL else f.layers[0][0].shape[0]
    if p != 1:
        raise HypothesisError(f"distances on [0, 1) need univariate hypotheses, got p={p}")
    if f.kind is HypothesisKind.LINEAR_BALL:
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


def _difference_pieces(f: FittedHypothesis, g: FittedHypothesis):
    """f - g as (edges, slope, intercept) on the union of both edge sets.

    An operand of one piece (a line or a constant, as every population
    target is) needs no merge: the other operand's edges are the union.
    """
    ef, sf, cf = _piecewise(f)
    eg, sg, cg = _piecewise(g)
    if eg.size == 2:
        return ef, sf - sg[0], cf - cg[0]
    if ef.size == 2:
        return eg, sf[0] - sg, cf[0] - cg
    edges = np.union1d(ef, eg)
    i = np.searchsorted(ef, edges[:-1], side="right") - 1
    j = np.searchsorted(eg, edges[:-1], side="right") - 1
    return edges, sf[i] - sg[j], cf[i] - cg[j]


def l2_distance(
    f: FittedHypothesis,
    g,
    law: CovariateLaw,
    *,
    p: int = 1,
    second_moment: np.ndarray | None = None,
    draws: int = MC_DRAWS_DEFAULT,
    seed: int = 0,
) -> tuple[float, float, str]:
    """Squared L2 distance between two hypotheses under the covariate law.

    Returns (value, stderr, mode).  Linear pairs are exact on every law
    (the quadratic form in the second-moment matrix).  Under the uniform
    interval law every pairing of univariate linear, step, constant and
    ReLU hypotheses is exact: f - g is affine, d(z) = s z + c, on each piece
    of the merged breakpoints, and a piece of width w and midpoint m adds
    w (d(m)^2 + (s w)^2 / 12), a form that does not cancel when f is close
    to g.  Off the interval law (the ball law) every other pairing is Monte
    Carlo over ``draws`` fresh covariate draws, with its stderr.
    """
    g = _as_hypothesis(g)
    if f.kind is HypothesisKind.LINEAR_BALL and g.kind is HypothesisKind.LINEAR_BALL:
        if second_moment is None:
            raise HypothesisError("linear pairs need the second-moment matrix")
        d = f.coef - g.coef
        return float(d @ second_moment @ d), 0.0, "exact"
    if law is CovariateLaw.INTERVAL:
        edges, s, c = _difference_pieces(f, g)
        mids, widths = 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)
        value = float(np.sum(widths * ((s * mids + c) ** 2 + (s * widths) ** 2 / 12.0)))
        return value, 0.0, "exact"
    rng = np.random.default_rng(seed)
    z = sample_covariates(law, p, draws, rng)
    sq = (f.predict(z) - g.predict(z)) ** 2
    value = float(sq.mean())
    stderr = float(sq.std(ddof=1) / math.sqrt(draws))
    return value, stderr, "monte_carlo"


def sup_distance(f: FittedHypothesis, g) -> float:
    """Sup-norm distance over the covariate support.

    Linear pairs use Cauchy-Schwarz over the unit ball.  Every other pairing
    of univariate hypotheses is exact on [0, 1): f - g is affine on each
    piece of the merged breakpoints, so its largest absolute value sits at
    a piece end (the one-sided limits at the jumps of a step function).
    """
    g = _as_hypothesis(g)
    if f.kind is HypothesisKind.LINEAR_BALL and g.kind is HypothesisKind.LINEAR_BALL:
        return float(np.linalg.norm(f.coef - g.coef))
    edges, s, c = _difference_pieces(f, g)
    return float(max(np.abs(s * edges[:-1] + c).max(), np.abs(s * edges[1:] + c).max()))
