"""Constant-curvature model functions and closed-form volume bounds.

Everything in this module is a pure function of real/integer arguments:
the generalized trigonometric pair (sn, cs), the model shape-operator
trace, the Heintze-Karcher tube integrand and its first zero, and the
integral-curvature tube bound with its derived constants. No manifold
machinery is touched here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, asdict

import numpy as np

__all__ = [
    "DomainError",
    "InfeasibleBoundError",
    "BoundConstants",
    "BoundReport",
    "sn_cs",
    "model_shape_trace",
    "model_shape_traces",
    "hk_integrand",
    "first_zero",
    "sphere_volume",
    "lemma52_coefficient",
    "thm1_constants",
    "thm1_bound",
    "cheeger_delta",
    "unmet_hypothesis",
]

# Below this |H| the flat branch is used; avoids 0/0 cancellation in sin(s*r)/s.
_FLAT_EPS = 1e-8


class DomainError(ValueError):
    """Argument lies at or beyond the first singularity of a model formula."""


class InfeasibleBoundError(ValueError):
    """No positive submanifold volume satisfies the requested bound."""


def sn_cs(H: float, r: float) -> tuple[float, float]:
    """Return (sn_H(r), cs_H(r)), the solution pair of f'' + H f = 0.

    sn_H has sn(0)=0, sn'(0)=1; cs_H = sn_H' has cs(0)=1. The three sign
    branches (sin/linear/sinh) are continuous in H at H = 0.
    """
    if abs(H) < _FLAT_EPS:
        return r, 1.0
    if H > 0.0:
        s = math.sqrt(H)
        return math.sin(s * r) / s, math.cos(s * r)
    s = math.sqrt(-H)
    return math.sinh(s * r) / s, math.cosh(s * r)


def _denominator_first_zero(H: float, w0: float | None) -> float:
    """First positive zero of cs_H + w0*sn_H (or of sn_H when w0 is None)."""
    if w0 is None:
        if H > _FLAT_EPS:
            return math.pi / math.sqrt(H)
        return math.inf
    if abs(H) < _FLAT_EPS:
        return -1.0 / w0 if w0 < 0.0 else math.inf
    if H > 0.0:
        s = math.sqrt(H)
        return (math.atan(w0 / s) + 0.5 * math.pi) / s
    s = math.sqrt(-H)
    if w0 < -s:
        return math.atanh(s / -w0) / s
    return math.inf


def model_shape_trace(H: float, k: int, tangential_w0: float | None, t: float) -> float:
    """Trace bound k*(log(cs_H + w0*sn_H))' for the k-dim comparison model.

    With ``tangential_w0`` supplied the tangential branch
    k*(w0*cs - H*sn)/(cs + w0*sn) is returned; otherwise the generic
    branch k*cs/sn. Raises DomainError at or beyond the first positive
    zero of the relevant denominator. ``t`` may be an array of times, each
    entry bitwise the scalar call's value.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ts = np.asarray(t, dtype=float)
    if np.any(ts <= 0.0):
        raise DomainError(f"model trace needs t > 0, got t={t}")
    zero = _denominator_first_zero(H, tangential_w0)
    if np.any(ts >= zero):
        raise DomainError(f"t={t} at/beyond first denominator zero {zero}")
    w0 = math.nan if tangential_w0 is None else tangential_w0
    out = model_shape_traces(H, k, [w0], ts.ravel()).reshape(ts.shape)
    return out if ts.ndim else float(out)


def model_shape_traces(H: float, k: int, w0s, ts) -> np.ndarray:
    """``model_shape_trace`` at every time of ts (..., T) and w0 of w0s (..., F).

    Gives (..., T, F), the leading axes broadcast; a NaN w0 takes the
    generic branch. sn_cs runs once per time, shared by every w0. No
    domain is checked: an entry at or past its denominator's first zero
    is a value of the formula, not of the model, and the caller leaves it
    out.
    """
    ts = np.asarray(ts, dtype=float)
    pairs = np.array([sn_cs(H, s) for s in ts.ravel()]).reshape(ts.shape + (2,))
    sn, cs = pairs[..., 0, None], pairs[..., 1, None]
    w0 = np.asarray(w0s, dtype=float)[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.isnan(w0), k * cs / sn, k * (w0 * cs - H * sn) / (cs + w0 * sn))


def hk_integrand(H: float, n: int, m: int, eta_dot_xi: float, t: float) -> float:
    """Model tube density (cs_H + <eta,xi> sn_H)^m * sn_H^(n-m-1); +inf past the floats."""
    if not 0 <= m <= n - 1:
        raise ValueError(f"need 0 <= m <= n-1, got n={n}, m={m}")
    try:
        sn, cs = sn_cs(H, t)
        return (cs + eta_dot_xi * sn) ** m * sn ** (n - m - 1)
    except OverflowError:
        return math.inf


def first_zero(H: float, n: int, m: int, eta_dot_xi: float, r: float) -> float:
    """min(r, first t > 0 where the Heintze-Karcher integrand vanishes).

    The integrand's zeros are those of its two factors, cs_H + <eta,xi> sn_H
    (when m >= 1) and sn_H (when n-m-1 >= 1), and each factor's first zero
    has a closed form; even powers that make the product touch zero without
    a sign change do not matter.
    """
    if r <= 0.0:
        raise ValueError(f"need r > 0, got {r}")
    zeros = [r]
    if m >= 1:
        zeros.append(_denominator_first_zero(H, eta_dot_xi))
    if n - m - 1 >= 1:
        zeros.append(_denominator_first_zero(H, None))
    return min(zeros)


def sphere_volume(d: int) -> float:
    """d-volume of the unit d-sphere: 2 pi^((d+1)/2) / Gamma((d+1)/2)."""
    if d < 0:
        raise ValueError(f"sphere dimension must be >= 0, got {d}")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


@dataclass(frozen=True)
class BoundConstants:
    """Derived constants of the integral tube-volume bound."""

    n: int
    m: int
    p: float
    H: float
    k: int
    alpha: float
    beta: float
    delta: float
    kappa: float

    def as_dict(self) -> dict:
        return asdict(self)


# bound -> its parameter hypotheses, (holds, reason) rows tested in order over n, m,
# k, p, H, kmax = min(m, n - m - 1) and n_k = n - k. Ric_k >= kH gives Ric_k' >= k'H
# for k' >= k (average over k-subplanes): the hk theorem at kmax covers every k below.
_P_ABOVE_N_K = (lambda p, n, k, **_: p > n - k, "needs p > n-k = {n_k}, got p={p}")
HYPOTHESES = {
    "hk": ((lambda k, kmax, **_: 1 <= k <= kmax,
            "needs 1 <= k <= min(m, n-m-1) = {kmax}, got k={k}"),),
    "focal": ((lambda H, **_: H > 0.0, "needs H > 0, scenario has H = {H}"),
              (lambda m, k, **_: m >= k, "needs dim Sigma >= k, got m={m}, k={k}")),
    "integral": ((lambda m, n, **_: 0 < m < n - 1, "needs 0 < m < n-1, got m={m}, n={n}"),
                 (lambda H, **_: H <= 0.0, "needs H <= 0, got {H}"),
                 (lambda k, kmax, **_: k == kmax, "needs k = min(m, n-m-1) = {kmax}, got {k}"),
                 _P_ABOVE_N_K),
    "lemmas": ((lambda m, n, **_: 0 < m < n - 1, "needs 0 < m < n-1, got m={m}"),
               _P_ABOVE_N_K),
}


def unmet_hypothesis(bound: str, n: int, m: int, k: int, p: float, H: float) -> str | None:
    """The reason of the first row of ``HYPOTHESES[bound]`` that fails, or None."""
    values = {"n": n, "m": m, "k": k, "p": p, "H": H, "kmax": min(m, n - m - 1), "n_k": n - k}
    for holds, reason in HYPOTHESES[bound]:
        if not holds(**values):
            return reason.format(**values)
    return None


def lemma52_coefficient(n: int, k: int, p: float) -> float:
    """Lemma 5.2's factor (2p - 1)/(p - (n - k)) between the ray L^p norms (p > n - k)."""
    return (2.0 * p - 1.0) / (p - (n - k))


def thm1_constants(n: int, m: int, p: float, H: float) -> BoundConstants:
    """Derive (k, alpha, beta, delta, kappa) for the integral tube bound.

    Raises ValueError with the reason of the first unmet ``integral``
    hypothesis at k = min(m, n-m-1).
    """
    k = min(m, n - m - 1)
    reason = unmet_hypothesis("integral", n, m, k, p, H)
    if reason is not None:
        raise ValueError(reason)
    alpha = (n - k - 1) / (n - k)
    beta = 1.0 / (n - m - 1) - 1.0 / p
    delta = 4.0 * (n - k - 1) + (4.0 / k) * lemma52_coefficient(n, k, p)
    kappa = (delta * abs(H)) ** alpha / (2.0 * alpha)
    return BoundConstants(n=n, m=m, p=float(p), H=float(H), k=k,
                          alpha=alpha, beta=beta, delta=delta, kappa=kappa)


def thm1_bound(constants: BoundConstants, vol_sigma: float,
               deficit_norm: float, r: float) -> float:
    """Upper bound for vol(T(Sigma, r)) from the integral curvature bound.

    Evaluates (w^(n-m-1) + 2^(p/alpha) * norm^(beta p) * w^p) * exp(kappa r^(2 alpha))
    with w(r) the curvature-weighted radius polynomial; a value past the
    floats is +inf, a vacuous but true bound.
    """
    for name, value in (("vol_sigma", vol_sigma), ("deficit_norm", deficit_norm), ("r", r)):
        if value < 0.0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    c = constants
    n, m, p = c.n, c.m, c.p
    fiber_dim = n - m - 1
    try:
        w = ((c.alpha / fiber_dim) ** (1.0 / (n - c.k - 1))
             * (sphere_volume(fiber_dim) * vol_sigma * r ** (n - m)) ** (1.0 / fiber_dim)
             + c.delta * deficit_norm ** (1.0 - c.beta) * r ** 2)
        main = w ** fiber_dim + 2.0 ** (p / c.alpha) * deficit_norm ** (c.beta * p) * w ** p
        return main * math.exp(c.kappa * r ** (2.0 * c.alpha))
    except OverflowError:
        return math.inf


def cheeger_delta(n: int, m: int, p: float, H: float,
                  v0: float, D: float, epsilon: float = 0.0) -> float:
    """Largest submanifold volume delta with tube bound at radius D below v0.

    Inverts the (strictly increasing in vol_sigma) tube bound by monotone
    bisection to 1e-10 relative. Raises InfeasibleBoundError when even
    vol_sigma -> 0+ exceeds v0, i.e. epsilon is too large for (v0, D).
    """
    if v0 <= 0.0 or D <= 0.0:
        raise ValueError("v0 and D must be positive")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    consts = thm1_constants(n, m, p, H)
    floor = thm1_bound(consts, 0.0, epsilon, D)
    if floor >= v0:
        raise InfeasibleBoundError(
            f"bound at vol_sigma -> 0+ is {floor} >= v0 = {v0}; epsilon too large")
    hi = 1.0
    while thm1_bound(consts, hi, epsilon, D) <= v0:
        hi *= 2.0
        if hi > 1e300:
            raise InfeasibleBoundError("bound never exceeds v0; parameters degenerate")
    lo = 0.0
    while (hi - lo) > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if thm1_bound(consts, mid, epsilon, D) <= v0:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass
class BoundReport:
    """Measured quantity vs. bound, with slack and pass/fail at a tolerance."""

    name: str
    measured: float
    bound: float
    slack: float
    constants: dict
    tolerance: float
    passed: bool
    equality: bool = False
    error_estimate: float = 0.0
    status: str = "ok"          # "ok" or "precondition-violation"
    details: dict = field(default_factory=dict)

    @classmethod
    def from_values(cls, name: str, measured: float, bound: float,
                    tolerance: float, constants: dict | BoundConstants | None = None,
                    error_estimate: float = 0.0, **details) -> "BoundReport":
        if isinstance(constants, BoundConstants):
            constants = constants.as_dict()
        slack = bound - measured
        return cls(
            name=name,
            measured=measured,
            bound=bound,
            slack=slack,
            constants=dict(constants or {}),
            tolerance=tolerance,
            passed=slack >= -tolerance,
            equality=math.isfinite(slack) and abs(slack) <= 10.0 * error_estimate,
            error_estimate=error_estimate,
            details=details,
        )

    @classmethod
    def precondition_violation(cls, name: str, reason: str, **details) -> "BoundReport":
        report = cls(name=name, measured=math.nan, bound=math.nan, slack=math.nan,
                     constants={}, tolerance=0.0, passed=False,
                     status="precondition-violation", details=details)
        report.details["reason"] = reason
        return report

    def as_dict(self) -> dict:
        """Every field, name and status first."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return _jsonable({"name": self.name, "status": self.status, **values})


def _jsonable(obj):
    """Recursively coerce numpy scalars/arrays into JSON (RFC 8259) values.

    JSON has no NaN or infinity, so a non-finite float becomes None (null).
    """
    if hasattr(obj, "tolist"):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, BoundConstants):
        return obj.as_dict()
    return repr(obj)
