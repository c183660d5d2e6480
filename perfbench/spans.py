"""Per-layer spans and counters, recorded by wrapping tubecomp's functions.

Nothing under ``src/`` changes: ``Tracer.install`` replaces each traced
function in every ``tubecomp`` module that binds it (``rho_k_at`` is bound
in ``geometry``, ``tubes``, ``verification`` and the package itself), and
``Tracer.uninstall`` puts the originals back. A span's self time is its
duration minus the time covered by the spans it encloses.
"""

from __future__ import annotations

import functools
import math
import sys
import time

import numpy as np

# span name -> (module, attribute); "Class.method" wraps a method in place
SPANS = {
    "cli.cmd_verify": ("tubecomp.cli", "cmd_verify"),
    "cli.cmd_tube_volume": ("tubecomp.cli", "cmd_tube_volume"),
    "verification.certify_rho_lower_bound": ("tubecomp.verification",
                                             "certify_rho_lower_bound"),
    "transport.integrate_ray": ("tubecomp.transport", "integrate_ray"),
    "transport.focal_time": ("tubecomp.transport", "RaySolution.focal_time"),
    "transport.structural_residuals": ("tubecomp.transport",
                                       "structural_residuals"),
    "geometry.rho_k_at": ("tubecomp.geometry", "rho_k_at"),
    "geometry.lp_deficit_norm": ("tubecomp.geometry", "lp_deficit_norm"),
    "tubes.sampler_build": ("tubecomp.tubes", "TubeSampler.__init__"),
    "tubes.volume": ("tubecomp.tubes", "TubeSampler.volume"),
    "tubes.lp_deficit": ("tubecomp.tubes", "TubeSampler.lp_deficit"),
    "tubes.monte_carlo": ("tubecomp.tubes", "tube_volume_monte_carlo"),
    "submanifolds.unit_normal_grid": ("tubecomp.submanifolds",
                                      "unit_normal_grid"),
    "models.first_zero": ("tubecomp.models", "first_zero"),
    "models.hk_integrand": ("tubecomp.models", "hk_integrand"),
    "quadrature.gauss_legendre_panels": ("tubecomp.quadrature",
                                         "gauss_legendre_panels"),
}


def _rows(x) -> int:
    return math.prod(np.shape(x)[:-1])


def _tubecomp_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "tubecomp" or name.startswith("tubecomp.")]


class Tracer:
    """Span statistics (calls, inclusive and self seconds) and counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.rhs_evals = 0
        self.curvature_points = 0
        self.curvature_calls = 0
        self.metric_points = 0
        self.metric_s = 0.0
        self.rho_flat = 0            # rho_k_at calls outside the curvature support
        self.rho_evaluated = 0       # rho_k_at calls that evaluated curvature
        self.rho_points: set = set()
        self._manifolds: list = []   # keeps the ids in rho_points unique
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._undo: list = []

    def install(self):
        """Wrap every traced function, method and check of the loaded package."""
        for name, (modname, attr) in SPANS.items():
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._span(name, orig))
                self._undo.append((cls, meth, orig))
            else:
                orig = getattr(mod, attr)
                self._replace_everywhere(orig, self._span(name, orig))
        dispatch = sys.modules["tubecomp.verification"].CHECK_DISPATCH
        for check, fn in list(dispatch.items()):
            dispatch[check] = self._span(f"verification.check.{check}", fn)
            self._undo.append((dispatch, check, fn))
        geometry = sys.modules["tubecomp.geometry"]
        self._before(geometry, "_curvature_batch", self._on_curvature)
        self._before(geometry, "connection_and_curvature", self._on_connection)

    def uninstall(self):
        for target, attr, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._undo.clear()

    def watch_manifold(self, M):
        """Count and time the rows passed through M's metric callbacks."""
        for attr in ("metric", "metric_grad", "metric_hess"):
            fn = getattr(M, attr)
            if fn is None:
                continue

            def timed(x, _fn=fn):
                self.metric_points += _rows(x)
                t0 = time.perf_counter()
                try:
                    return _fn(x)
                finally:
                    self.metric_s += time.perf_counter() - t0
            setattr(M, attr, timed)

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round mean of every span and counter, as name -> (value, unit)."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name] / rounds, "count")
            out[f"{name}.s"] = (self.inclusive[name] / rounds, "s")
            out[f"{name}.self_s"] = (self.self_time[name] / rounds, "s")
        lookups = self.calls["geometry.rho_k_at"] - self.rho_flat
        out.update({
            "transport.rhs_evals": (self.rhs_evals / rounds, "count"),
            "geometry.curvature_points": (self.curvature_points / rounds, "count"),
            "geometry.rho_k_at.distinct_points": (len(self.rho_points) / rounds,
                                                  "count"),
            "geometry.rho_k_at.hit_ratio": (
                (lookups - self.rho_evaluated) / lookups if lookups else 0.0,
                "ratio"),
            "manifolds.metric_points": (self.metric_points / rounds, "count"),
            "manifolds.metric_s": (self.metric_s / rounds, "s"),
        })
        return out

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        self.calls.setdefault(name, 0)
        self.inclusive.setdefault(name, 0.0)
        self.self_time.setdefault(name, 0.0)
        stack, depth = self._stack, self._depth
        is_rho = name == "geometry.rho_k_at"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if is_rho:
                self._note_rho_point(*args[:2])
                evaluated_before = self.curvature_calls
            child = [0.0]
            stack.append(child)
            depth[name] = depth.get(name, 0) + 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_time[name] += dt - child[0]
                if depth[name] == 0:     # a recursive call counts once
                    self.inclusive[name] += dt
                if stack:
                    stack[-1][0] += dt
                if is_rho and self.curvature_calls > evaluated_before:
                    self.rho_evaluated += 1
        return span

    def _replace_everywhere(self, orig, new):
        for mod in _tubecomp_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def _before(self, mod, attr, hook):
        orig = getattr(mod, attr)

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            hook(*args)
            return orig(*args, **kwargs)
        self._replace_everywhere(orig, counted)

    def _on_curvature(self, M, xs, *_):
        self.curvature_calls += 1
        self.curvature_points += _rows(xs)

    def _on_connection(self, M, x, *_):
        # the ray RHS evaluates the connection and curvature once per call
        if self._depth.get("transport.integrate_ray", 0) > 0:
            self.rhs_evals += 1

    def _note_rho_point(self, M, x):
        # rho_k_at answers 0 outside a declared curvature support without a
        # cache lookup; those calls count neither as points nor as lookups
        wrapped = M.domain.wrap(np.asarray(x, dtype=float))
        support = M.curvature_support
        if support is not None and not support.contains(wrapped):
            self.rho_flat += 1
            return
        if not any(m is M for m in self._manifolds):
            self._manifolds.append(M)
        self.rho_points.add((id(M), tuple(np.round(wrapped, 12))))
