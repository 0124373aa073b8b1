"""Two independent time-evolution engines and trajectory recording.

The workhorse stepper is a classical integrating-factor (Lawson) RK4 on the
Fourier coefficients.  A completely separate engine iterates the Duhamel
integral formulation with composite-Simpson quadrature in time; the two
discretization families share no code beyond the right-hand sides, so their
agreement is a genuine cross-check.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson

from .equations import energy, mass, nonlinear_coeffs, nonlinear_term, support_leakage
from .grid import SpectralField, l2_distance
from .spaces import esigma_norm

CFL_LIMIT = 50.0  # guard on dt * xi_max^2 for the nonlinear substep


class BlowUpError(RuntimeError):
    """Raised when a step produces non-finite coefficients."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


def linear_propagator(fld, t):
    """Free Schroedinger flow e^{it d^2/dx^2}: symbol e^{-i t xi^2}; unitary."""
    xi = fld.grid.frequencies
    return SpectralField(fld.grid, fld.coeffs * np.exp(-1j * t * xi ** 2))


@functools.lru_cache(maxsize=64)
def _lawson_phases(grid, dt):
    """Read-only e^{(dt/2) L} and e^{dt L} on ``grid``."""
    xi = grid.frequencies
    half = np.exp(-1j * (dt / 2.0) * xi ** 2)
    full = half * half
    half.flags.writeable = False
    full.flags.writeable = False
    return half, full


def step(fld, dt, spec):
    """One Lawson-RK4 step of u_t = i u_xx + i N(u); local error O(dt^5)."""
    if not (dt > 0):
        raise ValueError("dt must be positive")
    grid = fld.grid
    if dt * grid.xi_max ** 2 > CFL_LIMIT:
        raise ValueError(
            "dt * xi_max^2 = %.3g exceeds the guard %.0f"
            % (dt * grid.xi_max ** 2, CFL_LIMIT)
        )
    half, full = _lawson_phases(grid, dt)

    def nl(coeffs):
        return 1j * nonlinear_coeffs(coeffs, grid, spec)

    # interaction picture: g(tau, w) = e^{-tau L} N(e^{tau L} w)
    w = fld.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = nl(w)
        a = half * (w + (dt / 2.0) * k1)
        k2 = nl(a) / half
        b = half * w + (dt / 2.0) * half * k2
        k3 = nl(b) / half
        c = full * w + dt * full * k3
        k4 = nl(c) / full
        w_new = w + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out = full * w_new
    if not np.all(np.isfinite(out)):
        raise BlowUpError("non-finite coefficients after step")
    return SpectralField(grid, out)


@dataclass
class Trajectory:
    """Time-indexed states with per-sample diagnostics."""

    times: list
    states: list
    diagnostics: list  # one dict per sample
    blown_up: bool = False
    blowup_time: float | None = None

    def diagnostic_series(self, key):
        return np.array([d[key] for d in self.diagnostics])


def _diagnostics(fld, spec, eps0, norm_params):
    d = {
        "mass": mass(fld),
        "energy": energy(fld, spec.alpha),
        "leakage": support_leakage(fld, eps0),
    }
    for s, sigma in norm_params:
        d["esigma(%g,%g)" % (s, sigma)] = esigma_norm(fld, s, sigma)
    return d


def solve(u0, T, dt, spec, sample_every=1, eps0=0.0, norm_params=()):
    """Repeatedly step from u0 to time T, recording sampled diagnostics.

    When T is not a whole number of steps dt (to 1e-9 relative), a final
    shortened step ends the trajectory exactly at T.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be finite and positive, got %r" % (dt,))
    if not (math.isfinite(T) and T >= 0):
        raise ValueError("T must be finite and nonnegative, got %r" % (T,))
    if not (isinstance(sample_every, numbers.Integral) and sample_every >= 1):
        raise ValueError("sample_every must be an integer >= 1, got %r" % (sample_every,))
    norm_params = tuple(norm_params)
    traj = Trajectory([0.0], [u0], [_diagnostics(u0, spec, eps0, norm_params)])
    if T == 0:
        return traj
    n_full = int(round(T / dt))
    n_steps = n_full
    if abs(T / dt - n_full) > 1e-9 * (T / dt):
        n_full = int(T // dt)
        n_steps = n_full + 1
    u, t = u0, 0.0
    for i in range(1, n_steps + 1):
        h, t_next = (dt, i * dt) if i <= n_full else (T - n_full * dt, T)
        try:
            u = step(u, h, spec)
        except BlowUpError:
            traj.blown_up = True
            traj.blowup_time = t + h
            return traj
        t = t_next
        if i % sample_every == 0 or i == n_steps:
            traj.times.append(t)
            traj.states.append(u)
            traj.diagnostics.append(_diagnostics(u, spec, eps0, norm_params))
    return traj


@dataclass
class PicardReport:
    """Successive-iterate distances and the derived contraction diagnostics."""

    iterates_distances: list = field(default_factory=list)
    contraction_ratios: list = field(default_factory=list)
    converged: bool = False
    T_used: float = 0.0


def _free_sequence(u0, times):
    return [linear_propagator(u0, t) for t in times]


def picard_map(states, u0, T, spec):
    """One application of the Duhamel map on a uniform time grid.

    u_new(t) = e^{it D} u0 + int_0^t e^{i(t-tau) D} i N(u(tau)) dtau, the
    integral evaluated by cumulative composite-Simpson quadrature of the
    interaction-picture integrand.
    """
    n = len(states)
    if n < 9:
        raise ValueError("picard_map needs at least 9 time nodes")
    if n % 2 == 0:
        raise ValueError("picard_map needs an odd node count for Simpson")
    times = np.linspace(0.0, T, n)
    grid = u0.grid
    xi = grid.frequencies
    integrand = np.empty((n, grid.n_modes), dtype=np.complex128)
    for i, (t, u) in enumerate(zip(times, states)):
        nl = 1j * nonlinear_term(u, spec).coeffs
        integrand[i] = np.exp(1j * t * xi ** 2) * nl
    # cumulative_simpson works on real arrays; integrate parts separately
    cum = cumulative_simpson(
        integrand.real, x=times, axis=0, initial=0.0
    ) + 1j * cumulative_simpson(integrand.imag, x=times, axis=0, initial=0.0)
    out = []
    for i, t in enumerate(times):
        phase = np.exp(-1j * t * xi ** 2)
        out.append(SpectralField(grid, phase * (u0.coeffs + cum[i])))
    return out


def picard_solve(u0, T, spec, n_nodes=33, n_iter=20, tol=1e-10):
    """Iterate the Duhamel map from the free solution; never raises on divergence."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    times = np.linspace(0.0, T, n_nodes)
    current = _free_sequence(u0, times)
    report = PicardReport(T_used=T)
    growth_streak = 0
    for _ in range(n_iter):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                new = picard_map(current, u0, T, spec)
        except (ValueError, FloatingPointError):
            # iterate left the representable range: divergence, not a crash
            break
        dist = max(l2_distance(a, b) for a, b in zip(new, current))
        if report.iterates_distances:
            prev = report.iterates_distances[-1]
            if prev > 0:
                report.contraction_ratios.append(dist / prev)
            growth_streak = growth_streak + 1 if dist > prev else 0
        report.iterates_distances.append(dist)
        current = new
        if dist <= tol:
            report.converged = True
            break
        if growth_streak >= 3 or not np.isfinite(dist):
            break
    return current, report
