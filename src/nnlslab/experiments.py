"""Named reproducible experiments, each probing one verifiable claim.

Every experiment takes its equation first, keeps its defaults in its signature
(the command line reads them there), and returns an ExperimentReport with the
measured residuals and an explicit pass flag; all are deterministic (no
unseeded randomness).  The trajectory experiments begin (spec, u0, T, dt).
"""

from __future__ import annotations

import functools
import inspect
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .equations import (
    GAUGED_GNDNLS,
    GAUGED_NDNLS,
    GNDNLS,
    NDNLS,
    NNLS,
    mass_energy_coeffs,
    support_leakage,
)
from .evolve import picard_solve, solve, solve_batch
from .gauge import gauge_forward
from .grid import EndpointDecayWarning, SpectralField, forward_transform, l2_distance, l2_norm
from .spaces import dilate, esigma_norm, esigma_weights, weighted_l2


@dataclass
class ExperimentReport:
    """Outcome record for one experiment run."""

    claim_id: str
    parameters: dict = field(default_factory=dict)
    measurements: dict = field(default_factory=dict)
    tolerance: float = 0.0
    passed: bool = False
    trajectory: object = None  # attached by trajectory-based experiments, not serialized


def _integral(x):
    """Whether the number ``x`` is a whole number and not a bool (``float(True)`` is 1.0)."""
    return not isinstance(x, (bool, np.bool_)) and float(x).is_integer()


@dataclass(frozen=True)
class TwoBumpData:
    """Spectral profile with two box bumps near +k and -2k.

    amplitude 2^{-s k/2} on [k + 1/8, k + 1/4] and [-2k + 1/4, -2k + 1/2].
    """

    k: int
    s: float

    def __post_init__(self):
        if not (_integral(self.k) and self.k >= 1):
            raise ValueError("k must be a positive integer, got %r" % (self.k,))
        object.__setattr__(self, "k", int(self.k))
        if not self.s < 0:
            raise ValueError("s must be negative")
        if not -self.s * self.k / 2.0 < 1024:  # 2.0 ** x is a finite float for x < 1024
            raise ValueError("k = %d: the amplitude 2^(-s k/2) overflows at s = %r"
                             % (self.k, self.s))

    @property
    def amplitude(self):
        return 2.0 ** (-self.s * self.k / 2.0)

    @property
    def upper_box(self):
        return (self.k + 0.125, self.k + 0.25)

    @property
    def lower_box(self):
        return (-2.0 * self.k + 0.25, -2.0 * self.k + 0.5)


def _bump_profile(xi, lo, hi):
    # C-infinity bump supported on (lo, hi), peak value 1 at the midpoint
    t = (xi - lo) / (hi - lo)
    inside = (t > 0) & (t < 1)
    out = np.zeros_like(np.asarray(xi, dtype=float))
    ts = t[inside]
    out[inside] = np.exp(4.0 - 1.0 / (ts * (1.0 - ts)))
    return out


def _require_positive_width(width):
    if not width > 0:  # 0 divides by zero, and nan compares false
        raise ValueError("width must be positive, got %r" % (width,))


def _gaussian(grid, amplitude=1.0, width=1.0):
    _require_positive_width(width)
    x = grid.points
    return forward_transform(amplitude * np.exp(-(x / width) ** 2 / 2.0).astype(complex), grid)


def _modulated_gaussian(grid, amplitude=1.0, width=1.0, carrier=3.0):
    _require_positive_width(width)
    x = grid.points
    s = amplitude * np.exp(1j * carrier * x) * np.exp(-(x / width) ** 2 / 2.0)
    return forward_transform(s, grid)


def _halfline_bump(grid, amplitude=1.0, lo=1.0, hi=2.0):
    if not (lo < hi):
        raise ValueError("halfline_bump needs lo < hi")
    return SpectralField(grid, amplitude * _bump_profile(grid.frequencies, lo, hi))


def _plemelj_derivative(grid, amplitude=1.0, k=3):
    if not (_integral(k) and k >= 0):
        raise ValueError("derivative order k must be an integer >= 0, got %r" % (k,))
    order = int(k)
    if order * np.log10(max(grid.xi_max, 2.0)) > 280:
        raise ValueError("derivative order %d overflows at the grid band" % order)
    xi = grid.frequencies
    coeffs = np.where(xi >= 1.0, amplitude * (1j * (xi - 1.0)) ** order, 0.0)
    return SpectralField(grid, coeffs)


def _two_bump(grid, k, s):
    prof = TwoBumpData(k, float(s))
    xi = grid.frequencies
    up, dn = prof.upper_box, prof.lower_box
    ind = ((xi >= up[0]) & (xi <= up[1])) | ((xi >= dn[0]) & (xi <= dn[1]))
    return SpectralField(grid, prof.amplitude * ind.astype(complex))


# kind -> builder(grid, **params); each builder's keywords are its kind's parameters
_DATA_BUILDERS = {
    "gaussian": _gaussian,
    "modulated_gaussian": _modulated_gaussian,
    "halfline_bump": _halfline_bump,
    "plemelj_derivative": _plemelj_derivative,
    "two_bump": _two_bump,
}
DATA_KINDS = tuple(_DATA_BUILDERS)


def make_initial_data(kind, grid, /, **params):
    """Build one of the named initial profiles on the given grid.

    ``params`` are the keywords of the kind's builder; an unknown or missing
    one raises ValueError.
    """
    if kind not in _DATA_BUILDERS:
        raise ValueError("unknown initial-data kind %r; expected one of %s" % (kind, (DATA_KINDS,)))
    build = _DATA_BUILDERS[kind]
    try:
        inspect.signature(build).bind(grid, **params)
    except TypeError as exc:
        raise ValueError("initial-data kind %r: %s" % (kind, exc)) from None
    return build(grid, **params)


def _blowup(traj):
    """The measurement ``blown_up`` and, for a blown-up ``traj``, ``blowup_time``."""
    extra = {"blowup_time": traj.blowup_time} if traj.blown_up else {}
    return dict(extra, blown_up=traj.blown_up)


def exp_conservation(spec, u0, T, dt, tolerance=1e-6, sample_every=50):
    """Check mass (and, for the cubic equation, energy) drift along a solve."""
    if spec.kind not in (NNLS, NDNLS):
        raise ValueError("conservation experiment covers NNLS and NdNLS only")
    traj = solve(u0, T, dt, spec, sample_every=sample_every)
    m, e = np.array([mass_energy_coeffs(u.coeffs, u.grid, spec.alpha) for u in traj.states]).T
    drift_m = float(np.max(np.abs(m - m[0])) / max(abs(m[0]), 1e-300))
    meas = {"mass_drift": drift_m}
    ok = not traj.blown_up and drift_m <= tolerance
    if spec.kind == NNLS:
        drift_e = float(np.max(np.abs(e - e[0])) / max(abs(e[0]), 1e-300))
        meas["energy_drift"] = drift_e
        ok = ok and drift_e <= tolerance
    return ExperimentReport(
        claim_id="mass-energy-conservation",
        parameters={"kind": spec.kind, "alpha": spec.alpha, "T": T, "dt": dt},
        measurements=dict(meas, **_blowup(traj)),
        tolerance=tolerance,
        passed=bool(ok),
        trajectory=traj,
    )


def exp_gauge_equivalence(spec, u0, T, dt, tolerance=1e-4, sample_every=25):
    """Evolve u and its gauged image v by their own equations; compare G(u(t)) to v(t).

    ``spec``, NdNLS or gNdNLS, gives the coefficients; beta = 0 runs the NdNLS pair.
    """
    if spec.kind not in (NDNLS, GNDNLS):
        raise ValueError("gauge_equivalence runs the %s or %s pair, not equation.kind %r"
                         % (NDNLS, GNDNLS, spec.kind))
    pair = (NDNLS, GAUGED_NDNLS) if spec.beta == 0 else (GNDNLS, GAUGED_GNDNLS)
    spec_u, spec_v = (replace(spec, kind=kind) for kind in pair)
    delta = -spec.alpha / 2.0
    measurements = {"max_relative_residual": np.inf}
    try:
        v0 = gauge_forward(u0, delta)
        tr_u = solve(u0, T, dt, spec_u, sample_every=sample_every)
        tr_v = solve(v0, T, dt, spec_v, sample_every=sample_every)
        first = min((tr_u, tr_v), key=lambda tr: tr.blowup_time if tr.blown_up else np.inf)
        measurements.update(_blowup(first))
        if not first.blown_up:
            with warnings.catch_warnings():
                # dispersive tails wrap at ~1e-8 relative; far below the tolerance
                warnings.simplefilter("ignore", EndpointDecayWarning)
                measurements["max_relative_residual"] = max(
                    l2_distance(gauge_forward(fu, delta), fv) / max(l2_norm(fv), 1e-300)
                    for fu, fv in zip(tr_u.states, tr_v.states))
    except FloatingPointError:  # G(u) of the data or of a state is not representable
        measurements["gauge_overflow"] = True
    return ExperimentReport(
        claim_id="gauge-equivalence",
        parameters={"alpha": spec.alpha, "beta": spec.beta, "mode": spec.gauged_coefficient_mode,
                    "T": T, "dt": dt},
        measurements=measurements,
        tolerance=tolerance,
        passed=bool(measurements["max_relative_residual"] <= tolerance),
    )


def exp_support_invariance(spec, u0, T, dt, eps0=1.0, tolerance=1e-10, sample_every=50):
    """Verify that spectral support above eps0 is preserved along the flow."""
    if support_leakage(u0, eps0) > 1e-13:
        raise ValueError("initial data leaks below eps0 already")
    traj = solve(u0, T, dt, spec, sample_every=sample_every)
    worst = float(np.max([support_leakage(u, eps0) for u in traj.states]))
    return ExperimentReport(
        claim_id="halfline-support-invariance",
        parameters={"kind": spec.kind, "eps0": eps0, "T": T, "dt": dt},
        measurements={"max_leakage": worst, **_blowup(traj)},
        tolerance=tolerance,
        passed=bool(not traj.blown_up and worst <= tolerance),
        trajectory=traj,
    )


def _require_finite(**values):
    """ValueError naming the first of the keyword ``values`` that is not finite."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))


_SCALING_RATIO_BOUND = 10.0  # largest accepted ratio to the dilation bound


def exp_scaling_global(spec, u0, T, dt, s=-1.0, sigma=0.0, eps0=1.0,
                       lambdas=(1.0, 2.0, 4.0, 8.0), sample_every=25):
    """Dilation-bound ratios plus decay of the lam-weighted norm along solves.

    For ``u0`` with spectrum in [eps0, inf) and s <= 0, the ratio of factor
    lam is ||D_lam u0|| / (lam^(-1/2+max(sigma,0)) 2^(s lam eps0/2) ||u0||) in
    the E^s_sigma norm, checked for every lam > 1; the L2 identity is the same
    ratio at s = sigma = 0 and lam = 2.  The solve of factor lam runs to
    min(T, 2^sqrt(lam)).  A factor lam whose dilation leaves the grid band is
    skipped; every other refused value raises before any solve.  Each factor
    is dilated once, and the factors that share a horizon are solved as one
    batch.  The run passes only if some lam > 1 was checked.
    """
    _require_finite(s=s, sigma=sigma, eps0=eps0)
    if s > 0:
        raise ValueError("s must be <= 0, got %r" % (s,))
    for lam in lambdas:
        if not (np.isfinite(lam) and lam > 0):
            raise ValueError("dilation factors must be positive and finite, got %r" % (lam,))
    # before any dilation; first, since support_leakage reads 0 for a zero field
    if np.sum(np.abs(u0.coeffs) ** 2) * u0.grid.dxi == 0:
        raise ValueError("scaling check requires a nonzero field")
    leakage = support_leakage(u0, eps0)  # refuses eps0 < 0
    if leakage > 1e-10:
        raise ValueError("spectrum not supported in [eps0, inf): leakage %.3g" % leakage)
    two = dilate(u0, 2.0)  # the L2 identity's; raises when 2 leaves the band

    def ratio(field, lam, s, sigma, base):
        return esigma_norm(field, s, sigma) / (
            lam ** (-0.5 + max(sigma, 0.0)) * 2.0 ** (s * lam * eps0 / 2.0) * base)

    l2_ratio = ratio(two, 2.0, 0.0, 0.0, esigma_norm(u0, 0.0, 0.0))
    scaled, skipped = {}, []
    for lam in dict.fromkeys(lambdas):  # a factor listed twice is checked once
        try:
            scaled[lam] = u0 if lam == 1 else two if lam == 2 else dilate(u0, lam)
        except ValueError:  # the dilated spectrum leaves the grid band
            skipped.append(lam)
    checked = [lam for lam in scaled if lam > 1]
    base = esigma_norm(u0, s, sigma) if checked else None
    ratios = {lam: ratio(scaled[lam], lam, s, sigma, base) for lam in checked}
    # each sup starts from the norm of its data, so an overflowing weight
    # refuses before any solve
    norms = {lam: [esigma_norm(f, s * lam, sigma)] for lam, f in scaled.items()}
    batches = {}
    for lam in norms:
        batches.setdefault(min(T, 2.0 ** np.sqrt(lam)), []).append(lam)
    for horizon, batch in batches.items():
        trajs = solve_batch([scaled[lam] for lam in batch], horizon, dt, spec,
                            sample_every=sample_every)
        for lam, traj in zip(batch, trajs):
            norms[lam] += [esigma_norm(x, s * lam, sigma) for x in traj.states[1:]]
    sup_norms = {lam: float(np.max(v)) for lam, v in norms.items()}
    seq = list(sup_norms.values())
    monotone = all(b < a for a, b in zip(seq, seq[1:]))
    ratio_ok = bool(ratios) and all(r <= _SCALING_RATIO_BOUND for r in ratios.values())
    identity_ok = abs(l2_ratio - 1.0) <= 1e-10
    return ExperimentReport(
        claim_id="dilation-scaling-bound",
        parameters={"s": s, "sigma": sigma, "eps0": eps0, "lambdas": tuple(lambdas)},
        measurements={
            "ratios": {lam: float(r) for lam, r in ratios.items()},
            "l2_identity_ratio": float(l2_ratio),
            "sup_norms": sup_norms,
            "monotone_decay": monotone,
            "skipped": tuple(skipped),
        },
        tolerance=_SCALING_RATIO_BOUND,
        passed=bool(ratio_ok and identity_ok and monotone),
    )


def _contracting(u0, T, spec):
    # keep the quadrature step below 1/4 so long horizons stay resolved
    n_nodes = max(33, 2 * int(np.ceil(2.0 * T)) + 1)
    _, rep = picard_solve(u0, T, spec, n_nodes=n_nodes, n_iter=10, tol=1e-12)
    d = rep.iterates_distances
    # ratios while the distances are still well above the roundoff floor
    ratios = [b / a for a, b in zip(d, d[1:]) if a > 1e-10]
    return len(ratios) >= 2 and max(ratios) <= 0.5


# the horizon search: no window below _T_FLOOR, none reported above _T_CAP,
# and bisection down to a relative bracket of _WINDOW_REL_TOL
_T_FLOOR = 1e-6
_T_CAP = 256.0
_WINDOW_REL_TOL = 0.02


def largest_contracting_time(u0, spec):
    """Bisect the largest horizon on which the Duhamel map still contracts."""
    T = 1.0
    if _contracting(u0, T, spec):
        lo = T
        while lo < _T_CAP and _contracting(u0, min(2 * lo, _T_CAP), spec):
            lo = min(2 * lo, _T_CAP)
            if lo >= _T_CAP:
                return _T_CAP
        hi = min(2 * lo, _T_CAP)
    else:
        hi = T
        while hi > _T_FLOOR and not _contracting(u0, hi / 2, spec):
            hi = hi / 2
        if hi <= _T_FLOOR:
            return None
        lo = hi / 2
    while hi / lo > 1 + _WINDOW_REL_TOL:
        mid = np.sqrt(lo * hi)
        if _contracting(u0, mid, spec):
            lo = mid
        else:
            hi = mid
    return float(lo)


def _linefit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * np.asarray(x) + intercept
    ss_res = float(np.sum((np.asarray(y) - pred) ** 2))
    ss_tot = float(np.sum((np.asarray(y) - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(slope), r2


_WINDOW_R2_MIN = 0.9  # least r^2 of the log-log window fit


def exp_picard_window(spec, make_u0, amplitudes=(4.0, 12.6, 40.0, 126.0, 400.0), s=-1.0,
                      sigma=0.0):
    """Fit the contracting-window size against the data norm across a family.

    Member i of the family is ``make_u0(amplitude=amplitudes[i])``.
    """
    family = [make_u0(amplitude=a) for a in amplitudes]  # each built before any solve
    # every norm before any search, so an overflowing weight refuses first
    family_norms = [esigma_norm(u0, s, sigma) for u0 in family]
    norms, windows, excluded = [], [], []
    for i, (u0, norm) in enumerate(zip(family, family_norms)):
        T_star = largest_contracting_time(u0, spec)
        if T_star is None:
            excluded.append(i)
            continue
        norms.append(norm)
        windows.append(T_star)
    ok = len(norms) >= 3
    slope, r2 = (np.nan, 0.0)
    if ok:
        slope, r2 = _linefit(np.log(norms), np.log(windows))
        ok = slope < 0 and r2 >= _WINDOW_R2_MIN
    return ExperimentReport(
        claim_id="contraction-window-scaling",
        parameters={"kind": spec.kind, "alpha": spec.alpha, "s": s, "sigma": sigma},
        measurements={
            "norms": tuple(float(v) for v in norms),
            "windows": tuple(float(v) for v in windows),
            "slope": float(slope),
            "r_squared": float(r2),
            "excluded": tuple(excluded),
        },
        tolerance=_WINDOW_R2_MIN,
        passed=bool(ok),
    )


@functools.lru_cache(maxsize=None)
def _gl(n):
    """The read-only ``n``-point Gauss-Legendre nodes and weights, computed once per n."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


# Outer rows per block of xi, and nodes per 2-D temporary of ``_min_rho``'s
# uncertified rows: 8192 complex values are 128 KiB.  Warm n_nodes = 32
# norm-inflation passes, 2 cores, equal norms: 33.1 MB peak RSS at 8192 rows,
# 38.2 MB with the whole band in one block, each at 0.03-0.05 s a pass.
_QUAD_NODES = 8192

# |B| <= 1 keeps the moment sums' series in B at most 21 terms long; |A| is free
_MOMENT_MAX_B = 1.0


def _terms(x, first=1):
    """The least M with x^(M+1) / (first (first + 1) ... (first + M)) below 2^-64.

    Summed to the power M, a series whose m-th term is at most
    x^m / (first ... (first + m - 1)) of its scale (x^m/m! at ``first`` = 1)
    omits far less than one rounding, once the terms fall.
    """
    m, term = 0, x / first
    while term >= 2.0 ** -64:
        m += 1
        term *= x / (first + m)
    return m


_MAX_ORDER = _terms(_MOMENT_MAX_B)


@functools.lru_cache(maxsize=None)
def _series_coeffs(n):
    """The coefficients in B of the ``n``-point rule's two inner sums (see ``_moment_sums``).

    With M_k = sum_j wg_j g_j^k, the moments of the rule itself, c0[k] =
    (-1)^(k/2) M_k / k! for even k and c1[k] = (-1)^((k-1)/2) M_(k+1) / k!
    for odd k.  The odd moments of the symmetric rule are 0, so c0 is 0 at odd
    k and c1 at even k.
    """
    g, wg = _gl(n)
    c0, c1 = [0.0] * (_MAX_ORDER + 1), [0.0] * (_MAX_ORDER + 1)
    for k in range(_MAX_ORDER + 1):
        moment = float(np.dot(wg, g ** (k + k % 2)))
        sign = -1.0 if (k // 2) % 2 else 1.0
        (c1 if k % 2 else c0)[k] = sign * moment / math.factorial(k)
    return tuple(c0), tuple(c1)


@functools.lru_cache(maxsize=None)
def _kummer_coeffs(K, M):
    """Kummer's series of I_K to the power max(M, 1): its even and its odd terms'
    coefficients (-1)^(m//2) / ((K+1)...(K+m+1)), each one rounding of an integer."""
    c = [(-1.0) ** (m // 2) / math.prod(range(K + 1, K + m + 2)) for m in range(max(M, 1) + 1)]
    return tuple(c[0::2]), tuple(c[1::2])


def _horner(x, coeffs):
    """sum_j coeffs[j] x^j at every element of the real array ``x``."""
    out = np.full(x.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _sinc(x):
    # S(x) = sin x / x = Im (e^{ix} - 1)/x, with S(0) = 1
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)


def _phase_moments(A, K):
    """I_K(A), I_(K-1)(A), ..., I_0(A), one at a time: I_k(A) = int_0^1 s^k e^{isA} ds.

    Each recurrence runs only where it damps rounding.  For k >= |A| a moment
    comes down from I_K by I_(k-1) = (e^{iA} - iA I_k)/k, which scales an
    error by |A|/k, with I_K from Kummer's series e^{iA} sum_m (-iA)^m /
    ((K+1)(K+2)...(K+m+1)), whose terms fall from the first while |A| <= K + 1.
    For k < |A| it comes up from I_0 = e^{iA/2} S(A/2) by I_k = (e^{iA} -
    k I_(k-1))/(iA), which scales an error by k/|A|; that pass runs only when
    some |A| > 1, serves only the rows with |A| > 1, so that a row's moments
    do not depend on the other rows, and keeps one array per moment
    k < max |A|, at most K + 1.  A row with |A| > K + 1 takes every moment
    from it, and its series is summed at A = +-(K + 1) and discarded.  Within
    4.4e-16 of 150-digit values, relative, at 31 chosen and 1000 random
    values of |A| <= 1000 and every K <= 22.
    """
    a = np.abs(A)
    top = float(np.max(a))
    cap = float(K + 1)
    Ac = A if top <= cap else np.clip(A, -cap, cap)
    re, im = _kummer_coeffs(K, _terms(min(top, cap), K + 2))
    sq = Ac * Ac
    iA = 1j * A
    e = np.exp(iA)
    moment = e * (_horner(sq, re) - 1j * (Ac * _horner(sq, im)))
    up = []
    if top > 1.0:
        rising = a > 1.0
        a = np.where(rising, a, 0.0)  # k < a never holds on the other rows
        divisor = np.where(rising, A, 1.0)
        moment_up = np.exp(0.5 * iA) * _sinc(0.5 * A)
        up.append(moment_up)
        for k in range(1, min(K, math.ceil(top) - 1) + 1):
            # (e - k I)/(iA) = -i (e - k I)/A: multiplying by -1j is exact
            moment_up = (e - k * moment_up) * -1j / divisor
            up.append(moment_up)
    for k in range(K, -1, -1):
        if k < len(up):
            moment = np.where(k < a, up[k], moment)
        yield moment
        if k:
            moment = (e - iA * moment) * (1.0 / k)


def _moment_sums(A, B, n, with_g):
    """Per row i, sum_j wg_j f(A_i - B_i g_j) and sum_j wg_j g_j f(A_i - B_i g_j).

    f(z) = (e^{iz} - 1)/z = i int_0^1 e^{isz} ds, and g_j, wg_j is the
    ``n``-point Gauss rule; the second sum is None unless ``with_g``.
    Expanding e^{-isBg} gives f(A - B g) = sum_k i^(k+1) (-B g)^k I_k(A) / k!
    with the moments I_k(A) = int_0^1 s^k e^{isA} ds, so the node sums are
    series in B over the rule's moments M_k:

        sum_j wg_j f(A - B g_j)     = sum_k i^(k+1) (-B)^k M_k I_k(A) / k!
        sum_j wg_j g_j f(A - B g_j) = sum_k i^(k+1) (-B)^k M_(k+1) I_k(A) / k!

    The rule's own moments make them the n-point sums, not the exact
    integrals.  The series run to K = ``_terms(max |B|)``, and both are
    accumulated by Horner's rule in B^2 as ``_phase_moments`` steps down from
    I_K, so the sums hold one complex value per row.  For |B| <=
    ``_MOMENT_MAX_B`` and any A.
    """
    c0, c1 = _series_coeffs(n)
    K = _terms(float(np.max(np.abs(B))))
    b2 = B * B
    s0 = np.zeros(A.shape, dtype=np.complex128)
    s1 = np.zeros(A.shape, dtype=np.complex128) if with_g else None
    for k, moment in zip(range(K, -1, -1), _phase_moments(A, K)):
        if k % 2 == 0:
            s0 *= b2
            s0 += c0[k] * moment
        elif with_g:
            s1 *= b2
            s1 += c1[k] * moment
    s0 *= 1j
    if with_g:
        s1 *= B
    return s0, s1


def _dsinc(x):
    # S'(x) = (cos x - S(x))/x, from its Taylor series where that difference cancels
    out = np.empty_like(x)
    small = np.abs(x) < 0.5
    q = x[small] ** 2
    out[small] = x[small] * _horner(q, [-1 / 3, 1 / 30, -1 / 840, 1 / 45360, -1 / 3991680])
    xl = x[~small]
    out[~small] = (np.cos(xl) - np.sin(xl) / xl) / xl
    return out


def _min_rho(t, A, A2, B, g):
    """-Im rho at its least node: t min_ij (2 S(A2_i + B_i g_j) - S(A_i - B_i g_j)).

    S(x) = sin x / x is the imaginary part of the phase ratio (e^{ix} - 1)/x
    at the rho phase A2 + B g and the kernel phase A - B g.  Along a row the
    g-derivative is B (2 S'(A2 + B g) + S'(A - B g)), which moves by at most
    B^2 over [-1, 1] since |S''| <= 1/3.  So a row whose slope certificate
    |B (2 S'(A2) + S'(A))| > 2 B^2 holds is monotone on [-1, 1], and its least
    node is one of the two end nodes; every other row is evaluated at every
    node, in chunks of at most ``_QUAD_NODES`` nodes.
    """
    def at(rows, nodes):
        Bg = B[rows, None] * nodes
        return 2.0 * _sinc(A2[rows, None] + Bg) - _sinc(A[rows, None] - Bg)

    certified = np.abs(B * (2.0 * _dsinc(A2) + _dsinc(A))) > 2.0 * B * B
    least = np.min(at(certified, g[[0, -1]]), initial=np.inf)
    rest = np.flatnonzero(~certified)
    step = max(1, _QUAD_NODES // g.size)
    for s in range(0, rest.size, step):
        least = min(least, np.min(at(rest[s:s + step], g)))
    return t * float(least)


def _combo_integrals(xi, t, b1, b2, b3, n, with_xi2_factor, rho_track, mirrored):
    """Integral over xi1 in b1, xi2 in b2, xi - xi1 - xi2 in b3 of the kernel, per xi.

    The kernel t (e^{iz} - 1)/z and its phase z = 2t(xi - xi1)(xi - xi2) are
    symmetric under xi1 <-> xi2, since N(u) has two interchangeable factors u;
    only the factor f of the NdNLS integrand, i xi2, is not.  So the
    combination (b2, b1, b3) is the mirror image of (b1, b2, b3): swapping the
    variables turns its integral into one over (b1, b2, b3) with f(xi2, xi1).
    When ``mirrored``, the integral returned is that of the combination plus
    its mirror image, with the symmetrised factor f(xi1, xi2) + f(xi2, xi1):
    2 for NNLS, exact in floating point, and i (xi1 + xi2) for NdNLS.

    The xi1 range of each xi is cut where the xi2 range changes form, and the
    n Gauss nodes x1_i of every panel of every xi become the rows of one
    array.  Row i has the inner nodes x2_ij = mid_i + h_i g_j of the same
    n-point rule g_j.  The kernel phase z_ij = 2t(xi - x1_i)(xi - x2_ij)
    = A_i - B_i g_j is affine in g_j, and so is the rho phase
    2t(xi - x1_i)(x1_i + x2_ij) = A2_i + B_i g_j, with the same B_i.  So a
    row's inner sums of the kernel and of i x2_ij = i (mid_i + h_i g_j) are
    series in B_i over the rule's moments (``_moment_sums``), for every
    |B_i| <= ``_MOMENT_MAX_B``, which ``third_derivative_field`` checks
    before any quadrature, and any A_i.  The rounding of a row depends on
    its own phases and the call's largest ones only, never on its place in
    the call.  -Im rho is bounded at the certified end nodes of each
    row (``_min_rho``); the combination itself, ``rho_kernel`` in
    ``tests/reference.py``, is evaluated only by the per-xi test oracle.  The
    weighted rows are summed back to their xi.  Returns (integrals, min of
    -Im rho over the nodes when rho_track, else inf).
    """
    lo1, hi1 = b1
    lo2, hi2 = b2
    lo3, hi3 = b3
    a = np.maximum(lo1, xi - hi3 - hi2)
    b = np.minimum(hi1, xi - lo3 - lo2)
    # the two interior cuts, clipped to [a, b]; a cut outside it leaves a panel
    # of width 0, dropped below with every panel of an xi with b <= a
    c1 = np.minimum(np.maximum(xi - hi3 - lo2, a), b)
    c2 = np.minimum(np.maximum(xi - lo3 - hi2, a), b)
    cuts = np.stack([a, np.minimum(c1, c2), np.maximum(c1, c2), b], axis=1)
    pa, pb = cuts[:, :-1], cuts[:, 1:]
    keep = (pb - pa > 1e-15) & (b > a)[:, None]
    totals = np.zeros(xi.shape, dtype=np.complex128)
    if not keep.any():
        return totals, np.inf
    g, wg = _gl(n)
    pa, pb = pa[keep][:, None], pb[keep][:, None]
    x1 = (0.5 * (pa + pb) + 0.5 * (pb - pa) * g).ravel()
    wx1 = (0.5 * (pb - pa) * wg).ravel()
    xr = xi[np.repeat(np.nonzero(keep)[0], n)]
    in_lo = np.maximum(lo2, xr - x1 - hi3)
    in_hi = np.minimum(hi2, xr - x1 - lo3)
    h = 0.5 * (in_hi - in_lo)
    mid = 0.5 * (in_hi + in_lo)
    d = 2.0 * t * (xr - x1)
    A = d * (xr - mid)
    B = d * h
    s0, s1 = _moment_sums(A, B, n, with_xi2_factor)
    w = wx1 * h
    if with_xi2_factor:
        # i x2_ij = i (mid_i + h_i g_j): a mid_i column and an h_i g_j column;
        # the mirror's i (x1_i + x2_ij) adds x1_i to the mid_i column
        rows = w * (mid + x1 if mirrored else mid) * s0 + w * h * s1
    else:
        rows = (2.0 * w if mirrored else w) * s0
    min_rho = _min_rho(t, A, d * (x1 + mid), B, g) if rho_track else np.inf
    n_rows = keep.sum(axis=1) * n
    has = n_rows > 0
    totals[has] = np.add.reduceat(rows, (np.cumsum(n_rows) - n_rows)[has])
    return (1j * t if with_xi2_factor else t) * totals, min_rho


def third_derivative_field(phi, t, spec, xi, n_nodes, track_rho=True):
    """Third directional derivative of the data-to-solution map, in Fourier space.

    Returns (values, min_neg_im_rho) for the NNLS or NdNLS ``spec``: the
    spectral values at the output frequencies ``xi`` and the worst -Im rho over
    the symmetric-box quadrature nodes (inf when ``track_rho`` is false, or at
    t = 0).  One ``n_nodes``-point Gauss rule serves the outer and inner panels.

    Of the three box combinations, (up, up, dn) is its own mirror image under
    xi1 <-> xi2, and (dn, up, up) and (up, dn, up) are each other's, so two
    passes cover all three: (up, up, dn), which alone tracks rho, and
    (dn, up, up) with its mirror (see ``_combo_integrals``).

    The output frequencies are evaluated in blocks of at most
    ``_QUAD_NODES // (3 n_nodes)``: the combinations run one at a time, and
    each has up to three panels of ``n_nodes`` outer Gauss rows per xi, so
    one combination of a block has at most ``_QUAD_NODES`` outer rows.  The
    bound keeps the moment sums' temporaries at one complex value per row,
    under 128 KiB, and the phase moments' at 22 per row: a whole band at once
    costs peak RSS and time.

    Each row's inner sum is a series over the rule's moments in its phase
    slope B = 2t (xi - xi1) h, h the half-width of its xi2 range, and is
    summed only for |B| <= ``_MOMENT_MAX_B`` = 1.  On the support of a
    combination (b1, b2, b3), xi - xi1 = xi2 + xi3 lies in b2 + b3 and 2h <= |b2|,
    so |B| <= t |b2| max |b2 + b3| at every xi: (dn, up, up)'s t (2k + 1/2)/8.
    A t above 8/(2k + 1/2), about 3.8/k (kappa <= 0.1 never reaches it), raises
    ValueError, like any other bad argument, before any quadrature.
    """
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and nonnegative, got %r" % (t,))
    if spec.kind not in (NNLS, NDNLS):
        raise ValueError("third derivative is available for NNLS and NdNLS")
    if not (_integral(n_nodes) and n_nodes >= 1):
        raise ValueError("n_nodes must be an integer >= 1, got %r" % (n_nodes,))
    n_nodes = int(n_nodes)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if not np.all(np.isfinite(xi)):
        raise ValueError("output frequencies xi must be finite")
    up, dn = phi.upper_box, phi.lower_box
    combos = [(up, up, dn, False), (dn, up, up, True)]
    b_max = max(t * (hi2 - lo2) * max(abs(lo2 + lo3), abs(hi2 + hi3))
                for _, (lo2, hi2), (lo3, hi3), _ in combos)
    if b_max > _MOMENT_MAX_B:
        raise ValueError("t = %r is too large: the inner phase slope could reach |B| = %.3g > %g,"
                         " and these boxes need t <= %.4g"
                         % (t, b_max, _MOMENT_MAX_B, t * _MOMENT_MAX_B / b_max))
    with_factor = spec.kind == NDNLS
    values = np.zeros(xi.shape, dtype=np.complex128)
    min_rho = np.inf
    pref = 6.0 * spec.alpha * phi.amplitude ** 3 / (4.0 * np.pi ** 2)
    block = max(1, _QUAD_NODES // (3 * n_nodes))
    for start in range(0, xi.size, block):
        xb = xi[start:start + block]
        acc = 0.0 + 0.0j
        for b1, b2, b3, mirrored in combos:
            val, mr = _combo_integrals(xb, t, b1, b2, b3, n_nodes, with_factor,
                                       rho_track=(track_rho and not mirrored and t > 0),
                                       mirrored=mirrored)
            acc += val
            min_rho = min(min_rho, mr)
        values[start:start + block] = pref * np.exp(-1j * t * xb ** 2) * acc
    return values, min_rho


_BAND_CUTS = (0.5, 0.625, 0.75, 0.875, 1.0)


def _band_nodes(n_per_segment):
    g, w = _gl(n_per_segment)
    xs, ws = [], []
    for a, b in zip(_BAND_CUTS[:-1], _BAND_CUTS[1:]):
        xs.append(0.5 * (a + b) + 0.5 * (b - a) * g)
        ws.append(0.5 * (b - a) * w)
    return np.concatenate(xs), np.concatenate(ws)


def _band_norm(phi, t, spec, sprime, sigmaprime, n_nodes, track_rho):
    xi, w = _band_nodes(n_nodes)
    weight = np.sqrt(w) * esigma_weights(xi, sprime, sigmaprime)  # refused before any quadrature
    vals, min_rho = third_derivative_field(phi, t, spec, xi, n_nodes, track_rho)
    return weighted_l2(weight, vals), min_rho


_QUAD_TOL = 1e-6  # largest relative change of a band norm when the nodes double


def exp_norm_inflation(spec, s=-1.0, k_list=(8, 16, 32), kappa=0.1, sprime=-1.0,
                       sigmaprime=0.0, n_nodes=16):
    """Growth in k of the weighted band norm of the third derivative at t = kappa/k^2."""
    _require_finite(sprime=sprime, sigmaprime=sigmaprime)
    if not s < 0:
        raise ValueError("s must be negative")
    if spec.alpha == 0:
        raise ValueError("alpha must be nonzero: the third derivative vanishes at alpha = 0")
    if not 0 < kappa <= 0.1:
        raise ValueError("kappa must be in (0, 0.1], got %r" % (kappa,))
    if not (_integral(n_nodes) and n_nodes >= 1):
        raise ValueError("n_nodes must be an integer >= 1, got %r" % (n_nodes,))
    phis = [TwoBumpData(k, s) for k in k_list]
    if len(phis) < 2 or any(b.k <= a.k for a, b in zip(phis, phis[1:])):
        raise ValueError("k_list must hold at least two strictly increasing values, got %r"
                         % (tuple(k_list),))
    for phi in phis:
        try:
            phi.amplitude ** 3  # the scale of third_derivative_field
        except OverflowError:
            raise ValueError("k = %d: the cubed amplitude 2^(-3 s k/2) overflows at s = %r"
                             % (phi.k, s)) from None
    n_nodes = int(n_nodes)
    norms, rho_ok, quad_ok = [], True, True
    for phi in phis:
        t = kappa / phi.k ** 2
        # only the fine pass's rho bound is reported
        coarse, _ = _band_norm(phi, t, spec, sprime, sigmaprime, n_nodes, track_rho=False)
        fine, min_rho = _band_norm(phi, t, spec, sprime, sigmaprime, 2 * n_nodes, track_rho=True)
        quad_ok = quad_ok and abs(fine - coarse) <= _QUAD_TOL * abs(fine)
        rho_ok = rho_ok and min_rho >= t / 2.0
        norms.append(fine)
    log2n = np.log2(norms)
    slope, r2 = _linefit(np.array([phi.k for phi in phis], dtype=float), log2n)
    target = -s / 2.0
    monotone = all(b > a for a, b in zip(norms, norms[1:]))
    passed = quad_ok and rho_ok and monotone and slope >= target * 0.8
    return ExperimentReport(
        claim_id="third-derivative-norm-inflation",
        parameters={"s": s, "k_list": tuple(k_list), "kappa": kappa,
                    "sprime": sprime, "sigmaprime": sigmaprime, "equation": spec.kind,
                    "alpha": spec.alpha},
        measurements={
            "norms": tuple(float(v) for v in norms),
            "slope": float(slope),
            "r_squared": float(r2),
            "target_slope": float(target),
            "quad_converged": bool(quad_ok),
            "rho_bound_ok": bool(rho_ok),
            "monotone": bool(monotone),
        },
        tolerance=0.8 * target,
        passed=bool(passed),
    )
