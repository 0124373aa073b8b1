"""Two independent time-evolution engines and trajectory recording.

The workhorse stepper is a classical integrating-factor (Lawson) RK4 on the
Fourier coefficients, run by ``stream`` on raw coefficient arrays: it
steps a family of fields on one grid as the rows of one array, each row
rounds exactly as its own solve, and a row that blows up is dropped while the
others go on.  ``stream`` yields each recorded state as it is produced and
keeps none of them, so a caller that writes its rows as they come holds one
state per field, not one per sample.  ``solve_batch`` collects the events
into trajectories, and ``solve`` is the batch of one.  A trajectory holds the
recorded times and states only; the code that reports mass, energy, leakage
or norms computes them from the states.  Each step size and batch
shape gets one ``_LawsonStage``, which holds the phases and buffers of its
steps and goes with the solve, and applies the integrating factor itself.
Its i N(u) is ``equations._Nonlinearity``: sign-free padding,
the nonlocal conjugate u* read from the samples of u, one scale per term.

A completely separate engine iterates the Duhamel integral formulation with
composite-Simpson quadrature in time; the two discretization families share
no code beyond the recipe of i N(u) in ``equations``, so their agreement is a
genuine cross-check.  Its right-hand sides are ``nonlinear_coeffs``, which
transforms u* as the signed row of conj(coeffs), bit for bit as the test
references do, so the two engines get u* in different ways, equal to
roundoff.  The Duhamel map works in the arrays that ``nonlinear_coeffs``
and ``cumulative_simpson`` return.

The Duhamel quadrature is scipy's cumulative composite Simpson rule for
unequal intervals, rebuilt here: its coefficients depend only on the time
nodes, so each solve computes them once and every iteration applies them in
one pass over the complex integrand, with scipy's order of floating-point
operations.  The running sum over the time nodes is accumulated row by row:
numpy's axis-0 accumulate on C-ordered data runs one strided loop per column,
several times slower than a contiguous add per row, and it adds each column in
the same sequence, so the floats are the same.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .equations import _Nonlinearity, nonlinear_coeffs
from .grid import GridMismatchError, SpectralField

CFL_LIMIT = 50.0  # guard on dt * xi_max^2 for the nonlinear substep


def _count(x, least):
    """Whether ``x`` is an integer >= ``least`` and not a bool (``True`` is an Integral)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, (bool, np.bool_)) and x >= least


def _free_phase(grid, t):
    """The free-flow symbol e^{-i t xi^2}; an array ``t`` of shape (k, 1) gives k rows."""
    return np.exp(-1j * t * grid.frequencies ** 2)


class _LawsonStage:
    """Lawson-RK4 steps of raw rows of one ``shape``, for one grid, spec and step ``dt``.

    ``stream`` builds one per step size and batch shape, and its
    constants and buffers go with it.  A call steps ``w``, ``(n_modes,)`` or
    ``(batch, n_modes)``, into a fresh array with every other array kept in
    the stage; each row rounds as it would alone, and a row that overflows
    comes back non-finite.  ``tests/reference.py::reference_lawson`` is the
    same arithmetic written as expressions.

    It is Lawson-RK4 in the original variables (Lawson 1967; Kassam and
    Trefethen 2005), with E = e^{dt L}, E2 = e^{(dt/2) L} and k = ``rhs``:

        k1 = k(w), k2 = k(E2 (w + dt/2 k1)), k3 = k(E2 w + dt/2 k2), k4 = k(E w + dt E2 k3)
        w' = E (w + dt/6 k1) + (dt/3) E2 (k2 + k3) + dt/6 k4

    The phases are built at ``shape``, one row per batch row, since numpy buffers a
    row broadcast over a batch.
    """

    def __init__(self, grid, spec, dt, shape):
        self.dt, self.shape = dt, shape
        half = _free_phase(grid, np.full(shape[:-1] + (1,), dt / 2.0))
        full = half * half
        self._phases = (half, full, dt * half, (dt / 3.0) * half)
        self._buffers = tuple(np.empty(shape, dtype=np.complex128) for _ in range(5))
        self.rhs = _Nonlinearity(grid, spec, shape)

    def __call__(self, w):
        half, full, dt_half, third_half = self._phases
        k1, k2, k3, arg, k4 = self._buffers
        dt = self.dt
        with np.errstate(over="ignore", invalid="ignore"):
            self.rhs(w, k1)
            np.multiply(dt / 2.0, k1, out=arg)
            np.add(w, arg, out=arg)
            np.multiply(half, arg, out=arg)  # E2 (w + dt/2 k1)
            self.rhs(arg, k2)
            np.multiply(half, w, out=arg)
            np.multiply(dt / 2.0, k2, out=k4)
            np.add(arg, k4, out=arg)  # E2 w + dt/2 k2
            self.rhs(arg, k3)
            np.multiply(full, w, out=arg)
            np.multiply(dt_half, k3, out=k4)
            np.add(arg, k4, out=arg)  # E w + dt E2 k3
            self.rhs(arg, k4)
            np.multiply(dt / 6.0, k1, out=arg)
            np.add(w, arg, out=arg)
            np.multiply(full, arg, out=arg)  # E (w + dt/6 k1)
            np.add(k2, k3, out=k2)
            np.multiply(third_half, k2, out=k2)  # (dt/3) E2 (k2 + k3)
            np.add(arg, k2, out=arg)
            np.multiply(dt / 6.0, k4, out=k4)
            return np.add(arg, k4)


@dataclass
class Trajectory:
    """Recorded times and states; a blown-up one has its ``blowup_time`` and last finite state.

    ``blowup_time`` is the end of the step on which the state went non-finite, not a
    singular time: it does not converge in n or dt, and past a singularity it moves
    with roundoff.
    """

    times: list
    states: list
    blowup_time: float | None = None

    @property
    def blown_up(self):
        return self.blowup_time is not None


def solve(u0, T, dt, spec, sample_every=1):
    """Step u0 to time T, recording sampled states: ``solve_batch([u0], ...)[0]``."""
    return solve_batch([u0], T, dt, spec, sample_every)[0]


def solve_batch(fields, T, dt, spec, sample_every=1):
    """Step fields that share a grid from 0 to T together; one Trajectory per field.

    The trajectories collect the events of ``stream``, which says what is
    recorded: each state becomes a ``SpectralField`` and a blow-up event the
    trajectory's ``blowup_time``.
    """
    fields = list(fields)
    events = stream(fields, T, dt, spec, sample_every)
    grid = fields[0].grid
    # the first events are the fields at t = 0, which are recorded as they are
    trajs = [Trajectory([0.0], [f]) for f in fields]
    for i, t, coeffs in itertools.islice(events, len(fields), None):
        if coeffs is None:
            trajs[i].blowup_time = t
        else:
            trajs[i].times.append(t)
            trajs[i].states.append(SpectralField(grid, coeffs))
    return trajs


def stream(fields, T, dt, spec, sample_every=1):
    """Step fields that share a grid from 0 to T together, yielding each recorded state.

    The arguments are checked when ``stream`` is called, so a refused solve
    raises before the generator it returns yields anything.  The fields are
    stacked into a ``(k, n_modes)`` array and stepped by the Lawson-RK4
    stage function (local error O(dt^5)), so each row rounds exactly as its
    own solve.  Time 0, every ``sample_every``-th step and T itself are
    recorded.  When T is not a whole number of steps dt (to 1e-9 relative),
    a final shortened step ends the solve at T.

    The generator yields ``(index, t, coeffs)`` per recorded state of field
    ``index``, with ``coeffs`` a read-only row of the batch; the stepper
    keeps no state it has yielded.  A row that goes non-finite on the step
    from t to t + h yields its state at t unless that time is already
    recorded, then ``(index, t + h, None)``, and is dropped; the other rows
    go on.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be finite and positive, got %r" % (dt,))
    if not (math.isfinite(T) and T >= 0):
        raise ValueError("T must be finite and nonnegative, got %r" % (T,))
    if not _count(sample_every, 1):
        raise ValueError("sample_every must be an integer >= 1, got %r" % (sample_every,))
    fields = list(fields)
    if not fields:
        raise ValueError("a solve needs at least one field")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise GridMismatchError("fields live on different grids")
    if T > 0 and dt * grid.xi_max ** 2 > CFL_LIMIT:
        raise ValueError("dt * xi_max^2 = %.3g exceeds the guard %.0f"
                         % (dt * grid.xi_max ** 2, CFL_LIMIT))
    n_full = int(round(T / dt))
    n_steps = n_full
    if abs(T / dt - n_full) > 1e-9 * (T / dt):
        n_full = int(T // dt)
        n_steps = n_full + 1

    def steps():
        w = np.stack([f.coeffs for f in fields])
        w.flags.writeable = False
        live = list(range(len(fields)))  # the field index of each row of w
        yield from ((index, 0.0, row) for index, row in zip(live, w))
        t = 0.0
        recorded = 0.0  # the time of the last recorded states of the live rows
        stage = None
        for i in range(1, n_steps + 1):
            h = dt if i <= n_full else T - n_full * dt
            t_next = T if i == n_steps else i * dt  # n_full * dt may round off T
            if stage is None or (stage.dt, stage.shape) != (h, w.shape):
                stage = _LawsonStage(grid, spec, h, w.shape)
            stepped = stage(w)
            finite = np.isfinite(stepped).all(axis=1)
            if not finite.all():
                for index, row, ok in zip(live, w, finite):
                    if not ok:
                        if recorded != t:  # its last finite state
                            yield index, t, row
                        yield index, t + h, None
                live = [index for index, ok in zip(live, finite) if ok]
                if not live:
                    return
                stepped = stepped[finite]
            w, t = stepped, t_next
            w.flags.writeable = False
            if i % sample_every == 0 or i == n_steps:
                recorded = t
                yield from ((index, t, row) for index, row in zip(live, w))

    return steps()


@dataclass
class PicardReport:
    """Successive-iterate distances and the derived contraction diagnostics."""

    iterates_distances: list = field(default_factory=list)
    contraction_ratios: list = field(default_factory=list)
    converged: bool = False


def _simpson_coefficients(x21, x32):
    """scipy's ``_cumulative_simpson_unequal_intervals`` weights for spacings ``x21``, ``x32``.

    Row i integrates over the interval of length x21[i] next to the one of
    length x32[i], from the samples at their three ends (Cartwright,
    J. Math. Sci. Math. Educ. 12(2), eqn (8)).
    """
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    return x21 / 6, 3 - x21_x31, 3 + x21x21_x31x32 + x21_x31, -x21x21_x31x32


def _simpson_weights(times):
    """The weights ``cumulative_simpson`` needs on the odd-length node array ``times``.

    scipy integrates each even sub-interval [x_{2j}, x_{2j+1}] with the
    coefficients of (x21, x32) = (dx[2j], dx[2j+1]) and each odd one
    [x_{2j+1}, x_{2j+2}] with those of (dx[2j+1], dx[2j]); only those rows
    are kept, as (k, 1) columns.
    """
    n = len(times)
    if n < 3 or n % 2 == 0:
        raise ValueError("cumulative Simpson needs an odd node count >= 3, got %d" % n)
    dx = np.diff(times)
    forward = [w[::2, None] for w in _simpson_coefficients(dx[:-1], dx[1:])]
    backward = [w[::2, None] for w in _simpson_coefficients(dx[1:], dx[:-1])]
    return forward, backward


def cumulative_simpson(y, weights):
    """Cumulative Simpson integral of a 2-D complex ``y`` along axis 0, from 0.

    ``weights`` is ``_simpson_weights(times)``.  The result has the same
    floats as ``scipy.integrate.cumulative_simpson(part, x=times, axis=0,
    initial=0.0)`` on each of the real and imaginary parts: the same
    operations in the same order, in one real pass over the interleaved parts.
    The sum is accumulated row by row, each row one contiguous add: numpy's
    axis-0 ``cumsum`` on C-ordered data runs a strided loop per column, which
    adds in the same order but takes several times as long.
    """
    (a1, c1, c2, c3), (b1, d1, d2, d3) = weights
    parts = np.ascontiguousarray(y, dtype=np.complex128).view(np.float64)
    f0, f1, f2 = parts[0:-2:2], parts[1:-1:2], parts[2::2]
    out = np.empty(parts.shape)
    out[0] = 0.0
    out[1::2] = a1 * (c1 * f0 + c2 * f1 + c3 * f2)
    out[2::2] = b1 * (d1 * f2 + d2 * f1 + d3 * f0)
    for i in range(1, len(out)):
        np.add(out[i - 1], out[i], out=out[i])
    return out.view(np.complex128)


def _duhamel_nodes(T, n_nodes, grid):
    """Checked ``(weights, plus, minus)`` of the Duhamel map on ``n_nodes`` nodes of [0, T].

    ``weights`` is ``_simpson_weights(times)`` and ``plus``, ``minus`` hold
    e^{+i t xi^2} and e^{-i t xi^2}, one row per uniform time node.
    """
    if not _count(n_nodes, 9):
        raise ValueError("the Duhamel map needs at least 9 time nodes, got %r" % (n_nodes,))
    if n_nodes % 2 == 0:
        raise ValueError("the Duhamel map needs an odd node count for Simpson, got %r"
                         % (n_nodes,))
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T must be finite and positive, got %r" % (T,))
    times = np.linspace(0.0, T, n_nodes)
    minus = _free_phase(grid, times[:, None])
    return _simpson_weights(times), np.conj(minus), minus


def _duhamel(coeffs, c0, nodes, grid, spec):
    """The Duhamel map on the raw ``(n_nodes, n_modes)`` iterate ``coeffs``.

    ``nodes`` is ``_duhamel_nodes(T, n_nodes, grid)``.  Each row rounds
    exactly as the same node evaluated on its own.
    """
    weights, plus, minus = nodes
    nl = nonlinear_coeffs(coeffs, grid, spec)
    np.multiply(plus, nl, out=nl)
    # one cumulative_simpson call on the complex integrand, with the weights
    # computed once per solve
    cum = cumulative_simpson(nl, weights)
    np.add(c0, cum, out=cum)
    return np.multiply(minus, cum, out=cum)


def picard_solve(u0, T, spec, n_nodes=33, n_iter=20, tol=1e-10):
    """Iterate the Duhamel map from the free solution.

    Divergence ends the iteration without raising: a non-finite iterate is
    dropped, and three growing distances in a row stop the loop.  Invalid
    arguments raise ``ValueError``.
    """
    if not _count(n_iter, 1):
        raise ValueError("n_iter must be an integer >= 1, got %r" % (n_iter,))
    if not tol >= 0:  # a nan tol would never be met
        raise ValueError("tol must be >= 0, got %r" % (tol,))
    grid = u0.grid
    nodes = _duhamel_nodes(T, n_nodes, grid)
    _, _, minus = nodes
    c0 = u0.coeffs
    # the free flow, c0 first, as in the tests' node-by-node reference: a
    # complex product is not bitwise commutative
    current = c0 * minus
    report = PicardReport()
    growth_streak = 0
    for _ in range(n_iter):
        with np.errstate(over="ignore", invalid="ignore"):
            new = _duhamel(current, c0, nodes, grid, spec)
        if not np.all(np.isfinite(new)):
            break  # the iterate left the representable range: divergence
        diff = new - current
        rows = np.sqrt(np.sum(np.abs(diff) ** 2, axis=-1) / grid.length)
        dist = float(np.max(rows))  # the largest l2_distance over the nodes
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
    return [SpectralField(grid, c) for c in current], report
