"""Plain compositions of the old transforms, kept as exact references.

``reference_forward_transform`` and ``reference_inverse_transform`` are the
fftshift transforms with a sign vector built per call.  ``nnlslab.grid``
now transforms through the degree-1 ``ProductPlan``, so these check it
without running it; the two must agree bit for bit.

``reference_mass`` and ``reference_energy`` build the diagnostics from
validated fields: the derivative, the nonlocal conjugate and one reference
inverse transform per factor.  ``nnlslab.equations.mass_energy_coeffs``
transforms every factor of one field at once, and must agree with these
bit for bit.

``reference_product`` embeds every factor in a freshly built fine grid,
transforms each factor separately with the reference transforms and crops
the forward transform of the product; ``reference_nonlinear_term`` builds
every N(u) from it, kind by kind, without reading ``_recipe``, so
``nonlinear_coeffs``, which returns i N(u), must equal 1j times it bit for
bit.  ``reference_picard_map`` and ``reference_picard_solve`` are the
Duhamel/Picard engine node by node, one validated field per node.
``reference_gauge_forward`` and
``reference_gauge_taylor`` build the gauge transform and its truncated
Taylor series from validated fields and ``reference_product``; the series,
which the library does not carry, is criterion 8's independent oracle for
the exponential form.  The planned and batched kernels in ``nnlslab.grid``,
``nnlslab.equations`` (``nonlinear_coeffs``), the Duhamel engine of
``nnlslab.evolve`` and ``nnlslab.gauge`` perform the same floating-point
operations in the same order, so they must agree with these bit for bit.

``reference_lawson`` is the Lawson-RK4 stage written as array expressions,
one row at a time, with its phases built per call: the integrating-factor
RK4 in the original variables, whose right-hand side is i N(u).  It
follows ``_recipe(spec)`` term by term: each coefficient row is copied into
a fresh zero-padded fine array without the sign vector (u_x as c * i xi),
u* and (u*)_x are the conjugated samples of u and u_x reversed with index 0
kept, and each term's retained coefficients are multiplied by one scale,
the recipe's coefficient i coeff times dx_fine^(1-p).
``nnlslab.evolve._LawsonStage``, with
``nnlslab.equations._Nonlinearity`` as its N(u), performs the same
operations in the same operand order in arrays it keeps, so the two agree
bit for bit.
``reference_divided_lawson`` is the same method in the interaction picture,
g(tau, w) = e^{-tau L} N(e^{tau L} w), the stage's former arithmetic: the
same N(u) with each term's scale divided by the stage's phase.  It is an
algebraic identity away from the stage and agrees with it to roundoff.
``reference_conj_row_lawson`` is that interaction-picture arithmetic on
``nonlinear_coeffs``, i N(u) divided by the phase: signed padding and u*
transformed as conj(coeffs) in every right-hand side.  It agrees
with the stage to roundoff only, and is the oracle that the sign-free
padding, the reflection and the folded scales change nothing but rounding.
``reference_step`` is one ``reference_lawson`` step of
one validated field, raising ``FloatingPointError`` when the result is not
finite.  ``reference_solve`` is the Lawson solve of
one field, one ``reference_step`` at a time, recording times and states; a
blown-up solve ends with its state before the step that overflowed.
``nnlslab.evolve.solve_batch`` steps every member of a batch at once, with
the same operations on each row, so each of its trajectories must agree
with this bit for bit.

``reference_rhs`` is the full right-hand side i u_xx + i N(u) as a field, with
i N(u) from ``nnlslab.equations.nonlinear_coeffs``; criterion 3 compares two
of them.

``reference_cumulative_simpson`` is scipy's cumulative Simpson rule on the
real and imaginary parts, the quadrature ``reference_picard_map`` uses.
``nnlslab.evolve.cumulative_simpson`` applies the same coefficients in the
same order to the complex array in one pass, so the two agree bit for bit.

``reference_mirrored_third_derivative_field`` is the norm-inflation
quadrature panel by panel, one complex exponential per kernel value and
``rho_kernel``, the oscillatory kernel combination of the norm-inflation
claim, at every node.  Like ``nnlslab.experiments`` it integrates two box
combinations: (up, up, dn), and (dn, up, up) together with its xi1 <-> xi2
mirror image (up, dn, up) through the symmetrised factor.
``nnlslab.experiments`` factors the Gauss-node phase instead, which reorders
the arithmetic, so the two agree to roundoff, not bit for bit.
``reference_third_derivative_field`` is the same quadrature with each of the
three combinations integrated on its own, the rule before the symmetry was
used.  The two rules integrate the mirror pair over different panels, so
they differ by quadrature error, which shows at n <= 2 only, and by how the
box edges round: xi - xi1 - hi3 rounds at the scale of the boxes, about 2k,
unless xi is a short dyadic fraction such as those of the default band.

``reference_band_norm`` is the weighted band norm of the norm-inflation
claim as it was first written: the squared weight (1 + xi^2)^sigma'
4^{s'|xi|} under the square root of each quadrature weight, and the squares
always summed after scaling by the largest weighted value.
``nnlslab.experiments`` weights by ``nnlslab.spaces.esigma_weights`` and sums
through ``nnlslab.spaces.weighted_l2``, so the two agree to roundoff.

``reference_dilate`` resamples a smooth spectrum at xi/lam by the dense
trapezoid transform, one (256, n) block of complex exponentials at a time.
``nnlslab.spaces.dilate`` computes the same sums as a chirp-z transform, so
the two agree to roundoff, not bit for bit.
"""

from fractions import Fraction

import numpy as np
from scipy.integrate import cumulative_simpson

from nnlslab.equations import (
    DU,
    NDNLS,
    NNLS,
    _recipe,
    nonlinear_coeffs,
    quintic_coefficient,
)
from nnlslab.evolve import PicardReport, Trajectory, _free_phase
from nnlslab.experiments import _gl, _phase_ratio
from nnlslab.grid import (
    FrequencyGrid,
    SpectralField,
    antiderivative_symmetric,
    inverse_transform,
    l2_distance,
)
from nnlslab.spaces import _SPARSE_MODE_LIMIT, _support_indices


def _signs(n):
    # (-1)^m for m = -n/2 .. n/2-1, i.e. exp(-i xi_m x_0) with x_0 = -L/2
    s = np.ones(n)
    s[1::2] = -1.0
    if (n // 2) % 2 == 1:
        s = -s
    return s


def reference_forward_transform(samples, grid):
    s = np.asarray(samples, dtype=np.complex128)
    c = grid.dx * _signs(grid.n_modes) * np.fft.fftshift(np.fft.fft(s))
    return SpectralField(grid, c)


def reference_inverse_transform(fld):
    grid = fld.grid
    f = np.fft.ifftshift(fld.coeffs * _signs(grid.n_modes)) / grid.dx
    return np.fft.ifft(f)


def _embed(coeffs, n, n_fine):
    out = np.zeros(n_fine, dtype=np.complex128)
    off = n_fine // 2 - n // 2
    out[off:off + n] = coeffs
    return out


def _derivative(fld):
    m = 1j * fld.grid.frequencies
    m[0] = 0.0
    return SpectralField(fld.grid, fld.coeffs * m)


def _conjugate(fld):
    # the nonlocal conjugate u*(x) = conj(u(-x)) is conjugation in Fourier space
    return SpectralField(fld.grid, np.conj(fld.coeffs))


def reference_mass(fld):
    u = reference_inverse_transform(fld)
    us = reference_inverse_transform(_conjugate(fld))
    return complex(np.sum(u * us) * fld.grid.dx)


def reference_energy(fld, alpha):
    du = _derivative(fld)
    du_s = reference_inverse_transform(du)
    dus_s = reference_inverse_transform(_conjugate(du))
    u = reference_inverse_transform(fld)
    us = reference_inverse_transform(_conjugate(fld))
    integrand = du_s * dus_s + (alpha / 2.0) * (u * us) ** 2
    return complex(np.sum(integrand) * fld.grid.dx)


def reference_product(fields):
    grid = fields[0].grid
    n = grid.n_modes
    n_fine = int(np.ceil((len(fields) + 1) * n / 2))
    if n_fine % 2:
        n_fine += 1
    fine = FrequencyGrid(n_fine, grid.length)
    prod = None
    for f in fields:
        s = reference_inverse_transform(SpectralField(fine, _embed(f.coeffs, n, n_fine)))
        prod = s if prod is None else prod * s
    c_fine = reference_forward_transform(prod, fine).coeffs
    off = n_fine // 2 - n // 2
    return SpectralField(grid, c_fine[off:off + n])


def reference_nonlinear_term(fld, spec):
    a, b = spec.alpha, spec.beta
    us = _conjugate(fld)
    if spec.kind == "NNLS":
        if a == 0:
            return SpectralField(fld.grid, np.zeros(fld.grid.n_modes))
        return SpectralField(fld.grid, a * reference_product([fld, fld, us]).coeffs)
    if spec.kind == "NdNLS":
        if a == 0:
            return SpectralField(fld.grid, np.zeros(fld.grid.n_modes))
        term = reference_product([fld, us, _derivative(fld)])
        return SpectralField(fld.grid, a * term.coeffs)
    out = np.zeros(fld.grid.n_modes, dtype=np.complex128)
    if spec.kind == "gNdNLS":
        if a != 0:
            out += a * reference_product([fld, us, _derivative(fld)]).coeffs
        if b != 0:
            out += b * reference_product([fld, fld, _derivative(us)]).coeffs
        return SpectralField(fld.grid, out)
    if spec.kind == "GaugedNdNLS":
        cubic_coeff, quintic = -a, -(a ** 2) / 2.0
    else:
        cubic_coeff = -(a - b)
        quintic = -quintic_coefficient(a, b, spec.gauged_coefficient_mode)
    if cubic_coeff != 0:
        out += cubic_coeff * reference_product([fld, fld, _derivative(us)]).coeffs
    if quintic != 0:
        out += quintic * reference_product([fld, fld, fld, us, us]).coeffs
    return SpectralField(fld.grid, out)


def _stage_rhs(c, grid, spec, phase):
    # i N(c) as the Lawson stage builds it, divided by ``phase`` unless None
    n = grid.n_modes
    h = n // 2
    d = 1j * grid.frequencies
    d[0] = 0.0
    out = None
    for degree, rows, reflected, terms, coefficients in _recipe(spec):
        n_fine = int(np.ceil((degree + 1) * n / 2))
        n_fine += n_fine % 2
        dx_fine = grid.length / n_fine
        samples = []
        for f in rows:
            row = c * d if f == DU else c
            fine = np.zeros(n_fine, dtype=np.complex128)
            fine[:h] = row[h:]
            fine[-h:] = row[:h]
            samples.append(np.fft.ifft(fine))  # dx_fine * u(j dx_fine)
        for i in reflected:
            samples.append(np.conj(np.roll(samples[i][::-1], 1)))  # j -> -j mod n_fine
        for term, coeff in zip(terms, coefficients):
            prod = samples[term[0]]
            for i in term[1:]:
                prod = prod * samples[i]
            spectrum = np.fft.fft(prod)
            scale = coeff * dx_fine ** (1 - degree)
            if phase is not None:
                scale = scale / phase
            term_coeffs = np.concatenate((spectrum[-h:], spectrum[:h])) * scale
            out = term_coeffs if out is None else out + term_coeffs
    return np.zeros(n, dtype=np.complex128) if out is None else out


def _rk4(w, dt, grid, nl):
    # the Lawson-RK4 stage in the original variables, nl(coeffs) = i N(coeffs)
    half = _free_phase(grid, dt / 2.0)
    full = half * half
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = nl(w)
        # bound to a name: numpy would multiply a temporary of 256 KiB or more
        # in place, as it * half, and that is not bitwise half * it
        mid = w + (dt / 2.0) * k1
        k2 = nl(half * mid)
        k3 = nl(half * w + (dt / 2.0) * k2)
        k4 = nl(full * w + dt * half * k3)
        first = w + (dt / 6.0) * k1
        inner = k2 + k3
        return full * first + (dt / 3.0) * half * inner + (dt / 6.0) * k4


def _divided_rk4(w, dt, grid, nl):
    # the same method in the interaction picture, g(tau, w) = e^{-tau L} N(e^{tau L} w),
    # with nl(coeffs, phase) = i N(coeffs) / phase
    half = _free_phase(grid, dt / 2.0)
    full = half * half
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = nl(w, None)
        mid = w + (dt / 2.0) * k1
        a = half * mid
        k2 = nl(a, half)
        b = half * w + (dt / 2.0) * half * k2
        k3 = nl(b, half)
        c = full * w + dt * full * k3
        k4 = nl(c, full)
        w_new = w + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return full * w_new


def reference_lawson(w, dt, grid, spec):
    if w.ndim == 2:
        return np.stack([reference_lawson(row, dt, grid, spec) for row in w])
    return _rk4(w, dt, grid, lambda c: _stage_rhs(c, grid, spec, None))


def reference_divided_lawson(w, dt, grid, spec):
    if w.ndim == 2:
        return np.stack([reference_divided_lawson(row, dt, grid, spec) for row in w])
    return _divided_rk4(w, dt, grid, lambda c, phase: _stage_rhs(c, grid, spec, phase))


def reference_conj_row_lawson(w, dt, grid, spec):
    def nl(c, phase):
        out = nonlinear_coeffs(c, grid, spec)
        return out if phase is None else out / phase

    return _divided_rk4(w, dt, grid, nl)


def reference_step(fld, dt, spec):
    out = reference_lawson(fld.coeffs, dt, fld.grid, spec)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite coefficients after step")
    return SpectralField(fld.grid, out)


def reference_solve(u0, T, dt, spec, sample_every=1):
    traj = Trajectory([0.0], [u0])
    if T == 0:
        return traj
    n_full = int(round(T / dt))
    n_steps = n_full
    if abs(T / dt - n_full) > 1e-9 * (T / dt):
        n_full = int(T // dt)
        n_steps = n_full + 1
    u, t = u0, 0.0
    for i in range(1, n_steps + 1):
        h = dt if i <= n_full else T - n_full * dt
        t_next = T if i == n_steps else i * dt
        try:
            u = reference_step(u, h, spec)
        except FloatingPointError:
            traj.blowup_time = t + h
            if traj.times[-1] != t:
                traj.times.append(t)
                traj.states.append(u)
            return traj
        t = t_next
        if i % sample_every == 0 or i == n_steps:
            traj.times.append(t)
            traj.states.append(u)
    return traj


def reference_rhs(fld, spec):
    """du/dt = i u_xx + i N(u) as a validated field."""
    xi = fld.grid.frequencies
    lin = -1j * xi ** 2 * fld.coeffs
    return SpectralField(fld.grid, lin + nonlinear_coeffs(fld.coeffs, fld.grid, spec))


def _reference_primitive_samples(fld):
    density = reference_product([fld, _conjugate(fld)])
    return reference_inverse_transform(antiderivative_symmetric(density))


def reference_gauge_forward(fld, delta):
    if delta == 0:
        return SpectralField(fld.grid, fld.coeffs)
    prim = _reference_primitive_samples(fld)
    v = reference_inverse_transform(fld) * np.exp(-delta * prim)
    return reference_forward_transform(v, fld.grid)


def reference_gauge_taylor(fld, delta, order):
    acc = np.array(fld.coeffs, dtype=np.complex128)
    if order == 0:
        return SpectralField(fld.grid, acc)
    prim = reference_forward_transform(_reference_primitive_samples(fld), fld.grid)
    power = None
    coeff = 1.0
    for k in range(1, order + 1):
        coeff *= -delta / k
        power = prim if power is None else reference_product([power, prim])
        acc = acc + coeff * reference_product([fld, power]).coeffs
    return SpectralField(fld.grid, acc)


def reference_cumulative_simpson(y, times):
    """scipy's cumulative Simpson integral of complex ``y`` along axis 0, from 0."""
    return cumulative_simpson(
        y.real, x=times, axis=0, initial=0.0
    ) + 1j * cumulative_simpson(y.imag, x=times, axis=0, initial=0.0)


def reference_picard_map(states, u0, T, spec):
    n = len(states)
    if n < 9:
        raise ValueError("reference_picard_map needs at least 9 time nodes")
    if n % 2 == 0:
        raise ValueError("reference_picard_map needs an odd node count for Simpson")
    times = np.linspace(0.0, T, n)
    grid = u0.grid
    xi = grid.frequencies
    integrand = np.empty((n, grid.n_modes), dtype=np.complex128)
    for i, (t, u) in enumerate(zip(times, states)):
        nl = nonlinear_coeffs(u.coeffs, grid, spec)
        integrand[i] = np.exp(1j * t * xi ** 2) * nl
    cum = reference_cumulative_simpson(integrand, times)
    out = []
    for i, t in enumerate(times):
        phase = np.exp(-1j * t * xi ** 2)
        out.append(SpectralField(grid, phase * (u0.coeffs + cum[i])))
    return out


def reference_picard_solve(u0, T, spec, n_nodes=33, n_iter=20, tol=1e-10):
    times = np.linspace(0.0, T, n_nodes)
    xi = u0.grid.frequencies
    # the free flow, coefficients first: a complex product is not bitwise
    # commutative, and picard_solve multiplies in this order
    current = [SpectralField(u0.grid, u0.coeffs * np.exp(-1j * t * xi ** 2)) for t in times]
    report = PicardReport()
    growth_streak = 0
    for _ in range(n_iter):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                new = reference_picard_map(current, u0, T, spec)
        except (ValueError, FloatingPointError):
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


def _kernel(xi, xi1, xi2, t):
    # t (e^{iz}-1)/z with z = 2t(xi-xi1)(xi-xi2); limit value i*t on the diagonal
    return t * _phase_ratio(2.0 * t * (xi - xi1) * (xi - xi2))


def rho_kernel(t, xi, xi1, xi2):
    """Oscillatory kernel combination whose -Im part is bounded below by t/2."""
    first = _kernel(xi, xi1, xi2, t)
    second = 2.0 * t * _phase_ratio(2.0 * t * (xi - xi1) * (xi1 + xi2))
    return first - second


def _reference_combo_integral(xi, t, b1, b2, b3, n1, n2, with_xi2_factor, rho_track, mirrored):
    # when mirrored, the combination plus its xi1 <-> xi2 mirror image (b2, b1, b3):
    # the factor i xi2 becomes i (xi1 + xi2), and 1 becomes 2
    lo1, hi1 = b1
    lo2, hi2 = b2
    lo3, hi3 = b3
    a = max(lo1, xi - hi3 - hi2)
    b = min(hi1, xi - lo3 - lo2)
    min_rho = np.inf
    if b <= a:
        return 0.0 + 0.0j, min_rho
    cuts = sorted({a, b, xi - hi3 - lo2, xi - lo3 - hi2})
    cuts = [a] + [c for c in cuts if a < c < b] + [b]
    g1, w1 = _gl(n1)
    g2, w2 = _gl(n2)
    total = 0.0 + 0.0j
    for pa, pb in zip(cuts[:-1], cuts[1:]):
        if pb - pa <= 1e-15:
            continue
        x1 = 0.5 * (pa + pb) + 0.5 * (pb - pa) * g1
        wx1 = 0.5 * (pb - pa) * w1
        in_lo = np.maximum(lo2, xi - x1 - hi3)
        in_hi = np.minimum(hi2, xi - x1 - lo3)
        h = 0.5 * (in_hi - in_lo)
        mid = 0.5 * (in_hi + in_lo)
        x2 = mid[:, None] + h[:, None] * g2[None, :]
        w = (wx1 * h)[:, None] * w2[None, :]
        vals = _kernel(xi, x1[:, None], x2, t)
        if with_xi2_factor:
            vals = vals * (1j * (x1[:, None] + x2 if mirrored else x2))
        elif mirrored:
            vals = 2.0 * vals
        total += complex(np.sum(w * vals))
        if rho_track:
            rho = rho_kernel(t, xi, x1[:, None], x2)
            min_rho = min(min_rho, float(np.min(-rho.imag)))
    return total, min_rho


def reference_third_derivative_field(phi, t, equation=NNLS, xi=None, n_outer=24, n_inner=24,
                                     alpha=1.0):
    up, dn = phi.upper_box, phi.lower_box
    combos = [(up, up, dn, False), (dn, up, up, False), (up, dn, up, False)]
    return _reference_field(phi, t, equation, xi, n_outer, n_inner, alpha, combos)


def reference_mirrored_third_derivative_field(phi, t, equation=NNLS, xi=None, n_outer=24,
                                              n_inner=24, alpha=1.0):
    up, dn = phi.upper_box, phi.lower_box
    combos = [(up, up, dn, False), (dn, up, up, True)]
    return _reference_field(phi, t, equation, xi, n_outer, n_inner, alpha, combos)


def _reference_field(phi, t, equation, xi, n_outer, n_inner, alpha, combos):
    if xi is None:
        xi = np.linspace(0.5, 1.0, 65)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    with_factor = equation == NDNLS
    values = np.zeros(xi.shape, dtype=np.complex128)
    min_rho = np.inf
    pref = 6.0 * alpha * phi.amplitude ** 3 / (4.0 * np.pi ** 2)
    for i, x in enumerate(xi):
        acc = 0.0 + 0.0j
        for j, (b1, b2, b3, mirrored) in enumerate(combos):
            val, mr = _reference_combo_integral(x, t, b1, b2, b3, n_outer, n_inner,
                                                with_factor, (j == 0 and t > 0), mirrored)
            acc += val
            min_rho = min(min_rho, mr)
        values[i] = pref * np.exp(-1j * t * x ** 2) * acc
    return xi, values, min_rho


def reference_band_norm(xi, w, vals, sprime, sigmaprime):
    weight = (1.0 + xi ** 2) ** sigmaprime * 4.0 ** (sprime * np.abs(xi))
    weighted = np.sqrt(w * weight) * np.abs(vals)
    top = weighted.max()
    if top == 0:
        return 0.0
    return float(top * np.sqrt(np.sum((weighted / top) ** 2)))


def reference_dilate(fld, lam):
    if not (lam > 0):
        raise ValueError("dilation factor must be positive")
    grid = fld.grid
    if lam == 1.0:
        return SpectralField(grid, fld.coeffs)
    n = grid.n_modes
    sup = _support_indices(fld)
    if sup.size:
        top = np.max(np.abs(grid.frequencies[sup])) * lam
        if top >= grid.xi_max:
            raise ValueError(
                "dilated spectrum exceeds the grid band (max |xi| %.3g >= %.3g)"
                % (top, grid.xi_max)
            )
    frac = Fraction(lam).limit_denominator(1 << 20)
    exact = abs(float(frac) - lam) < 1e-14
    m = np.arange(-n // 2, n // 2)
    out = np.zeros(n, dtype=np.complex128)
    if exact and 0 < sup.size <= _SPARSE_MODE_LIMIT:
        src_m = m[sup]  # source mode indices
        tgt = src_m * frac.numerator
        on_lattice = tgt % frac.denominator == 0
        if np.all(on_lattice):
            tgt_idx = tgt // frac.denominator + n // 2
            out[tgt_idx] = fld.coeffs[sup] / lam
            return SpectralField(grid, out)
    # band-limited interpolation from physical samples, chunked over targets
    s = inverse_transform(fld)
    x = grid.points
    zeta = grid.frequencies / lam
    # the source is band-limited, so targets beyond the band are exactly zero;
    # evaluating them anyway would alias on the sample lattice
    live = np.nonzero(np.abs(zeta) <= grid.xi_max)[0]
    for lo in range(0, live.size, 256):
        idx = live[lo:lo + 256]
        phase = np.exp(-1j * np.outer(zeta[idx], x))
        out[idx] = grid.dx * phase @ s
    return SpectralField(grid, out / lam)
