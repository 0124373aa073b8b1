"""Right-hand sides of the five evolution equations and their conserved functionals.

All equations are stored in evolution form

    u_t = i u_xx + i N(u),

with the nonlocal conjugate u*(x) = conj(u(-x)) entering every nonlinearity.
Products are dealiased by zero padding and derivatives are spectral.  The
terms of N(u) are listed once, in ``_terms``, and ``_recipe`` turns them
into transformed rows, mirrors, products and coefficients i coeff for the
two evaluators of i N(u) on raw coefficients, one field or a batch of rows,
which differ in u* and padding only: ``_Nonlinearity``, the Lawson stage's,
pads without the sign vector and reads u* from the samples of u;
``nonlinear_coeffs``, the Duhamel map's, transforms u* as the signed row of
conj(coeffs).  ``mass_energy_coeffs`` gives the mass and energy of one field.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .grid import LAST_AXIS, derivative_symbol, product_plan, pypocketfft

NNLS = "NNLS"
NDNLS = "NdNLS"
GNDNLS = "gNdNLS"
GAUGED_NDNLS = "GaugedNdNLS"
GAUGED_GNDNLS = "GaugedGNdNLS"

KINDS = (NNLS, NDNLS, GNDNLS, GAUGED_NDNLS, GAUGED_GNDNLS)
COEFFICIENT_MODES = ("printed", "rederived")


@dataclass(frozen=True)
class EquationSpec:
    """Which PDE right-hand side to evaluate, with its coefficients."""

    kind: str
    alpha: float = 1.0
    beta: float = 0.0
    gauged_coefficient_mode: str = "rederived"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown equation kind %r; expected one of %s" % (self.kind, (KINDS,)))
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
                raise ValueError("%s must be a real number, got %r" % (name, value))
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.gauged_coefficient_mode not in COEFFICIENT_MODES:
            raise ValueError(
                "gauged_coefficient_mode must be 'printed' or 'rederived', got %r"
                % (self.gauged_coefficient_mode,)
            )


def quintic_coefficient(alpha, beta, mode):
    """Coefficient of v^3 (v*)^2 in the gauged general equation.

    'printed' follows the published display; 'rederived' is the value obtained
    by redoing the gauge computation symbolically with beta != 0 (it reduces to
    the beta = 0 gauged equation, the printed one does not).
    """
    if mode == "printed":
        return (alpha ** 2 / 2.0) * (alpha - 1.5 * beta)
    return (alpha / 2.0) * (alpha - 1.5 * beta)


# the factors of the right-hand sides: u, its nonlocal conjugate and their
# spectral derivatives
U, US, DU, DUS = "u", "u*", "u_x", "(u*)_x"


def _terms(spec):
    """N(u) of ``spec`` as its ``(coefficient, factors)`` terms, the kind table."""
    a, b = spec.alpha, spec.beta
    if spec.kind == NNLS:
        return ((a, (U, U, US)),)
    if spec.kind == NDNLS:
        return ((a, (U, US, DU)),)
    if spec.kind == GNDNLS:
        return ((a, (U, US, DU)), (b, (U, U, DUS)))
    if spec.kind == GAUGED_NDNLS:
        cubic, quintic = -a, -(a ** 2) / 2.0
    else:  # GAUGED_GNDNLS
        cubic = -(a - b)
        quintic = -quintic_coefficient(a, b, spec.gauged_coefficient_mode)
    return ((cubic, (U, U, DUS)), (quintic, (U, U, U, US, US)))


@functools.lru_cache(maxsize=64)
def _recipe(spec):
    """How i N(u) of ``spec`` is evaluated from transformed rows, as its groups.

    One ``(degree, rows, reflected, terms, coefficients)`` group per product
    degree of the nonzero terms: ``rows`` names the factors u and u_x that
    are transformed as rows of their own, and each term indexes the sample
    rows, ``rows`` then one mirror per index in ``reflected``.  u* mirrors
    the row u and (u*)_x = -(u_x)* the row u_x, its sign moved into the
    coefficient.  Each coefficient is i coeff, so every evaluator returns
    i N(u) with the factor i written here only.
    """
    groups = {}
    for coeff, factors in _terms(spec):
        if coeff != 0:
            groups.setdefault(len(factors), []).append((coeff, factors))
    mirrored = {US: U, DUS: DU}  # factor -> the row it mirrors
    recipe = []
    for degree, terms in groups.items():
        names = {f for _, factors in terms for f in factors}
        starred = [f for f in (US, DUS) if f in names]
        names |= {mirrored[f] for f in starred}
        rows = [f for f in (U, DU) if f in names]
        index = {f: i for i, f in enumerate(rows + starred)}
        recipe.append((
            degree, tuple(rows), tuple(rows.index(mirrored[f]) for f in starred),
            tuple(tuple(index[f] for f in factors) for _, factors in terms),
            tuple(1j * (-coeff if DUS in factors else coeff) for coeff, factors in terms)))
    return tuple(recipe)


def nonlinear_coeffs(coeffs, grid, spec):
    """i N(u), the nonlinear part of u_t = i u_xx + i N(u), on raw Fourier coefficients.

    ``coeffs`` is one field ``(n_modes,)`` or a batch ``(batch, n_modes)``;
    each row of a batch gives the bits of its own 1-D call.  Neither the
    input nor the result is validated, so evolution loops can call it
    without building a :class:`SpectralField` per substep.  Every u* factor
    is the transformed row of conj(coeffs) through the signed padding of
    ``ProductPlan.products``, bit for bit as the test references build it;
    only the rows some term reads are transformed.  The first term's
    products array is the result and later terms add into it.
    """
    out = None
    d = derivative_symbol(grid)
    for degree, rows, reflected, terms, coefficients in _recipe(spec):
        arrays = [coeffs if f == U else coeffs * d for f in rows]
        arrays += [np.conj(arrays[i]) for i in reflected]
        read = sorted({i for term in terms for i in term})  # u_x may serve its mirror only
        products = product_plan(grid, degree).products(
            [arrays[i] for i in read], [tuple(map(read.index, term)) for term in terms])
        for coeff, p in zip(coefficients, products):
            np.multiply(coeff, p, out=p)  # coeff * p, in the fresh products array
            out = p if out is None else np.add(out, p, out=out)
    return np.zeros(coeffs.shape, dtype=np.complex128) if out is None else out


class _Nonlinearity:
    """i N(u) of ``spec`` on raw rows of one ``shape``, with its blocks and scales kept.

    A call ``(c, out)`` writes i N(c) into ``out``, not ``c``; each row rounds
    as it would alone.  Rows are copied into a zero padded input block per
    product degree of ``_recipe`` without the sign vector (u_x as c * i xi),
    so the inverse FFT gives dx_fine times the samples of u at
    x_j = j dx_fine, where x -> -x is j -> (n_fine - j) mod n_fine: u* and
    (u*)_x = -(u_x)* are the conjugated samples reversed, index 0 kept,
    written row by row (numpy buffers a unary ufunc on strided batch views).
    A term of p factors gets one scalar scale, its recipe coefficient times
    dx_fine^(1-p), multiplied into each half of its retained coefficients.

    Everything but the call's own ``c`` and ``out`` is built once here.  The
    input blocks are zeroed once and a call writes only their heads and
    tails; the inverse transform runs out of place from them into the
    sample blocks, so their zero middles are kept between calls.  The views
    of every pad, mirror, product factor and output half are listed here, so
    a call runs flat loops of ufuncs and two ``pypocketfft.c2c`` calls per
    product degree, each about 1 us of dispatch (see ``grid``).
    """

    def __init__(self, grid, spec, shape):
        self._h = h = grid.n_modes // 2
        d = derivative_symbol(grid)
        self._d = (d[h:], d[:h])
        self._copies, self._derivatives, self._groups, outputs = [], [], [], []
        for degree, rows, reflected, terms, coefficients in _recipe(spec):
            plan = product_plan(grid, degree)
            nf = plan.n_fine
            padded = np.zeros((len(rows),) + shape[:-1] + (nf,), dtype=np.complex128)
            block = np.empty((len(rows) + len(reflected) + len(terms),) + shape[:-1] + (nf,),
                             dtype=np.complex128)
            samples, acc = block[:len(rows) + len(reflected)], block[len(rows) + len(reflected):]
            for name, f in zip(rows, padded):
                (self._derivatives if name == DU else self._copies).append(
                    (f[..., :h], f[..., nf - h:]))
            mirrors, products = [], []
            for i, r in zip(reflected, samples[len(rows):]):
                for row, mirror in zip(samples[i].reshape(-1, nf), r.reshape(-1, nf)):
                    mirrors += [(row[:0:-1], mirror[1:]), (row[:1], mirror[:1])]
            for a, term in zip(acc, terms):
                products.append((samples[term[0]], samples[term[1]], a))
                products += [(a, samples[i], a) for i in term[2:]]
            self._groups.append((padded, block[:len(rows)], mirrors, products, acc))
            for a, coeff in zip(acc, coefficients):
                scale = coeff * plan.dx_fine ** (1 - degree)
                outputs.append((a[..., nf - h:], a[..., :h], scale))
        self._outputs = (outputs[0], outputs[1:]) if outputs else None

    def __call__(self, c, out):
        h = self._h
        if self._outputs is None:
            out.fill(0.0)  # every coefficient is 0
            return
        c_upper, c_head = c[..., h:], c[..., :h]
        for f_head, f_tail in self._copies:
            f_head[...] = c_upper
            f_tail[...] = c_head
        d_upper, d_head = self._d
        for f_head, f_tail in self._derivatives:
            np.multiply(c_upper, d_upper, out=f_head)
            np.multiply(c_head, d_head, out=f_tail)
        for padded, samples, mirrors, products, acc in self._groups:
            pypocketfft.c2c(padded, LAST_AXIS, False, 2, samples, 1)
            for row, mirror in mirrors:
                np.conjugate(row, out=mirror)
            for a, b, product in products:
                np.multiply(a, b, out=product)
            pypocketfft.c2c(acc, LAST_AXIS, True, 0, acc, 1)
        (tail, head, scale), rest = self._outputs
        out_head, out_upper = out[..., :h], out[..., h:]
        np.multiply(tail, scale, out=out_head)
        np.multiply(head, scale, out=out_upper)
        for tail, head, scale in rest:
            np.add(out_head, np.multiply(tail, scale, out=tail), out=out_head)
            np.add(out_upper, np.multiply(head, scale, out=head), out=out_upper)


def mass_energy_coeffs(coeffs, grid, alpha):
    """``(mass, energy)`` of the raw ``(n_modes,)`` coefficients ``coeffs``.

    M(u) = int u u* dx, complex-valued in general, and
    E(u) = int (du)(du)* + (alpha/2) u^2 (u*)^2 dx.  One inverse FFT
    transforms u, u*, du and (du)*, stacked in a block of the call's own,
    so the function is reentrant.  A state too large for the integrands
    gives a non-finite value and no warning.
    """
    block = np.empty((4, grid.n_modes), dtype=np.complex128)
    block[0] = coeffs
    np.conj(coeffs, out=block[1])
    np.multiply(coeffs, derivative_symbol(grid), out=block[2])
    np.conj(block[2], out=block[3])
    u, us, du, dus = product_plan(grid, 1).samples(block)
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = du * dus + (alpha / 2.0) * (u * us) ** 2
        return complex(np.sum(u * us) * grid.dx), complex(np.sum(integrand) * grid.dx)


def support_leakage(fld, eps0):
    """Fraction of squared spectral mass at frequencies below eps0; nan, and no
    warning, for a state too large to square."""
    if not (np.isfinite(eps0) and eps0 >= 0):  # nan would select no frequency
        raise ValueError("eps0 must be finite and nonnegative, got %r" % (eps0,))
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.abs(fld.coeffs) ** 2
        total = power.sum()
        if total == 0:
            return 0.0
        below = power[fld.grid.frequencies < eps0].sum()
        return float(below / total)
