"""Independent reference implementations used to fix expected test values.

Everything here is deliberately naive and slow: symbolic calculus through
sympy, composite Simpson quadrature, literal Python loops.  The package
never imports this module; tests either compare package output against
these routines directly or against literals frozen from their output.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

X, Y, Z = sp.symbols("x y z", real=True)


# ---------------------------------------------------------------------------
# symbolic velocity fields and their exact derived quantities

def taylor_green_exprs():
    return (
        sp.sin(X) * sp.cos(Y) * sp.cos(Z),
        -sp.cos(X) * sp.sin(Y) * sp.cos(Z),
        sp.Integer(0),
    )


def abc_exprs(a=1, b=1, c=1):
    a, b, c = sp.nsimplify(a), sp.nsimplify(b), sp.nsimplify(c)
    return (
        a * sp.sin(Z) + c * sp.cos(Y),
        b * sp.sin(X) + a * sp.cos(Z),
        c * sp.sin(Y) + b * sp.cos(X),
    )


def grad_matrix(u_exprs):
    """A[i, j] = d_j u_i as a sympy matrix."""
    coords = (X, Y, Z)
    return sp.Matrix(3, 3, lambda i, j: sp.diff(u_exprs[i], coords[j]))


def curl_exprs(u_exprs):
    u1, u2, u3 = u_exprs
    return (
        sp.diff(u3, Y) - sp.diff(u2, Z),
        sp.diff(u1, Z) - sp.diff(u3, X),
        sp.diff(u2, X) - sp.diff(u1, Y),
    )


def invariant_exprs(u_exprs):
    """Symbolic trA2, trA3, trS2, trS3, |omega|^2, omega.S.omega."""
    a = grad_matrix(u_exprs)
    s = (a + a.T) / 2
    w = sp.Matrix(curl_exprs(u_exprs))
    return {
        "trA2": sp.trace(a * a),
        "trA3": sp.trace(a * a * a),
        "trS2": sp.trace(s * s),
        "trS3": sp.trace(s * s * s),
        "enstrophy": (w.T * w)[0, 0],
        "omega_S_omega": (w.T * s * w)[0, 0],
    }


def box_mean(expr):
    """Mean of a trig polynomial over [0, 2pi]^3, exact rational/float."""
    volume = (2 * sp.pi) ** 3
    integral = sp.integrate(
        sp.integrate(sp.integrate(sp.expand_trig(sp.expand(expr)),
                                  (X, 0, 2 * sp.pi)),
                     (Y, 0, 2 * sp.pi)),
        (Z, 0, 2 * sp.pi))
    return sp.simplify(integral / volume)


def eval_on_grid(expr, n, box_length=2 * np.pi):
    """Sample a symbolic expression of x, y, z on the package's grid layout."""
    f = sp.lambdify((X, Y, Z), expr, "numpy")
    axis = (box_length / n) * np.arange(n)
    x = axis.reshape(n, 1, 1)
    y = axis.reshape(1, n, 1)
    z = axis.reshape(1, 1, n)
    return np.asarray(np.broadcast_to(f(x, y, z), (n, n, n)), dtype=float)


# ---------------------------------------------------------------------------
# quadrature

def simpson(f, a, b, n=4000):
    """Composite Simpson rule with n (even) panels, plain summation."""
    if n % 2:
        n += 1
    xs = np.linspace(a, b, n + 1)
    ys = np.asarray([f(x) for x in xs], dtype=float)
    h = (b - a) / n
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


def normal_tail(a, span=45.0, n=8000):
    """P(Z > a) for standard normal Z, by quadrature of the density."""
    dens = lambda z: np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)  # noqa: E731
    return simpson(dens, a, max(a, 0.0) + span, n)


def p_beta_quadrature(r, t, beta, n=20000):
    """Defining integral (1/sqrt(2 pi t)) int_{r/sqrt(t)}^inf z e^{-(z - beta sqrt(t))^2/2} dz."""
    st = np.sqrt(t)
    lo = r / st
    shift = beta * st
    hi = max(lo, shift, 0.0) + 45.0
    integrand = lambda z: z * np.exp(-0.5 * (z - shift) ** 2)  # noqa: E731
    return simpson(integrand, lo, hi, n) / np.sqrt(2 * np.pi * t)


# ---------------------------------------------------------------------------
# linear algebra and sums by brute force

def eig_descending(mat3):
    """Eigenvalues of a symmetric 3x3, descending, via numpy's eigvalsh."""
    return np.sort(np.linalg.eigvalsh(np.asarray(mat3, dtype=float)))[::-1]


def expm_taylor(mat, terms=40):
    """Matrix exponential by raw Taylor summation."""
    mat = np.asarray(mat, dtype=float)
    out = np.eye(mat.shape[0])
    term = np.eye(mat.shape[0])
    for k in range(1, terms + 1):
        term = term @ mat / k
        out = out + term
    return out


def ball_sum_direct(values, radius, box_length=2 * np.pi):
    """Literal triple-loop sum of h^3 * values over the periodic ball
    |x - center| < radius, for every center on the grid.  O(n^3 * ball)."""
    n = values.shape[0]
    h = box_length / n
    half = n // 2
    offs = []
    reach = int(np.floor(radius / h)) + 1
    for dx in range(-reach, reach + 1):
        for dy in range(-reach, reach + 1):
            for dz in range(-reach, reach + 1):
                dx_m = (dx + half) % n - half
                dy_m = (dy + half) % n - half
                dz_m = (dz + half) % n - half
                d2 = (dx_m * dx_m + dy_m * dy_m + dz_m * dz_m) * h * h
                if d2 < radius * radius:
                    offs.append((dx % n, dy % n, dz % n))
    out = np.zeros_like(values)
    for dx, dy, dz in set(offs):
        out += np.roll(values, shift=(-dx, -dy, -dz), axis=(0, 1, 2))
    return out * h ** 3


def richardson_order(errors, factors=2.0):
    """Observed convergence order from errors at step h, h/2."""
    e = np.asarray(errors, dtype=float)
    return np.log(e[:-1] / e[1:]) / np.log(factors)


# ---------------------------------------------------------------------------
# run diagnostics as volume means of sampled products

def physical_diagnostics(state, q_list=(1.0, 2.0, 3.0), floor=1e-30):
    """Every DiagnosticsRecord value of `state`, by name, as a volume mean
    of sampled products: u, A, S, omega, grad S, grad omega and du/dt =
    ns_rhs are all sampled and every mean is taken over grid points.
    "trA2" and "trA3" hold the pointwise traces of the sampled A."""
    from vortexlab import spectral as spx
    from vortexlab.solver import ns_rhs

    g = state.grid
    nu = state.effective_viscosity

    def fields(uh):
        a = spx.physical_gradient(g, uh)  # a[i, j] = d_j u_i
        s = 0.5 * (a + np.swapaxes(a, 0, 1))
        w = np.stack([a[2, 1] - a[1, 2], a[0, 2] - a[2, 0],
                      a[1, 0] - a[0, 1]])
        return spx.to_physical(g, uh), a, s, w

    u, a, s, w = fields(state.u.data)
    ud, _, sd, wd = fields(ns_rhs(state).data)
    ds = spx.physical_gradient(g, spx.to_spectral(g, s))
    dw = spx.physical_gradient(g, spx.to_spectral(g, w))

    def mean(x):
        return float(x.mean())

    enstrophy = np.einsum("i...,i...->...", w, w)
    m = enstrophy + floor
    wsw = np.einsum("i...,ij...,j...->...", w, s, w)
    w_wd = np.einsum("i...,i...->...", w, wd)
    out = {
        "t": state.t,
        "mean_u2": mean(np.einsum("i...,i...->...", u, u)),
        "mean_enstrophy": mean(enstrophy),
        "mean_abs_omega": mean(np.sqrt(enstrophy)),
        "mean_S2": mean(np.einsum("ij...,ij...->...", s, s)),
        "mean_trS3": mean(np.einsum("ij...,jk...,ki...->...", s, s, s)),
        "mean_omega_S_omega": mean(wsw),
        "mean_grad_omega2": mean(np.einsum("ik...,ik...->...", dw, dw)),
        "mean_grad_S2": mean(np.einsum("ijk...,ijk...->...", ds, ds)),
        "mean_helicity": mean(np.einsum("i...,i...->...", u, w)),
        "d_mean_u2_dt": 2.0 * mean(np.einsum("i...,i...->...", u, ud)),
        "d_mean_S2_dt": 2.0 * mean(np.einsum("ij...,ij...->...", s, sd)),
        "d_mean_abs_omega_dt": mean(m ** -0.5 * w_wd),
        "mean_unit_omega_S_omega": mean(m ** -0.5 * wsw),
        "trA2": np.einsum("ij...,ji...->...", a, a).ravel(),
        "trA3": np.einsum("ij...,jk...,ki...->...", a, a, a).ravel(),
    }
    out["entropy_functional"] = (out["mean_abs_omega"]
                                 + out["mean_u2"] / (np.sqrt(2.0) * nu))
    out["mean_abs_omega_q"] = tuple((q, mean(m ** (q / 2.0)))
                                    for q in q_list)
    checks = []
    for q in q_list:
        derivative = q * mean(m ** ((q - 2.0) / 2.0) * w_wd)
        stretching = q * mean(m ** ((q - 2.0) / 2.0) * wsw)
        gradient = 0.0
        if q != 1.0:
            grad = spx.physical_gradient(g, spx.to_spectral(g, m ** (q / 4.0)))
            gradient = -4.0 * (1.0 - 1.0 / q) * nu * mean(
                np.einsum("i...,i...->...", grad, grad))
        scale = max(abs(derivative), abs(gradient), abs(stretching), 1e-300)
        checks.append((q, (gradient + stretching) - derivative, scale))
    out["lq_checks"] = tuple(checks)
    return out
