"""Independent reference computations used to cross-check the package.

Everything here goes through plain matrix inverses and determinants (or, for
the N = 1 and N = 2 cases, explicit scalar/adjugate formulas); none of it
shares code with the package's Cholesky-based kernels.
"""

import math

import numpy as np


def inv_oracle(a: np.ndarray) -> np.ndarray:
    return np.linalg.inv(a)


def det_real(a: np.ndarray) -> float:
    return float(np.linalg.det(a).real)


def quad(v: np.ndarray, w: np.ndarray, z: np.ndarray) -> complex:
    return complex(v.conj() @ inv_oracle(w) @ z)


def alpha_plug(v: np.ndarray, w: np.ndarray, z: np.ndarray) -> complex:
    return quad(v, w, z) / quad(v, w, v).real


def scatter(x: np.ndarray) -> np.ndarray:
    return x @ x.conj().T


def s_nm_oracle(zp: np.ndarray, r: np.ndarray, n: int, m: int) -> np.ndarray:
    k_p = zp.shape[1]
    keep = [k for k in range(k_p) if k not in (0, n - 1, m - 1)]
    return scatter(r) + scatter(zp[:, keep])


def pairs_oracle(k_p: int):
    return [(n, m) for n in range(2, k_p + 1) for m in range(n + 1, k_p + 1)]


def residual_cols(zp, vr, vsr, vs, n, m, a1, an, am):
    return np.stack([
        zp[:, 0] - a1 * vr,
        zp[:, n - 1] - an * vsr,
        zp[:, m - 1] - am * vs,
    ], axis=1)


def bound_oracle(zp, r, steering_cols, n, m, rank_tol=1e-8):
    """log det(V† S_{n,m}^-1 V) - log det(V† (S_P + S_S)^-1 V), V an
    orthonormal basis of the span of the steering vectors: an upper bound
    on every det-ratio log statistic at pair (n, m), at any amplitudes."""
    u, sv, _ = np.linalg.svd(np.column_stack(steering_cols),
                             full_matrices=False)
    v = u[:, sv > rank_tol * sv[0]]

    def logdet(w):
        return math.log(det_real(v.conj().T @ inv_oracle(w) @ v))

    return logdet(s_nm_oracle(zp, r, n, m)) - logdet(scatter(r) + scatter(zp))


def km_oracle(zp, r, vr, vsr, vs, variant):
    """Known-covariance estimate-and-plug statistic, max over pairs."""
    ss = scatter(r)
    best_val, best_pair = -np.inf, None
    for n, m in pairs_oracle(zp.shape[1]):
        w = ss if variant == 1 else s_nm_oracle(zp, r, n, m)
        val = 0.0
        for v, z in ((vr, zp[:, 0]), (vsr, zp[:, n - 1]), (vs, zp[:, m - 1])):
            val += abs(quad(v, w, z)) ** 2 / quad(v, w, v).real
        if val > best_val:
            best_val, best_pair = val, (n, m)
    return best_val, best_pair


def ka_oracle(zp, r, vr, vsr, vs):
    ss = scatter(r)
    num = det_real(scatter(zp) + ss)
    best_val, best_pair = -np.inf, None
    for n, m in pairs_oracle(zp.shape[1]):
        a1 = alpha_plug(vr, ss, zp[:, 0])
        an = alpha_plug(vsr, ss, zp[:, n - 1])
        am = alpha_plug(vs, ss, zp[:, m - 1])
        y = residual_cols(zp, vr, vsr, vs, n, m, a1, an, am)
        val = num / det_real(s_nm_oracle(zp, r, n, m) + scatter(y))
        if val > best_val:
            best_val, best_pair = val, (n, m)
    return best_val, best_pair


def a_oracle(zp, r, vr, vsr, vs):
    ss = scatter(r)
    num = det_real(scatter(zp) + ss)
    best_val, best_pair = -np.inf, None
    for n, m in pairs_oracle(zp.shape[1]):
        s_nm = s_nm_oracle(zp, r, n, m)
        a1 = alpha_plug(vr, s_nm, zp[:, 0])
        an = alpha_plug(vsr, s_nm, zp[:, n - 1])
        am = alpha_plug(vs, s_nm, zp[:, m - 1])
        y = residual_cols(zp, vr, vsr, vs, n, m, a1, an, am)
        val = num / det_real(s_nm + scatter(y))
        if val > best_val:
            best_val, best_pair = val, (n, m)
    return best_val, best_pair


def c_pair_oracle(zp, r, vr, vsr, vs, n, m, eps=1e-5, h_max=20, trace=False):
    """Cyclic coordinate ascent at one pair, scripted step by step.

    Returns (log det(S_{n,m} + Y Y†), iterations, gains, update_lds).  With
    trace the loop runs all h_max iterations without the stop rule, and
    update_lds holds the log det after every coordinate update, starting
    from the initialization; otherwise update_lds is empty.
    """
    k_tot = zp.shape[1] + r.shape[1]
    s_nm = s_nm_oracle(zp, r, n, m)
    z1, zn, zm = zp[:, 0], zp[:, n - 1], zp[:, m - 1]
    a1 = alpha_plug(vr, s_nm, z1)
    an = alpha_plug(vsr, s_nm, zn)
    am = alpha_plug(vs, s_nm, zm)

    def ld(a1_, an_, am_):
        y = residual_cols(zp, vr, vsr, vs, n, m, a1_, an_, am_)
        return math.log(det_real(s_nm + scatter(y)))

    prev = ld(a1, an, am)
    gains, update_lds = [], [prev] if trace else []
    iters = 0
    for _ in range(h_max):
        iters += 1
        c1 = s_nm + scatter(np.stack([zn - an * vsr, zm - am * vs], axis=1))
        a1 = alpha_plug(vr, c1, z1)
        if trace:
            update_lds.append(ld(a1, an, am))
        c2 = s_nm + scatter(np.stack([z1 - a1 * vr, zm - am * vs], axis=1))
        an = alpha_plug(vsr, c2, zn)
        if trace:
            update_lds.append(ld(a1, an, am))
        c3 = s_nm + scatter(np.stack([z1 - a1 * vr, zn - an * vsr], axis=1))
        am = alpha_plug(vs, c3, zm)
        cur = ld(a1, an, am)
        if trace:
            update_lds.append(cur)
        gain = math.exp(k_tot * (prev - cur)) - 1.0
        gains.append(gain)
        prev = cur
        if gain < eps and not trace:
            break
    return prev, iters, gains, update_lds


def c_oracle(zp, r, vr, vsr, vs, eps=1e-5, h_max=20):
    """Cyclic-ascent statistic, max over pairs."""
    num = det_real(scatter(zp) + scatter(r))
    best_val, best_pair, best_iter = -np.inf, None, 0
    for n, m in pairs_oracle(zp.shape[1]):
        ld, iters, _, _ = c_pair_oracle(zp, r, vr, vsr, vs, n, m, eps, h_max)
        val = num / math.exp(ld)
        if val > best_val:
            best_val, best_pair, best_iter = val, (n, m), iters
    return best_val, best_pair, best_iter


def kelly_oracle(z, r, v):
    ss = scatter(r)
    num = abs(quad(v, ss, z)) ** 2
    return num / (quad(v, ss, v).real * (1.0 + quad(z, ss, z).real))


def amf_oracle(z, r, v):
    ss = scatter(r)
    return abs(quad(v, ss, z)) ** 2 / quad(v, ss, v).real


# ---------------------------------------------------------------------------
# N = 1 closed forms: every quantity collapses to scalar arithmetic.  The
# plug matrix cancels out of each normalized term, so the statistics reduce
# to cell-energy ratios; the amplitude estimates reduce to z / v.
# ---------------------------------------------------------------------------

def scalar_alpha(v: complex, z: complex) -> complex:
    return z / v


def scalar_km(zp, r, variant):
    """zp: (K_P,) complex cells, r: (K_S,) training scalars."""
    s_s = float(np.sum(np.abs(r) ** 2))
    k_p = len(zp)
    best_val, best_pair = -np.inf, None
    for n, m in pairs_oracle(k_p):
        if variant == 1:
            s = s_s
        else:
            keep = [k for k in range(k_p) if k not in (0, n - 1, m - 1)]
            s = s_s + float(np.sum(np.abs(zp[keep]) ** 2))
        val = (abs(zp[0]) ** 2 + abs(zp[n - 1]) ** 2 + abs(zp[m - 1]) ** 2) / s
        if val > best_val:
            best_val, best_pair = val, (n, m)
    return best_val, best_pair


def scalar_det_ratio(zp, r):
    """KA, A, and C statistics coincide at N = 1: residuals vanish exactly."""
    s_s = float(np.sum(np.abs(r) ** 2))
    s_p = float(np.sum(np.abs(zp) ** 2))
    k_p = len(zp)
    best_val, best_pair = -np.inf, None
    for n, m in pairs_oracle(k_p):
        keep = [k for k in range(k_p) if k not in (0, n - 1, m - 1)]
        s_nm = s_s + float(np.sum(np.abs(zp[keep]) ** 2))
        val = (s_p + s_s) / s_nm
        if val > best_val:
            best_val, best_pair = val, (n, m)
    return best_val, best_pair


def scalar_kelly(z, r):
    s = float(np.sum(np.abs(r) ** 2))
    return abs(z) ** 2 / (s + abs(z) ** 2)


def scalar_amf(z, r):
    s = float(np.sum(np.abs(r) ** 2))
    return abs(z) ** 2 / s


# ---------------------------------------------------------------------------
# N = 2 adjugate route: 2x2 inverses and determinants written out by hand.
# ---------------------------------------------------------------------------

def det2(a: np.ndarray) -> complex:
    return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]


def inv2(a: np.ndarray) -> np.ndarray:
    d = det2(a)
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / d


def quad2(v, w, z) -> complex:
    return complex(v.conj() @ inv2(w) @ z)


def alpha2(v, w, z) -> complex:
    return quad2(v, w, z) / quad2(v, w, v).real


def km2x2(zp, r, vr, vsr, vs, variant):
    ss = scatter(r)
    best_val, best_pair = -np.inf, None
    for n, m in pairs_oracle(zp.shape[1]):
        w = ss if variant == 1 else s_nm_oracle(zp, r, n, m)
        val = 0.0
        for v, z in ((vr, zp[:, 0]), (vsr, zp[:, n - 1]), (vs, zp[:, m - 1])):
            val += abs(quad2(v, w, z)) ** 2 / quad2(v, w, v).real
        if val > best_val:
            best_val, best_pair = val, (n, m)
    return best_val, best_pair


def det_ratio2x2(zp, r, vr, vsr, vs, plug: str):
    """KA (plug="ss") or A (plug="snm") statistic via the adjugate route."""
    ss = scatter(r)
    num = det2(scatter(zp) + ss).real
    best_val, best_pair = -np.inf, None
    for n, m in pairs_oracle(zp.shape[1]):
        s_nm = s_nm_oracle(zp, r, n, m)
        w = ss if plug == "ss" else s_nm
        a1 = alpha2(vr, w, zp[:, 0])
        an = alpha2(vsr, w, zp[:, n - 1])
        am = alpha2(vs, w, zp[:, m - 1])
        y = residual_cols(zp, vr, vsr, vs, n, m, a1, an, am)
        val = num / det2(s_nm + scatter(y)).real
        if val > best_val:
            best_val, best_pair = val, (n, m)
    return best_val, best_pair


def c2x2(zp, r, vr, vsr, vs, eps=1e-5, h_max=20):
    ss = scatter(r)
    k_tot = zp.shape[1] + r.shape[1]
    num = det2(scatter(zp) + ss).real
    best_val, best_pair, best_iter = -np.inf, None, 0
    for n, m in pairs_oracle(zp.shape[1]):
        s_nm = s_nm_oracle(zp, r, n, m)
        z1, zn, zm = zp[:, 0], zp[:, n - 1], zp[:, m - 1]
        a1 = alpha2(vr, s_nm, z1)
        an = alpha2(vsr, s_nm, zn)
        am = alpha2(vs, s_nm, zm)

        def ld(a1_, an_, am_):
            y = residual_cols(zp, vr, vsr, vs, n, m, a1_, an_, am_)
            return math.log(det2(s_nm + scatter(y)).real)

        prev = ld(a1, an, am)
        iters = 0
        for _ in range(h_max):
            iters += 1
            c1 = s_nm + scatter(np.stack([zn - an * vsr, zm - am * vs], axis=1))
            a1 = alpha2(vr, c1, z1)
            c2 = s_nm + scatter(np.stack([z1 - a1 * vr, zm - am * vs], axis=1))
            an = alpha2(vsr, c2, zn)
            c3 = s_nm + scatter(np.stack([z1 - a1 * vr, zn - an * vsr], axis=1))
            am = alpha2(vs, c3, zm)
            cur = ld(a1, an, am)
            gain = math.exp(k_tot * (prev - cur)) - 1.0
            prev = cur
            if gain < eps:
                break
        val = num / math.exp(prev)
        if val > best_val:
            best_val, best_pair, best_iter = val, (n, m), iters
    return best_val, best_pair, best_iter


def kelly2x2(z, r, v):
    ss = scatter(r)
    return abs(quad2(v, ss, z)) ** 2 / (
        quad2(v, ss, v).real * (1.0 + quad2(z, ss, z).real))


def amf2x2(z, r, v):
    ss = scatter(r)
    return abs(quad2(v, ss, z)) ** 2 / quad2(v, ss, v).real


# ---------------------------------------------------------------------------
# Shared random-case construction (eigendecomposition coloring, independent
# of the package's Cholesky coloring).
# ---------------------------------------------------------------------------

def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + n * np.eye(n)


def random_dataset(rng: np.random.Generator, n: int, k_p: int, k_s: int,
                   cov: np.ndarray | None = None):
    """Draw (z_p, r) with CN(0, cov) columns via eigen-coloring."""
    cov = np.eye(n) if cov is None else cov
    vals, vecs = np.linalg.eigh(cov)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    def draw(cols):
        u = (rng.standard_normal((n, cols))
             + 1j * rng.standard_normal((n, cols))) / np.sqrt(2.0)
        return root @ u
    return draw(k_p), draw(k_s)


def si_trapezoid(z: float, steps: int = 200_001) -> float:
    """High-resolution trapezoid rule for the sine integral."""
    t = np.linspace(0.0, z, steps)
    y = np.ones_like(t)
    np.divide(np.sin(t), t, out=y, where=t > 0)
    return float(np.trapezoid(y, t))
