"""Independent numpy checks of pipeline outputs, run outside the timed region.

Each function returns a residual that must stay within the library's
``Tolerances``: ``product`` for one-form, Moutard and metric relations,
``incidence`` for light-cone isotropy.  None of them calls into koenigsnets,
so a defect in the library cannot hide a defect in its own check.
"""
from __future__ import annotations

import numpy as np


def _crop(a: np.ndarray, axis: int, offset: int) -> np.ndarray:
    """Drop the last (offset 0) or first (offset 1) layer along ``axis``."""
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(0, -1) if offset == 0 else slice(1, None)
    return a[tuple(sl)]


def _corner(a: np.ndarray, i: int, j: int, oi: int, oj: int) -> np.ndarray:
    """Values at the (oi, oj) corner of every (i, j) quad."""
    return _crop(_crop(a, i, oi), j, oj)


def _pairs(m: int):
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def _diameter(f: np.ndarray) -> float:
    flat = f.reshape(-1, f.shape[-1])
    return float(np.linalg.norm(flat.max(axis=0) - flat.min(axis=0)))


def _edge_forms_closure(forms) -> float:
    """Max relative closure defect of an edge one-form over all quads."""
    worst = 0.0
    for i, j in _pairs(len(forms)):
        gi0, gi1 = _crop(forms[i], j, 0), _crop(forms[i], j, 1)
        gj0, gj1 = _crop(forms[j], i, 0), _crop(forms[j], i, 1)
        defect = np.linalg.norm(gi0 + gj1 - gj0 - gi1, axis=-1)
        scale = np.max([np.linalg.norm(g, axis=-1) for g in (gi0, gi1, gj0, gj1)], axis=0)
        worst = max(worst, float((defect / scale).max()))
    return worst


def _realization(f_out: np.ndarray, forms) -> float:
    """How far the edges of an integrated net are from the one-form, as a
    share of that net's diameter."""
    worst = max(float(np.linalg.norm(np.diff(f_out, axis=i) - g, axis=-1).max()) for i, g in enumerate(forms))
    return worst / _diameter(f_out)


def dual_residuals(f: np.ndarray, nu: np.ndarray, f_dual: np.ndarray):
    """(closure, realization) of the Koenigs dual one-form delta_i f / (nu nu_i)."""
    m = nu.ndim
    forms = [np.diff(f, axis=i) / (_crop(nu, i, 0) * _crop(nu, i, 1))[..., None] for i in range(m)]
    return _edge_forms_closure(forms), _realization(f_dual, forms)


def christoffel_residuals(f: np.ndarray, labels, f_dual: np.ndarray):
    """(closure, realization) of alpha_i delta_i f / |delta_i f|^2."""
    forms = []
    for i, alpha in enumerate(labels):
        df = np.diff(f, axis=i)
        shape = [1] * (f.ndim - 1)
        shape[i] = len(alpha)
        forms.append(np.reshape(alpha, shape)[..., None] * df / (df * df).sum(axis=-1, keepdims=True))
    return _edge_forms_closure(forms), _realization(f_dual, forms)


def moutard_residual(y: np.ndarray, coeffs: dict) -> float:
    """Max relative defect of y_ij - y = a_ij (y_j - y_i) over all quads."""
    worst = 0.0
    for (i, j), a in coeffs.items():
        y00, y10 = _corner(y, i, j, 0, 0), _corner(y, i, j, 1, 0)
        y01, y11 = _corner(y, i, j, 0, 1), _corner(y, i, j, 1, 1)
        lhs = y11 - y00
        rhs = np.asarray(a)[..., None] * (y01 - y10)
        scale = np.max([np.linalg.norm(v, axis=-1) for v in (lhs, rhs, y00)], axis=0)
        worst = max(worst, float((np.linalg.norm(lhs - rhs, axis=-1) / scale).max()))
    return worst


def homogeneous_lift_residual(f: np.ndarray, nu: np.ndarray, y: np.ndarray) -> float:
    """Relative distance of y from the homogeneous lift (f, 1) / nu."""
    expect = np.concatenate([f, np.ones(f.shape[:-1] + (1,))], axis=-1) / nu[..., None]
    return float((np.linalg.norm(y - expect, axis=-1) / np.linalg.norm(expect, axis=-1)).max())


def lightcone_residuals(f: np.ndarray, y: np.ndarray):
    """(isotropy, projection) of a light-cone net in the flat layout
    [spatial..., e0, einf]: <y, y> = |x|^2 - e0 einf relative to |y|^2, and
    the distance of x / e0 from f relative to the diameter of f."""
    x, e0, einf = y[..., :-2], y[..., -2], y[..., -1]
    iso = np.abs((x * x).sum(axis=-1) - e0 * einf) / (y * y).sum(axis=-1)
    proj = np.linalg.norm(x / e0[..., None] - f, axis=-1).max() / _diameter(f)
    return float(iso.max()), float(proj)


def inverse_residual(s: np.ndarray, s_star: np.ndarray) -> float:
    """max |s s* - 1|: the Christoffel dual carries the metric 1/s."""
    return float(np.abs(s * s_star - 1.0).max())


def metric_label_residual(f: np.ndarray, s: np.ndarray) -> float:
    """Spread of alpha_i = |delta_i f|^2 / (s s_i) across the transverse
    axes, relative to its size: zero iff the metric factorizes over edge
    labels."""
    worst = 0.0
    for i in range(s.ndim):
        df = np.diff(f, axis=i)
        alpha = (df * df).sum(axis=-1) / (_crop(s, i, 0) * _crop(s, i, 1))
        layered = np.moveaxis(alpha, i, 0).reshape(alpha.shape[i], -1)
        worst = max(worst, float(np.abs(layered - layered[:, :1]).max() / np.abs(alpha).max()))
    return worst
