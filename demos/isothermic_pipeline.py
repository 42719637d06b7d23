"""Isothermic nets: recognition, Christoffel dual, light-cone lift.

Builds an isothermic net from the three-leg construction, recovers its edge
labels and metric, takes the Christoffel dual, lifts to the light cone, and
shows Moebius invariance of the whole picture.
"""
import numpy as np

from koenigsnets import generate
from koenigsnets.geom import minkowski_dot
from koenigsnets.koenigs import check_moutard
from koenigsnets.isothermic import (
    check_isothermic,
    christoffel,
    lightcone_lift,
    metric_labels,
    quad_cross_ratios,
    recover_labels,
    recover_metric,
)

rng = np.random.default_rng(11)

iso = generate.random_isothermic_2d((6, 6), rng=rng)
rep = check_isothermic(iso.net)
print(f"three-leg net is isothermic: {rep.passed}, residual {rep.max_residual:.2e}")

cr = quad_cross_ratios(iso.net)[(0, 1)]
print(f"quad cross-ratios are negative (embedded circular quads): "
      f"max = {cr.max():.3f}")

labels = recover_labels(iso.net)
scale = iso.labels.per_axis[0][0] / labels.per_axis[0][0]
drift = max(
    np.abs(r * scale - a).max()
    for r, a in zip(labels.per_axis, iso.labels.per_axis)
)
print(f"edge labels recovered up to one global scale: drift {drift:.2e}")

s = recover_metric(iso.net)
print(f"metric coefficient recovered, s[0,0] = {s.values[0, 0]:.3f}")

dual = christoffel(iso)
cr_dual = quad_cross_ratios(dual.net)[(0, 1)]
print(f"Christoffel dual is isothermic: {check_isothermic(dual.net).passed}, "
      f"same cross-ratios: {np.abs(cr - cr_dual).max():.2e}")
print(f"dual metric satisfies s* s = 1: "
      f"{np.abs(dual.metric.values * iso.metric.values - 1).max():.2e}")

mn = lightcone_lift(iso)
lifted = -2.0 * minkowski_dot(mn.points[:-1], mn.points[1:])  # -2 <y, tau_1 y> on the axis-0 edges
alpha = metric_labels(iso.net, iso.metric).per_axis[0][:, None]  # |f_1 - f|^2 / (s s_1) per layer
mrep = check_moutard(mn)
print(f"light-cone lift f/s satisfies the Moutard equations: {mrep.passed}, "
      f"max residual {mrep.max_residual:.2e} at {mrep.worst_at}")
print(f"lift reproduces the axis-0 labels |f_1 - f|^2 / (s s_1), constant per layer: "
      f"drift {np.abs(lifted - alpha).max() / np.abs(alpha).max():.2e}, alpha[0] = {alpha[0, 0]:.3f}")

img = generate.apply_moebius(iso.net, scale=1.7, shift=np.array([0.3, -0.2, 0.5]))
print(f"Moebius image is isothermic: {check_isothermic(img).passed}, "
      f"cross-ratio drift {np.abs(quad_cross_ratios(img)[(0, 1)] - cr).max():.2e}")
