"""Koenigs nets and their duals, end to end.

Builds a random Koenigs net, verifies the closedness of its diagonal ratio
form, integrates the vertex function nu, constructs the dual net, and checks
that duality swaps diagonal directions and is an involution.
"""
import numpy as np

from koenigsnets import generate
from koenigsnets.koenigs import (
    KoenigsData,
    check_closedness,
    dual_form_residual,
    dualize_net,
    integrate_nu,
    moutard_lift,
)
from koenigsnets.qnet import VertexScalar

rng = np.random.default_rng(7)

net = generate.random_koenigs_2d((10, 10), rng=rng)
rep = check_closedness(net)
print(f"random 10x10 net in R^3: Koenigs = {rep.passed}, "
      f"worst of {rep.n_checked} 4-cycle residuals = {rep.max_residual:.2e} at {rep.worst_at}")

kd = integrate_nu(net)
print(f"nu integrated over both diagonal parities, "
      f"consistency residual = {kd.closedness_residual:.2e}")
print(f"dual one-form closure residual = {dual_form_residual(net, kd):.2e}")

dual = dualize_net(net, kd)
print(f"dual net is itself Koenigs: {check_closedness(dual).passed}")

# dualizing again with nu* = 1/nu recovers the original up to translation
kd_dual = KoenigsData(nu=VertexScalar(1.0 / kd.nu.values), closedness_residual=0.0)
back = dualize_net(dual, kd_dual)
diff = back.vertices - net.vertices
err = np.abs(diff - diff[0, 0]).max() / net.diameter()
print(f"double dual equals the original up to translation: residual {err:.2e}")

mn = moutard_lift(net, kd)
print(f"homogeneous lift f/nu satisfies the Moutard equations: "
      f"residual {mn.moutard_residual():.2e}")

# a generic Q-net is not Koenigs, and neither is the 3d coordinate grid:
# the corner triangle product over a hexahedron is (-1)^3
bad = generate.random_qnet_3d((4, 4, 4), rng=rng)
print(f"generic planar-quad 3d net is Koenigs: {check_closedness(bad).passed}")
print(f"3d coordinate grid is Koenigs: "
      f"{check_closedness(generate.grid((4, 4, 4))).passed}")
