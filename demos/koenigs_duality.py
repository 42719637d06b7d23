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
    check_moutard,
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

# integrate_nu, dualize_net and moutard_lift gate on their reports; a failing gate
# names its counts, its largest residual and where it is in its error message
kd = integrate_nu(net)
print(f"nu integrated over both diagonal parities, one gauge each: "
      f"nu(0, 0) = {kd.nu.values[0, 0]:.1f}, nu(1, 0) = {kd.nu.values[1, 0]:.1f}")

dual = dualize_net(net, kd)
dual_rep = check_closedness(dual)
print(f"dual net is itself Koenigs: {dual_rep.passed}, "
      f"max residual {dual_rep.max_residual:.2e} at {dual_rep.worst_at}")

# dualizing again with nu* = 1/nu recovers the original up to translation
kd_dual = KoenigsData(nu=VertexScalar(1.0 / kd.nu.values))
back = dualize_net(dual, kd_dual)
diff = back.vertices - net.vertices
err = np.abs(diff - diff[0, 0]).max() / net.diameter()
print(f"double dual equals the original up to translation: residual {err:.2e}")

mn = moutard_lift(net, kd)
mrep = check_moutard(mn)
print(f"homogeneous lift f/nu satisfies the Moutard equations: {mrep.passed}, "
      f"max residual {mrep.max_residual:.2e} at {mrep.worst_at}")

# a generic Q-net is not Koenigs, and neither is the 3d coordinate grid:
# the corner triangle product over a hexahedron is (-1)^3
bad = generate.random_qnet_3d((4, 4, 4), rng=rng)
print(f"generic planar-quad 3d net is Koenigs: {check_closedness(bad).passed}")
print(f"3d coordinate grid is Koenigs: "
      f"{check_closedness(generate.grid((4, 4, 4))).passed}")
