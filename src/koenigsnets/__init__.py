"""Discrete Koenigs and isothermic nets on Z^m lattices.

Construct, verify, and transform quadrilateral nets with planar faces:
dual quadrilaterals, the multiplicative one-form on diagonals, the vertex
function nu, net dualization, Moutard lifts, cross-ratio factorizations,
the discrete metric, Christoffel transforms, and light-cone lifts.
"""

from . import generate, geom, isothermic, koenigs, netio, qnet
from .errors import (
    CheckFailure,
    DegeneracyError,
    GeometryError,
    InputError,
)
from .geom import (
    Tolerances,
    lift_to_lightcone,
    menelaus_product,
    minkowski_dot,
    quad_diagonals,
)
from .isothermic import (
    IsothermicNet,
    check_circular,
    check_isothermic,
    check_moebius_characterizations,
    christoffel,
    lightcone_evolve,
    lightcone_lift,
    recover_labels,
    recover_metric,
    three_leg_evolve,
)
from .koenigs import (
    DiagonalForm,
    KoenigsData,
    MoutardNet,
    build_q_form,
    check_closedness,
    check_koenigs_2d_geometric,
    check_koenigs_3d_geometric,
    dual_form_residual,
    dualize_net,
    dualize_quad,
    integrate_nu,
    laplace_residual,
    moutard_evolve,
    moutard_lift,
    normalize_nu_for_limit,
)
from .netio import NetDocument, export_obj, load, save
from .qnet import CheckReport, EdgeLabelling, QNet, VertexScalar, check_qnet

__version__ = "0.1.0"  # the version in pyproject.toml
