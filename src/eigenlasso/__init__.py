"""Numerical toolkit for lassoing eigenvalue degeneracies.

The package builds loops of real symmetric operators out of lifted
rotation actions, transports orthonormal eigenframes of a spectral
window around them to compute the orientation sign of the window
eigenbundle, and scans a filling disc of operators for the eigenvalue
degeneracy that a sign of -1 on the boundary forces.
"""

from .clifford import (
    CliffordRep,
    StructureMap,
    build_clifford,
    find_structure_map,
    lift_rotation,
    real_form_basis,
)
from .models import (
    CircleDiracModel,
    EquivariantLoopModel,
    OperatorFamily,
    SymmetricOperator,
    make_circle_dirac,
    make_fullturn_loop,
    make_halfturn_loop,
    make_odd_multiplicity_base,
    make_spin_loop,
)
from .spectral import (
    SpectralWindow,
    eigendecompose,
    enumerate_family,
    minmax_check,
    projector_distance,
    rayleigh_distance_check,
    spectral_close,
    spectral_projector_contour,
    spectral_projector_eig,
    verify_dirac_properties,
)
from .holonomy import (
    FramePath,
    ReturnMatrix,
    concatenate_loops,
    predicted_sign,
    sign_stability,
    transport,
)
from .lasso import (
    Answer,
    DegeneracyCertificate,
    DiscFamily,
    answer,
    make_orbit_disc,
)

__version__ = "0.1.0"
