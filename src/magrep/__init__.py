"""magrep: irreducibility, reduction and k.p model construction for
projective co-representations of finite anti-unitary (magnetic) groups."""

from . import errors
from .groups import (
    FactorSystem,
    MagneticGroup,
    build_group,
    conjugacy_classes,
    restricted_group,
    validate_cocycle,
)
from .coreps import (
    CoRep,
    conjugate_corep,
    corep_from_matrices,
    direct_sum,
    gauge_transform,
    random_gauge,
    regular_corep,
    restrict_corep,
    validate_corep,
)
from .linalg import random_unitary, symmetric_unitary_sqrt
from .reduction import (
    CommutantHamiltonian,
    IrrepDecomposition,
    build_G_commutant,
    build_H_commutant,
    combined_class_operator,
    irreducibility_index,
    reduce_corep,
    torsion_number,
)
from .kp import (
    KpModel,
    ProbeRepAction,
    build_gamma_matrices,
    covariant_tuple_basis,
    dispersion_order,
    dual_rep,
    linear_multiplicity,
    multiplicity_value,
    polynomial_channel,
    probe_stability,
    tuple_span_residual,
    validate_action,
)
from .catalog import CatalogEntry, catalog_get, catalog_list

__version__ = "0.1.0"
