"""Desk-scale verification of Kodaira-Spencer constants for PEL moduli.

Two layers.  The local one works with exact monomials c*pi^v over a
finite field and pins down image-ideal exponents by Smith normal form;
the archimedean one builds period lattices from an order embedding and
a point of the relevant symmetric domain, solves for the connecting
morphism, and compares the two natural metrics.  `pelks run` drives
both from a JSON instance description.
"""

from pelks.checks import explain, run_checks
from pelks.config import (
    ConfigInvalid,
    InstanceConfig,
    config_digest,
    config_from_dict,
    load_config,
    with_overrides,
)
from pelks.cyclic_algebra import CyclicAlgebraDescriptor
from pelks.domains import (
    HermitianPoint,
    SiegelPoint,
    petersson_norm,
    random_point,
)
from pelks.kodaira_spencer import (
    SingularPairing,
    assemble_phi,
    cocycle_jacobian,
    metric_identity_check,
    numeric_cocycle_jacobian,
    psi_constant,
    solve_w_vectors,
)
from pelks.lattices import (
    NoSelfDualForm,
    OrderEmbedding,
    PeriodLattice,
    RankDeficient,
    RiemannForm,
    build_lattice,
    covolume_closed_form,
    dual_index_oracle,
    faltings_norm,
    polarization_degree,
    solve_self_dual_mu,
)
from pelks.pel_modules import (
    SignatureMismatch,
    global_rank_lemma,
    image_exponent,
    quotient_structure,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigInvalid",
    "CyclicAlgebraDescriptor",
    "HermitianPoint",
    "InstanceConfig",
    "NoSelfDualForm",
    "OrderEmbedding",
    "PeriodLattice",
    "RankDeficient",
    "RiemannForm",
    "SiegelPoint",
    "SignatureMismatch",
    "SingularPairing",
    "assemble_phi",
    "build_lattice",
    "cocycle_jacobian",
    "config_digest",
    "config_from_dict",
    "covolume_closed_form",
    "dual_index_oracle",
    "explain",
    "faltings_norm",
    "global_rank_lemma",
    "image_exponent",
    "load_config",
    "metric_identity_check",
    "numeric_cocycle_jacobian",
    "petersson_norm",
    "polarization_degree",
    "psi_constant",
    "quotient_structure",
    "random_point",
    "run_checks",
    "solve_self_dual_mu",
    "solve_w_vectors",
    "with_overrides",
]
