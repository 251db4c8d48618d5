"""Exact computation of gradient-map degrees, Milnor numbers and monodromy
characteristic divisors of projective hypersurfaces."""

from .groebner import (
    GREVLEX,
    LEX,
    Caps,
    Ideal,
    StaircaseReport,
    TermOrder,
    buchberger,
    ideal_quotient,
    normal_form,
    projective_dim,
    quotient_vs_dim,
    saturate,
    saturate_ideal,
    staircase,
    zero_dim_degree_projective,
)
from .hypersurface import (
    AffineModel,
    SingularityRecord,
    generic_frame,
    has_isolated_singularities,
    jacobian_ideal,
    local_milnor_number,
    mu_summary,
    rational_singular_points,
    tame_split,
)
from .monodromy import (
    CycDivisor,
    bp_charpoly,
    charpoly_product,
    divisor_degree,
    divisor_mul,
    fermat_charpoly,
    fermat_mult_reference,
    mu0_from_charpoly,
    mult_at_order,
    primitive_betti,
    wh_charpoly,
)
from .parser import parse_poly
from .polar import (
    PolarDegreeResult,
    check_multiplicity_inequality,
    check_polar_degree_lower_bound,
    check_surface_criterion,
    conjecture_verdict,
    is_homaloidal,
    polar_degree_fiber_oracle,
    polar_degree_formula,
    polar_degree_tame,
)
from .poly import (
    Poly,
    ProjectivePoint,
    Reducedness,
    dehomogenize,
    gradient,
    homogeneous_degree,
    poly_text,
    squarefree_probe,
    substitute_linear,
)
from .report import AnalysisOptions, AnalysisReport, analyze_polynomial

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
