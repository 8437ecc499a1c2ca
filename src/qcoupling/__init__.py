"""qcoupling: q-special functions and recoupling-coefficient verification.

Layers, bottom up: qcore (q-arithmetic and truncated summation), qfunctions
(Wall polynomials and third Jackson q-Bessel), representation (generators
as band maps on a truncated space, coupled vectors and the inner-product
oracle), coupling (closed forms and the summation identities), multivariate
(chain recoupling coefficients and multivariate q-Bessel), askey_wilson
(polynomials and the lattice limit), verifier (campaign engine; ``qcoupling``
CLI).
"""

from .qcore import QContext, SeriesResult, TruncationPolicy, bilateral_sum, qpoch_finite, qpoch_infinite, rphis
from .qfunctions import (WallParams, genfun_check, qbessel, qbessel_lattice, wall_genfun_check,
                         wall_orthonormal_run, wall_poly, wall_poly_alt)
from .representation import (CoupledVector, TruncatedFock, cg_coefficient, check_defining_relations,
                             coupled_vector, generator_band, sixj_oracle)
from .coupling import (cg_contraction_residual, qhankel_factorization_residual,
                       qhankel_transform, recoupling_R, sixj_closed, verify_backcoupling,
                       verify_biedenharn_elliott, verify_hexagon, yang_baxter_residual,
                       yang_baxter_unitarity_defect)
from .multivariate import (MultiBesselParams, ThreeNJParams, cg_expansion_residual, hat,
                           multi_be_stated_form_residual, multi_cg, multi_qbessel,
                           multi_orthogonality_residual, multivariate_be_cross_check,
                           s_lemma_residual, threenj_R, threenj_S, threenj_corollary_gap,
                           verify_S_composition, verify_multivariate_BE)
from .askey_wilson import AWParams, LimitSchedule, MultiAWParams, aw_poly, limit_check, multi_aw
from .verifier import CampaignPlan, CaseResult, eval_single, run_campaign

__version__ = "0.1.0"
