"""vandcond: conditioning laboratory for Vandermonde, Cauchy, and CV matrices."""

__version__ = "0.1.0"

from .knotgen import (KnotVector, dft_plus_outlier, quasi_cyclic, read_knots,
                      roots_of_unity, scaled_cluster, single_outlier,
                      van_der_corput, write_knots)
from .structmat import (DenseMatrix, cauchy, cv_matrix, dft, leading_block,
                        vandermonde)
from .cauchyinv import (InverseVariant, cauchy_inverse, cv_inverse,
                        vandermonde_inverse_lagrange,
                        vandermonde_inverse_via_cv)
from .spectral import (GenpStats, SpectrumSummary, genp_residual_experiment,
                       genp_solve, max_abs_on_circle, poly_from_roots,
                       singular_values, top_singular_value)
from .bounds import (BoundReport, SeparationCertificate, arc_certificate,
                     best_arc_search, bound_arc, bound_circle_value,
                     bound_cluster, bound_coeff_norm, bound_cv,
                     bound_dft_block, bound_easy, bound_quasi_cyclic,
                     bound_refined_norm, evaluators)
from .tables import ExperimentTable, emit, run_table, table_from_json

__all__ = [
    "__version__",
    "KnotVector", "roots_of_unity", "quasi_cyclic",
    "van_der_corput", "single_outlier", "dft_plus_outlier", "scaled_cluster",
    "read_knots", "write_knots",
    "DenseMatrix", "vandermonde", "dft", "cauchy", "cv_matrix",
    "leading_block",
    "InverseVariant", "cauchy_inverse", "cv_inverse",
    "vandermonde_inverse_via_cv", "vandermonde_inverse_lagrange",
    "SpectrumSummary", "GenpStats", "singular_values", "top_singular_value",
    "poly_from_roots", "max_abs_on_circle", "genp_solve",
    "genp_residual_experiment",
    "BoundReport", "SeparationCertificate", "bound_easy", "bound_cluster",
    "bound_refined_norm", "bound_cv", "bound_circle_value",
    "bound_coeff_norm", "bound_quasi_cyclic", "bound_dft_block",
    "arc_certificate", "bound_arc", "best_arc_search", "evaluators",
    "ExperimentTable", "run_table", "emit", "table_from_json",
]
