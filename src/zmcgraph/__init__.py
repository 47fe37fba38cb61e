"""Zero-mean-curvature graphs in Lorentz-Minkowski 3-space with an entire null line.

Exact rational series construction of ZMC graphs through the light-like line
{(0, y, y)}, Lorentzian causal classification, convergence certificates with
directed rounding, a closed-form surface corpus, and mesh export.
"""

from .poly import RationalPoly
from .series import (
    GraphSeries,
    SeedCondition,
    SeriesCase,
    af_bf_exact,
    af_fd_exact,
    beta8_sign_note,
    causal_signs,
    homothety,
    pqr_terms,
    psi_eval_exact,
    psi_jet,
    residual_order_slope,
    series_from_expansion,
    series_from_json,
    series_from_recursion,
    series_to_json,
)
from .lorentz import (
    Causal,
    CausalVerdict,
    GraphJet,
    Jet2,
    Vec3M,
    classify,
    first_form,
    graph_af_bf,
    graph_to_parametric,
    minkowski_dot,
    null_line_check,
    zmc_residual,
)
from .bounds import (
    BoundCheck,
    ConvergenceCert,
    certificate,
    convexity_witness,
    tau_constant,
    u_halfwidth,
    u_membership,
    verify_growth_estimates,
)
from .catalog import SURFACE_NAMES, corpus_verify, entry, implicit_solve

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "Causal",
    "CausalVerdict",
    "ConvergenceCert",
    "GraphJet",
    "GraphSeries",
    "Jet2",
    "RationalPoly",
    "SURFACE_NAMES",
    "SeedCondition",
    "SeriesCase",
    "Vec3M",
    "af_bf_exact",
    "af_fd_exact",
    "beta8_sign_note",
    "causal_signs",
    "certificate",
    "classify",
    "convexity_witness",
    "corpus_verify",
    "entry",
    "first_form",
    "graph_af_bf",
    "graph_to_parametric",
    "homothety",
    "implicit_solve",
    "minkowski_dot",
    "null_line_check",
    "pqr_terms",
    "psi_eval_exact",
    "psi_jet",
    "residual_order_slope",
    "series_from_expansion",
    "series_from_json",
    "series_from_recursion",
    "series_to_json",
    "tau_constant",
    "u_halfwidth",
    "u_membership",
    "verify_growth_estimates",
    "zmc_residual",
]
