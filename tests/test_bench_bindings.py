"""The names the benchmark harness in ``perfbench/`` binds still exist.

perfbench wraps package functions by module and attribute name, imports
package names in its job module and passes command-line flags, so a change
to the API that breaks one of them would otherwise show only when the
benchmark runs.  These tests read ``perfbench/`` and change nothing there.
"""
import importlib
import importlib.util
from pathlib import Path

import zmcgraph
from zmcgraph import catalog
from zmcgraph.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    """perfbench/<name>.py, imported under a name of its own."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    targets = load("spans").TARGETS
    assert targets
    for _, modname, path, _ in targets:
        obj = importlib.import_module(modname)
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{modname}.{path}"
    # the tracer also wraps these by name
    assert callable(importlib.import_module("zmcgraph.poly").RationalPoly.__call__)
    assert callable(importlib.import_module("zmcgraph.mesh").build_grid_mesh)
    assert all(callable(e.jet) for e in catalog._ENTRIES.values())


def test_jobs_module_imports():
    assert load("jobs").POOLS


def test_no_exact_still_parses():
    args = build_parser().parse_args(["classify", "--coeffs", "s.json", "--no-exact"])
    assert args.exact is False


def test_public_api():
    assert zmcgraph.__all__ == [
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
    for name in zmcgraph.__all__:
        assert hasattr(zmcgraph, name), name
