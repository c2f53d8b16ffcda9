"""Which public calls of each layer the traced run wraps, and what it reports.

Layers are the modules of `superalg`.  `instrument` installs the wrappers on a
Recorder; `per_layer_metrics` turns the aggregated spans of one traced set-up
and one traced pass into the per-layer metrics; `check_coverage` fails when a
layer that a workload is meant to exercise recorded no calls, or when a layer
that must stay idle recorded some.
"""

from __future__ import annotations

from spans import under


def _bits(x):
    re = getattr(x, "re", None)
    if re is not None:
        return max(_bits(re), _bits(x.im))
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _rref_attrs(args, result):
    rows, cols = args[0], args[1]
    _, rref = result
    return {
        "cells": len(rows) * cols,
        "nnz_in": sum(len(r) for r in rows),
        "max_bits": max((_bits(v) for r in rref for v in r.values()), default=0),
    }


def _matrix_nnz(args, result):
    return {"nnz": result.nnz()}


def _cohomology_sizes(args, result):
    deg = args[0]
    return {"c2_dim": sum(len(b.c2basis) for b in deg.blocks), "blocks": len(deg.blocks)}


def instrument(rec):
    """Wrap the public calls named in the per-layer metrics on rec."""
    from superalg import algebra, cohomology, contact, grassmann, linalg, nijenhuis, polyvf, prolong

    rec.wrap_function(linalg, "rref_rows", "linalg.rref_rows", _rref_attrs)
    rec.wrap_function(linalg, "kernel_basis", "linalg.kernel_basis")
    rec.wrap_function(linalg, "row_space_basis", "linalg.row_space_basis")
    rec.wrap_method(linalg.SpanSolver, "__init__", "linalg.SpanSolver.build")
    rec.wrap_method(linalg.SpanSolver, "reduce", "linalg.SpanSolver.reduce")
    rec.wrap_method(polyvf.VectorField, "bracket", "polyvf.bracket")
    rec.wrap_function(prolong, "prolong", "prolong.prolong")
    rec.wrap_function(prolong, "realize_negative", "prolong.realize")
    rec.wrap_function(prolong, "realize_degree_zero", "prolong.realize")
    rec.wrap_function(cohomology, "h2_by_degree", "cohomology.h2_by_degree")
    rec.wrap_method(cohomology.DegreeCohomology, "__init__", "cohomology.DegreeCohomology", _cohomology_sizes)
    rec.wrap_function(cohomology, "differential_matrix", "cohomology.differential_matrix", _matrix_nnz)
    rec.wrap_method(algebra.LieSuperAlgebra, "check_super_jacobi", "algebra.check_super_jacobi")
    rec.wrap_method(grassmann.CanonicalIso, "check", "grassmann.CanonicalIso.check")
    rec.wrap_function(grassmann, "normalize_generators", "grassmann.normalize_generators")
    rec.wrap_function(grassmann, "real_form_basis", "grassmann.real_form_basis")
    rec.wrap_function(nijenhuis, "nijenhuis_tensor", "nijenhuis.nijenhuis_tensor")
    rec.wrap_function(contact, "contact_algebra", "contact.contact_algebra")
    rec.wrap_function(contact, "pericontact_algebra", "contact.pericontact_algebra")


# The benchmark's own span around each flat Nijenhuis check.
NIJENHUIS_OP = "op.nijenhuis"

# (metric, unit, span, field) measured over one traced pass.
PASS_METRICS = [
    ("linalg.rref_rows.calls", "count", "linalg.rref_rows", "calls"),
    ("linalg.rref_rows.self_s", "s", "linalg.rref_rows", "self_s"),
    ("linalg.rref_rows.cells", "count", "linalg.rref_rows", "cells"),
    ("linalg.rref_rows.nnz_in", "count", "linalg.rref_rows", "nnz_in"),
    ("linalg.rref_rows.max_bits", "bits", "linalg.rref_rows", "max_bits"),
    ("linalg.SpanSolver.reduce.calls", "count", "linalg.SpanSolver.reduce", "calls"),
    ("linalg.SpanSolver.reduce.self_s", "s", "linalg.SpanSolver.reduce", "self_s"),
    ("linalg.SpanSolver.build.calls", "count", "linalg.SpanSolver.build", "calls"),
    ("linalg.SpanSolver.build.s", "s", "linalg.SpanSolver.build", "s"),
    ("linalg.kernel_basis.calls", "count", "linalg.kernel_basis", "calls"),
    ("linalg.kernel_basis.s", "s", "linalg.kernel_basis", "s"),
    ("linalg.row_space_basis.calls", "count", "linalg.row_space_basis", "calls"),
    ("linalg.row_space_basis.self_s", "s", "linalg.row_space_basis", "self_s"),
    ("polyvf.bracket.calls", "count", "polyvf.bracket", "calls"),
    ("polyvf.bracket.self_s", "s", "polyvf.bracket", "self_s"),
    ("prolong.prolong.calls", "count", "prolong.prolong", "calls"),
    ("prolong.prolong.s", "s", "prolong.prolong", "s"),
    ("prolong.prolong.self_s", "s", "prolong.prolong", "self_s"),
    ("prolong.realize.s", "s", "prolong.realize", "s"),
    ("cohomology.h2_by_degree.s", "s", "cohomology.h2_by_degree", "s"),
    ("cohomology.DegreeCohomology.calls", "count", "cohomology.DegreeCohomology", "calls"),
    ("cohomology.DegreeCohomology.s", "s", "cohomology.DegreeCohomology", "s"),
    ("cohomology.DegreeCohomology.self_s", "s", "cohomology.DegreeCohomology", "self_s"),
    ("cohomology.differential_matrix.calls", "count", "cohomology.differential_matrix", "calls"),
    ("cohomology.differential_matrix.self_s", "s", "cohomology.differential_matrix", "self_s"),
    ("cohomology.differential_matrix.nnz", "count", "cohomology.differential_matrix", "nnz"),
    ("cohomology.c2_dim", "count", "cohomology.DegreeCohomology", "c2_dim"),
    ("cohomology.blocks", "count", "cohomology.DegreeCohomology", "blocks"),
    ("algebra.check_super_jacobi.calls", "count", "algebra.check_super_jacobi", "calls"),
    ("algebra.check_super_jacobi.s", "s", "algebra.check_super_jacobi", "s"),
    ("grassmann.CanonicalIso.check.s", "s", "grassmann.CanonicalIso.check", "s"),
    ("grassmann.normalize_generators.calls", "count", "grassmann.normalize_generators", "calls"),
    ("grassmann.normalize_generators.s", "s", "grassmann.normalize_generators", "s"),
    ("grassmann.normalize_generators.failed", "count", "grassmann.normalize_generators", "failed"),
    ("grassmann.real_form_basis.s", "s", "grassmann.real_form_basis", "s"),
    ("nijenhuis.nijenhuis_tensor.calls", "count", "nijenhuis.nijenhuis_tensor", "calls"),
    ("nijenhuis.nijenhuis_tensor.self_s", "s", "nijenhuis.nijenhuis_tensor", "self_s"),
]

# Measured over one traced set-up; these move setup_s.
SETUP_METRICS = [
    ("setup.contact.contact_algebra.s", "s", "contact.contact_algebra", "s"),
    ("setup.contact.pericontact_algebra.s", "s", "contact.pericontact_algebra", "s"),
    ("setup.prolong.prolong.calls", "count", "prolong.prolong", "calls"),
    ("setup.prolong.prolong.s", "s", "prolong.prolong", "s"),
    ("setup.prolong.realize.s", "s", "prolong.realize", "s"),
    ("setup.polyvf.bracket.calls", "count", "polyvf.bracket", "calls"),
    ("setup.linalg.rref_rows.self_s", "s", "linalg.rref_rows", "self_s"),
]

# Computed from whole spans rather than one (span, field) pair.
DERIVED_METRICS = [
    ("cohomology.report_s", "s"),
    ("nijenhuis.linalg_calls", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]

UNITS = {
    name: unit
    for name, unit, *_ in PASS_METRICS + SETUP_METRICS + DERIVED_METRICS
}


def per_layer_metrics(setup_agg, pass_agg, pass_spans):
    """Per-layer values of one traced set-up and one traced pass (no trace.*)."""
    out = {}
    for table, agg in ((PASS_METRICS, pass_agg), (SETUP_METRICS, setup_agg)):
        for name, _, span, field in table:
            out[name] = agg.get(span, {}).get(field, 0)
    out["cohomology.report_s"] = out["cohomology.h2_by_degree.s"] - out["cohomology.DegreeCohomology.s"]
    out["nijenhuis.linalg_calls"] = sum(
        1 for k in under(pass_spans, NIJENHUIS_OP) if pass_spans[k].name.startswith("linalg.")
    )
    return out


# Per workload: metrics that must be nonzero, and metrics that must be zero.
COVERAGE = {
    "mink2_prolong": (
        [
            "linalg.rref_rows.calls",
            "linalg.SpanSolver.reduce.calls",
            "linalg.SpanSolver.build.calls",
            "linalg.kernel_basis.calls",
            "linalg.row_space_basis.calls",
            "polyvf.bracket.calls",
            "prolong.prolong.calls",
            "prolong.realize.s",
            "cohomology.h2_by_degree.s",
            "cohomology.DegreeCohomology.calls",
            "cohomology.differential_matrix.calls",
            "algebra.check_super_jacobi.calls",
        ],
        [],
    ),
    "h2_sweep": (
        [
            "linalg.rref_rows.calls",
            "cohomology.h2_by_degree.s",
            "cohomology.DegreeCohomology.calls",
            "cohomology.differential_matrix.calls",
            "setup.prolong.prolong.calls",
            "setup.prolong.realize.s",
            "setup.contact.contact_algebra.s",
            "setup.contact.pericontact_algebra.s",
        ],
        ["polyvf.bracket.calls"],
    ),
    "real_structures": (
        [
            "linalg.SpanSolver.reduce.calls",
            "linalg.SpanSolver.build.calls",
            "linalg.kernel_basis.calls",
            "linalg.row_space_basis.calls",
            "polyvf.bracket.calls",
            "grassmann.CanonicalIso.check.s",
            "grassmann.normalize_generators.calls",
            "grassmann.real_form_basis.s",
            "nijenhuis.nijenhuis_tensor.calls",
        ],
        ["nijenhuis.linalg_calls"],
    ),
}


def check_coverage(workload, metrics):
    """Messages for every coverage expectation the traced metrics break."""
    nonzero, zero = COVERAGE[workload]
    problems = [f"{m} is 0 on {workload}; the layer escaped the trace" for m in nonzero if not metrics[m]]
    problems += [f"{m} is {metrics[m]} on {workload}, expected 0" for m in zero if metrics[m]]
    return problems
