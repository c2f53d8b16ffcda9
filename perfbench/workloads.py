"""The benchmark's workloads: inputs from a seed, one timed pass, pinned outputs.

Every workload is a closed loop in one thread: each operation starts when the
previous one has returned.  `setup(seed)` builds the inputs and the pinned
expectation of every operation; `run_pass(inputs, rec)` performs the
operations once and returns one Outcome per operation.  Outcomes are checked
after the pass, outside the timed region, by `check`.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import NamedTuple

# Calls go through the modules, never through names imported from them, so
# that the traced run's wrappers see every call the benchmark makes.
from superalg import algebra, cohomology, constructors, contact, grassmann, nijenhuis, prolong
from superalg.scalars import FIELD_QI

H2_DEGREES = (1, 2, 3)


class Outcome(NamedTuple):
    label: str
    kind: str
    value: object
    error: str | None


class Inputs(NamedTuple):
    data: object
    expected: dict  # label -> pinned summary of that operation's output


def attempt(rec, outcomes, kind, label, fn):
    """Run one operation inside a benchmark span; a raise is recorded, not fatal."""
    with rec.span("op." + kind):
        try:
            value = fn()
        except Exception as exc:  # a failed operation is counted, the run goes on
            outcomes.append(Outcome(label, kind, None, f"{type(exc).__name__}: {exc}"))
            return None
    outcomes.append(Outcome(label, kind, value, None))
    return value


def report_digest(report):
    """SHA-256 of the canonical JSON form of an h2_by_degree report."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()


def _h2_summary(report):
    return {"dims": [report["h2_dims"][str(d)] for d in H2_DEGREES], "sha256": report_digest(report)}


SUMMARY = {
    "prolong": lambda res: res.component_dims(),
    "h2": _h2_summary,
    "jacobi": len,  # number of violated triples
    "grassmann": bool,  # CanonicalIso.check()
    "nijenhuis": int,  # number of nonzero tensors
}


def check(outcomes, expected):
    """(failed, wrong): failed counts raises, mismatches and missing operations."""
    wrong = []
    raised = 0
    for o in outcomes:
        if o.error is not None:
            raised += 1
            continue
        got = SUMMARY[o.kind](o.value)
        if got != expected[o.label]:
            wrong.append({"label": o.label, "got": got, "expected": expected[o.label]})
    missing = len(set(expected) - {o.label for o in outcomes})
    return raised + len(wrong) + missing, wrong


# -- mink2_prolong -------------------------------------------------------------

MINK2_EXPECTED = {
    "prolong": {-2: 4, -1: 8, 0: 11, 1: 8, 2: 4},
    "h2": {"dims": [0, 6, 0], "sha256": "d5e2f764a3cac5bf1aea382938307dabaa1bd3953b6a4cf0e1d46e9a4d2426e7"},
    "jacobi": 0,
}


def mink2_setup(seed):
    return Inputs(constructors.build_minkowski_g0(2, "conformal"), MINK2_EXPECTED)


def mink2_pass(inputs, rec):
    out = []
    res = attempt(rec, out, "prolong", "prolong", lambda: prolong.prolong_nonpositive(inputs.data, 2))
    if res is None:
        for kind in ("h2", "jacobi"):
            out.append(Outcome(kind, kind, None, "skipped: prolongation failed"))
        return out
    attempt(rec, out, "h2", "h2", lambda: cohomology.h2_by_degree(res.algebra, H2_DEGREES))
    attempt(rec, out, "jacobi", "jacobi", res.algebra.check_super_jacobi)
    return out


# -- h2_sweep ------------------------------------------------------------------

H2_SWEEP_EXPECTED = {
    "mink2^C": {"dims": [0, 6, 0], "sha256": "d67b27574f675d35da53e8fddb550f89986900457f4b420500d3a5f90cd44c15"},
    "mink1^C": {"dims": [0, 0, 8], "sha256": "143b96d03bc2b0eec308bb4a44cd21a8a1dbd65584ecc487234057d817bf1177"},
    "mink1-reduced": {"dims": [4, 6, 8], "sha256": "77d3767ee941e9a2e1e3823ffeb9a97e2b8907e61b2ff29e9a38833014baaa23"},
    "mink1-conformal": {"dims": [0, 0, 8], "sha256": "f40b85fa744f0a0976f000c80d0c6405b66d5b66cfdc04f4ad6f9adf447cca9a"},
    "k(1|2)^R": {"dims": [0, 0, 0], "sha256": "468853083bacc5d00f523c26c264dbd95f4d80be354e6525c732c85bca85dfd9"},
    "k(3|2)": {"dims": [0, 0, 0], "sha256": "a10e1d9e9c7004cffbe748f302af0e729a32eca82466949c31a197b99f226878"},
    "m(1|1)": {"dims": [0, 0, 0], "sha256": "8c75441ecb2cf4739404ff346312c616ff0830c13431f1f7d464c90a79b48d74"},
}


def h2_sweep_setup(seed):
    algebras = [
        ("mink2^C", constructors.build_complexified_minkowski(2)),
        ("mink1^C", constructors.build_complexified_minkowski(1)),
        ("mink1-reduced", prolong.prolong_nonpositive(constructors.build_minkowski_g0(1, "reduced"), 2).algebra),
        ("mink1-conformal", prolong.prolong_nonpositive(constructors.build_minkowski_g0(1, "conformal"), 2).algebra),
        ("k(1|2)^R", algebra.realify(contact.contact_algebra(0, 2, 2, field=FIELD_QI))),
        ("k(3|2)", contact.contact_algebra(1, 2, 3)),
        ("m(1|1)", contact.pericontact_algebra(1, 2)),
    ]
    return Inputs(algebras, H2_SWEEP_EXPECTED)


def h2_sweep_pass(inputs, rec):
    out = []
    for label, g in inputs.data:
        attempt(rec, out, "h2", label, lambda: cohomology.h2_by_degree(g, H2_DEGREES))
    return out


# -- real_structures -----------------------------------------------------------

GRASSMANN_NS = (1, 2, 3, 4)
STRUCTURES_PER_N = 3


def real_structures_setup(seed):
    rng = random.Random(seed)
    structures = [
        (f"grassmann n={n} #{k}", n, rng.getrandbits(64))
        for n in GRASSMANN_NS
        for k in range(STRUCTURES_PER_N)
    ]
    flat = []
    for label, J, variant in (
        ("nijenhuis R^{2|0}", nijenhuis.standard_even_structure(1, 0), "even"),
        ("nijenhuis R^{2|2}", nijenhuis.standard_even_structure(1, 1), "even"),
        ("nijenhuis R^{1|1} J^2=-1", nijenhuis.standard_odd_structure(1, -1), "odd"),
        ("nijenhuis R^{1|1} J^2=+1", nijenhuis.standard_odd_structure(1, 1), "odd"),
    ):
        flat.append((label, J, variant, nijenhuis.monomial_fields_up_to(J.coords, 2)))
    expected = {label: True for label, _, _ in structures}
    expected.update({label: 0 for label, *_ in flat})
    return Inputs((structures, flat), expected)


def _normalize_and_check(n, structure_seed):
    rho, _ = grassmann.random_real_structure(n, random.Random(structure_seed))
    return grassmann.CanonicalIso(rho, grassmann.normalize_generators(rho)).check()


def _nonzero_tensors(J, variant, fields):
    return sum(1 for X in fields for Y in fields if nijenhuis.nijenhuis_tensor(J, X, Y, variant))


def real_structures_pass(inputs, rec):
    structures, flat = inputs.data
    out = []
    for label, n, structure_seed in structures:
        attempt(rec, out, "grassmann", label, lambda: _normalize_and_check(n, structure_seed))
    for label, J, variant, fields in flat:
        attempt(rec, out, "nijenhuis", label, lambda: _nonzero_tensors(J, variant, fields))
    return out


class Workload(NamedTuple):
    setup: object
    run_pass: object


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "mink2_prolong": Workload(mink2_setup, mink2_pass),
    "h2_sweep": Workload(h2_sweep_setup, h2_sweep_pass),
    "real_structures": Workload(real_structures_setup, real_structures_pass),
}
