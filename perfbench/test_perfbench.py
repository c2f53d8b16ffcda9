"""Tests of the benchmark's own code: span arithmetic, wrapping, output checks."""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, aggregate, self_times_ns, under  # noqa: E402


def _span(name, parent, start, end, instr=0):
    s = Span(name, parent, start)
    s.end = end
    s.instr_ns = instr
    return s


def test_self_time_subtracts_direct_children_and_their_instrumentation():
    spans = [
        _span("outer", -1, 0, 100),
        _span("mid", 0, 10, 60, instr=5),
        _span("leaf", 1, 20, 30),
        _span("leaf", 1, 35, 45),
        _span("mid", 0, 70, 90),
    ]
    assert self_times_ns(spans) == [100 - 55 - 20, 50 - 20, 10, 10, 20]
    agg = aggregate(spans)
    assert agg["leaf"]["calls"] == 2
    assert agg["mid"]["s"] == pytest.approx(70e-9)
    assert agg["mid"]["self_s"] == pytest.approx(50e-9)
    assert under(spans, "mid") == [2, 3]


def _fake_package():
    """fakepkg.core defines work(); fakepkg.user imported it by name."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        return x + 1

    def work(x):
        return core.leaf(x) * 2

    class Thing:
        def act(self):
            return user.work(1)

    core.leaf, core.work, core.Thing = leaf, work, Thing
    user.work = work
    return {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}


def test_wrappers_trace_by_name_imports_nest_and_restore(monkeypatch):
    mods = _fake_package()
    for key, m in mods.items():
        monkeypatch.setitem(sys.modules, key, m)
    core, user = mods["fakepkg.core"], mods["fakepkg.user"]
    originals = (core.leaf, core.work, user.work, core.Thing.__dict__["act"])

    with Recorder(package="fakepkg") as rec:
        rec.wrap_function(core, "leaf", "core.leaf", lambda args, result: {"max_out": result, "n": 1})
        rec.wrap_function(core, "work", "core.work")
        rec.wrap_method(core.Thing, "act", "Thing.act")
        assert user.work is not originals[2]
        assert core.Thing().act() == 4
        assert user.work(2) == 6

    assert (core.leaf, core.work, user.work, core.Thing.__dict__["act"]) == originals
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("Thing.act", -1), ("core.work", 0), ("core.leaf", 1), ("core.work", -1), ("core.leaf", 3)]
    agg = aggregate(rec.spans)
    assert agg["core.leaf"]["max_out"] == 3 and agg["core.leaf"]["n"] == 2
    assert core.Thing().act() == 4 and len(rec.spans) == 5  # restored: nothing recorded


def test_wrapping_a_missing_function_fails_loudly(monkeypatch):
    mods = _fake_package()
    for key, m in mods.items():
        monkeypatch.setitem(sys.modules, key, m)
    with Recorder(package="fakepkg") as rec:
        with pytest.raises(AttributeError):
            rec.wrap_function(mods["fakepkg.core"], "renamed", "core.renamed")
        with pytest.raises(AttributeError):
            rec.wrap_method(mods["fakepkg.core"].Thing, "renamed", "Thing.renamed")


def test_a_raising_call_marks_its_span_failed(monkeypatch):
    mods = _fake_package()
    for key, m in mods.items():
        monkeypatch.setitem(sys.modules, key, m)
    with Recorder(package="fakepkg") as rec:
        rec.wrap_function(mods["fakepkg.core"], "leaf", "core.leaf")
        with pytest.raises(TypeError):
            mods["fakepkg.core"].leaf(None)
    assert aggregate(rec.spans)["core.leaf"]["failed"] == 1


def _bindings():
    from superalg import algebra, cohomology, grassmann, linalg, polyvf

    classes = (linalg.SpanSolver, polyvf.VectorField, cohomology.DegreeCohomology,
               algebra.LieSuperAlgebra, grassmann.CanonicalIso)
    found = {
        (cls.__qualname__, name): id(value) for cls in classes for name, value in vars(cls).items()
    }
    for key, mod in list(sys.modules.items()):
        if mod is not None and key.startswith("superalg"):
            found.update({(key, name): id(value) for name, value in vars(mod).items()})
    return found


def test_instrument_restores_every_package_binding():
    before = _bindings()
    with Recorder() as rec:
        layers.instrument(rec)
        assert _bindings() != before
    assert _bindings() == before


def _m11_report():
    from superalg import cohomology, contact

    return cohomology.h2_by_degree(contact.pericontact_algebra(1, 2), workloads.H2_DEGREES)


def test_checker_accepts_pinned_output_and_flags_a_perturbed_one():
    expected = {"m(1|1)": workloads.H2_SWEEP_EXPECTED["m(1|1)"]}
    report = _m11_report()
    ok = [workloads.Outcome("m(1|1)", "h2", report, None)]
    assert workloads.check(ok, expected) == (0, [])

    perturbed = json.loads(json.dumps(report))
    perturbed["degrees"]["2"]["dim_Z2"] += 1
    failed, wrong = workloads.check([workloads.Outcome("m(1|1)", "h2", perturbed, None)], expected)
    assert failed == 1 and wrong[0]["label"] == "m(1|1)"
    assert wrong[0]["got"]["dims"] == [0, 0, 0]  # same dims, caught by the digest


def test_checker_counts_raises_and_missing_operations_as_failed():
    expected = {"a": 0, "b": 0, "c": True}
    outcomes = [
        workloads.Outcome("a", "nijenhuis", 0, None),
        workloads.Outcome("b", "nijenhuis", None, "ValueError: boom"),
    ]
    assert workloads.check(outcomes, expected) == (2, [])
    failed, wrong = workloads.check([workloads.Outcome("a", "nijenhuis", 3, None)], expected)
    assert failed == 3 and wrong == [{"label": "a", "got": 3, "expected": 0}]


def test_coverage_check_names_a_silent_or_busy_layer():
    zero = {name: 0 for name in layers.UNITS}
    problems = layers.check_coverage("mink2_prolong", zero)
    assert any("linalg.rref_rows.calls" in p for p in problems)
    busy = dict(zero, **{name: 1 for name in layers.COVERAGE["h2_sweep"][0]})
    assert layers.check_coverage("h2_sweep", busy) == []
    busy["polyvf.bracket.calls"] = 7
    assert layers.check_coverage("h2_sweep", busy) == ["polyvf.bracket.calls is 7 on h2_sweep, expected 0"]


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert set(layers.COVERAGE) == set(run.NAMES)
