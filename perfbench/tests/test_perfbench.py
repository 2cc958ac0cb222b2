"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PRIME = workloads.PRIME


def bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *map(str, args)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    info = dict(line.split(": ", 1) for line in lines if ": " in line and not line.startswith("{"))
    return info, json.loads(lines[-1])


# -- the benchmark's definition ------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert spec["paths"] == [BENCH.name]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.LAYER_METRICS
    ]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }


def test_every_draw_covers_what_its_workload_promises():
    import permahank

    grid = set(permahank.default_grid())
    for seed in range(200):
        shapes = workloads.Verify.draw(random.Random(seed))
        assert {workloads.family(*s) for s in shapes} == {"2xn", "3x3", "3x4_4x4", "general"}
        assert all(s in grid for s in shapes)
        for cls in (workloads.Verify, workloads.Decompose):
            embedded = {s not in workloads.NON_EMBEDDED for s in cls.draw(random.Random(seed))}
            assert embedded == {True, False}
        shapes = workloads.Decompose.draw(random.Random(seed))
        assert sum(s not in grid for s in shapes) == 1


# -- an outside oracle ------------------------------------------------------------


def smallest_shapes():
    """The smallest shape of every level that opens a workload's draw."""
    return sorted({min(cls.LEVELS[0]) for cls in workloads.WORKLOADS.values()}
                  | set(workloads.Queries.LEVELS[0]))


@pytest.mark.parametrize("char", [0, PRIME])
@pytest.mark.parametrize("shape", smallest_shapes())
def test_reduced_lex_bases_agree_with_sympy(shape, char):
    sympy = pytest.importorskip("sympy")
    import permahank

    M = permahank.HankelMatrix(*shape, char)
    gens = permahank.permanent_generators(M)
    ours = permahank.Ideal(M.ring, gens).reduced_basis()
    xs = sympy.symbols(f"x1:{M.ring.nvars + 1}")
    exprs = [sympy.sympify(g.format().replace("^", "**"), locals=dict(zip(map(str, xs), xs)))
             for g in gens]
    opts = {"modulus": char} if char else {}
    theirs = sympy.groebner(exprs, *xs, order="lex", **opts)

    def monic(terms):
        # (exponents, coefficient) pairs, lex-largest first, made monic
        terms = sorted(((e, Fraction(str(c))) for e, c in terms), reverse=True)
        lead = terms[0][1]
        if char:
            inv = pow(int(lead) % char, -1, char)
            return sorted((e, int(c) * inv % char) for e, c in terms)
        return sorted((e, c / lead) for e, c in terms)

    want = sorted(monic(p.terms()) for p in theirs.polys)
    got = sorted(monic([(e, c) for c, e in g.terms()]) for g in ours)
    assert got == want


# -- tracing ------------------------------------------------------------------------


def namespace_snapshot(pkg):
    snap = {}
    for suffix in tracing.MODULES:
        mod = sys.modules[pkg.__name__ + suffix]
        for attr, value in vars(mod).items():
            snap[mod.__name__, attr] = value
            if isinstance(value, type) and value.__module__.startswith(pkg.__name__):
                for cattr, cvalue in vars(value).items():
                    snap[mod.__name__, attr, cattr] = cvalue
    return snap


def test_tracer_wraps_every_binding_and_restores_every_original():
    pkg = run.import_fresh()
    before = namespace_snapshot(pkg)
    with tracing.Tracer(pkg) as tracer:
        assert pkg.ideal_ops.buchberger is pkg.groebner.buchberger
        assert pkg.ideal_ops.buchberger is not before["permahank.ideal_ops", "buchberger"]
        assert pkg.verify.colon is not before["permahank.verify", "colon"]
        assert pkg.verify.normal_form is not before["permahank.verify", "normal_form"]
        case = pkg.Case(2, 3, 0)
        pkg.decomposition_summary(case)
        spans = tracer.take()
    assert namespace_snapshot(pkg) == before
    names = {s[1] for s in spans}
    assert {"verify.decomposition_summary", "ideal_ops.saturate", "ideal_ops.colon",
            "ideal_ops.intersect", "groebner.buchberger", "ideal_ops.reduced_basis"} <= names
    metrics = tracing.pass_metrics(spans, spans[0][4] - spans[0][3])
    assert metrics["ideal_ops.saturate.calls"] == 2
    assert metrics["groebner.buchberger.ext_calls"] == metrics["ideal_ops.intersect.calls"]
    assert 0.99 < metrics["trace.accounted"] <= 1.0 + 1e-9


def test_self_times_partition_the_spans():
    spans = [
        [-1, "cli.main", "q", 0.0, 10.0, None],
        [0, "verify.gb", "q", 1.0, 9.0, None],
        [1, "groebner.buchberger", "q", 2.0, 5.0, (3, 4, False)],
        [1, "ideal_ops.reduced_basis", "q", 6.0, 7.0, None],
    ]
    m = tracing.pass_metrics(spans, 10.0)
    assert m["cli.self_s.q"] == 2.0
    assert m["verify.self_s.q"] == 4.0
    assert m["groebner.self_s.q"] == 3.0
    assert m["ideal_ops.self_s.q"] == 1.0
    assert m["ideal_ops.reduced_basis.hit_ratio"] == 1.0
    assert m["verify.gb.s.q"] == 8.0
    assert m["trace.accounted"] == 1.0


def test_segments_are_scaled_by_the_probes_on_either_side(monkeypatch):
    probes = iter([(0.004, 0.002), (0.006, 0.003), (0.002, 0.001)])
    monkeypatch.setattr(speed.SpeedProbe, "take", lambda self: next(probes))
    probe = speed.SpeedProbe()
    ref = speed.PROBE_REF
    assert probe.cut() == pytest.approx((ref / 0.005, ref / 0.0025))
    assert probe.cut() == pytest.approx((ref / 0.004, ref / 0.002))


# -- answer checks ----------------------------------------------------------------


def small(cls, units):
    wl = cls.__new__(cls)
    wl.ph = run.import_fresh()
    wl.units = units
    wl.shapes = sorted({u[2:] for u in units})
    return wl


def test_decompose_check_counts_a_wrong_classification():
    wl = small(workloads.Decompose, [("q", 0, 3, 4), ("gfp", PRIME, 3, 4)])
    outputs = wl.run_pass(lambda field=None: None, [])
    assert wl.check(outputs)[0] == 0
    case, summary, embedded = outputs[1]
    outputs[1] = (case, summary, not embedded)
    assert wl.check(outputs)[0] == 2  # wrong answer, and the fields disagree


def test_verify_check_counts_a_failed_claim():
    wl = small(workloads.Verify, [("q", 0, 2, 3), ("gfp", PRIME, 2, 3)])
    lat = []
    outputs = wl.run_pass(lambda field=None: None, lat)
    assert len(lat) == wl.items() == 12
    assert wl.check(outputs)[0] == 0
    code, text = outputs[0]
    reports = json.loads(text)
    reports[1]["status"] = "fail"
    outputs[0] = (1, json.dumps(reports))
    assert wl.check(outputs)[0] == 2  # the failed claim, and the fields disagree


def test_queries_check_counts_a_wrong_normal_form():
    wl = workloads.Queries(run.import_fresh(), 3)
    outputs = wl.run_pass(lambda field=None: None, [])
    assert wl.check(outputs)[0] == 0
    i = next(i for i, (tag, key, _) in enumerate(wl.units) if key[:2] == ("q", "nf_perm"))
    outputs[i] = outputs[i] + outputs[i]
    assert wl.check(outputs)[0] == 2  # wrong against the oracle, and against GF(p)


# -- whole runs -----------------------------------------------------------------------


def test_two_traced_runs_of_one_seed_agree_and_another_seed_differs():
    first_info, first = result_of(bench("--workload", "verify", "--seed", 7, "--seconds", 0, "--trace", 1))
    again_info, again = result_of(bench("--workload", "verify", "--seed", 7, "--seconds", 0, "--trace", 1))
    other_info, _ = result_of(bench("--workload", "verify", "--seed", 8, "--seconds", 0, "--trace", 0))
    assert first["correct"] and again["correct"] and first["failed"] == 0
    counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts
    assert {k: first["metrics"][k] for k in counts} == {k: again["metrics"][k] for k in counts}
    assert first_info["answers_sha256"] == again_info["answers_sha256"]
    assert first_info["answers_sha256"] != other_info["answers_sha256"]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
