"""Benchmark of permahank's engine and verifier.

    python3 perfbench/run.py --workload verify|queries|decompose \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The run sets up its workload several times (a fresh
import of permahank, the seeded inputs and any warm-up) and reports the
median set-up time.  It then runs timed passes over the same inputs for
``--seconds`` seconds, and at least the workload's minimum number of
passes, checking every pass's answers before the next pass starts.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics, measured with nothing wrapped but the claim clock of the verify
workload.  With ``--trace 1`` passes alternate between untraced and traced,
and the last line carries the per-layer metrics of the traced passes plus
the tracing overhead against the untraced ones; the spans of every traced
pass are written to ``.bench_out/`` in the checkout.  Lines before the last
describe the run: interpreter, core count, seed, field prime, the drawn
inputs and a digest of the answers with the verifier's ``millis`` removed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter, process_time

from speed import SEGMENT, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def import_fresh():
    """Import permahank from the checkout's src, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "permahank" or k.startswith("permahank.")]:
        del sys.modules[name]
    import permahank
    import permahank.cli

    if Path(permahank.__file__).resolve().parent != SRC / "permahank":
        raise ImportError(f"permahank imported from {permahank.__file__}, not {SRC}")
    return permahank


def set_up(workload_cls, seed, probe):
    """(workload, median scaled set-up seconds, median unscaled) over SETUPS."""
    raw, scaled = [], []
    for _ in range(SETUPS):
        probe.cut()
        t0 = perf_counter()
        wl = workload_cls(import_fresh(), seed)
        raw.append(perf_counter() - t0)
        scaled.append(raw[-1] * probe.cut()[0])
    return wl, median(scaled), median(raw)


def percentile(values, pct):
    return quantiles(values, n=100, method="inclusive")[pct - 1]


def digest(canonical):
    text = json.dumps(canonical, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def timed_pass(wl, probe, tracer=None):
    """One pass, cut into probed segments.

    Returns the outputs and the pass's wall, CPU and item times, unscaled
    and scaled; none of the times include the probes.
    """
    run = {"wall": 0.0, "cpu": 0.0, "swall": 0.0, "scpu": 0.0, "lat": [], "slat": []}
    seg = {}

    def start():
        seg.update(wall=perf_counter(), cpu=process_time(), item=len(run["lat"]))

    def cut():
        wall, cpu = perf_counter() - seg["wall"], process_time() - seg["cpu"]
        ws, cs = probe.cut()
        run["wall"] += wall
        run["cpu"] += cpu
        run["swall"] += wall * ws
        run["scpu"] += cpu * cs
        run["slat"].extend(t * cs for t in run["lat"][seg["item"]:])

    def before_unit(field=None):
        if tracer is not None:
            if field is None:
                return  # a probe inside a unit would sit inside its spans
            tracer.field = field
        if perf_counter() - seg["wall"] >= SEGMENT:
            cut()
            start()

    probe.cut()
    start()
    run["outputs"] = wl.run_pass(before_unit, run["lat"])
    cut()
    return run


def measure(wl, seconds, trace, probe):
    """Timed passes, checked; returns (untraced passes, traced passes, failed, digests).

    A traced run alternates untraced and traced passes, starting untraced.
    """
    from tracing import Tracer, pass_metrics

    need = max(wl.min_passes, 4) if trace else wl.min_passes
    plain, traced = [], []
    failed = 0
    digests = set()
    spent = 0.0
    while len(plain) + len(traced) < need or spent < seconds:
        if trace and len(plain) > len(traced):
            with Tracer(wl.ph) as tracer:
                run = timed_pass(wl, probe, tracer)
            run["spans"] = tracer.take()
            run["layer"] = pass_metrics(run["spans"], run["wall"])
            traced.append(run)
        else:
            run = timed_pass(wl, probe)
            plain.append(run)
        spent += run["wall"]
        bad, canonical = wl.check(run.pop("outputs"))
        failed += bad
        digests.add(digest(canonical))
    return plain, traced, failed, digests


def end_to_end(wl, passes, setup_s, scaled=True):
    s = "s" if scaled else ""
    lat = [t for run in passes for t in run[s + "lat"]]
    return {
        "setup_s": setup_s,
        "wall_s": median(run[s + "wall"] for run in passes),
        "cpu_s": median(run[s + "cpu"] for run in passes),
        "item_p50_ms": 1e3 * median(lat),
        "item_tail_ms": 1e3 * percentile(lat, wl.tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "permahank" / "__init__.py").is_file():
        print(f"error: no permahank sources under {SRC}", file=sys.stderr)
        return 2
    if "PERMAHANK_MAX_ITERS" in os.environ:
        print("error: unset PERMAHANK_MAX_ITERS; it changes the work done", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import LAYER_METRICS, combine, write_spans
    from workloads import PRIME, WORKLOADS

    probe = SpeedProbe()
    wl, setup_s, raw_setup_s = set_up(WORKLOADS[args.workload], args.seed, probe)
    plain, traced, failed, digests = measure(wl, args.seconds, bool(args.trace), probe)
    attempted = wl.items() * (len(plain) + len(traced))
    correct = failed == 0 and len(digests) == 1
    if args.trace:
        values, repeat = combine(
            [run["layer"] for run in traced],
            [run["swall"] for run in traced],
            [run["swall"] for run in plain],
        )
        correct = correct and repeat
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        OUT.mkdir(exist_ok=True)
        write_spans(OUT / f"spans-{wl.name}-{args.seed}.jsonl", [run["spans"] for run in traced])
    else:
        values = end_to_end(wl, plain, setup_s)
        units = dict(END_TO_END)
    info = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "fields": ["Q", f"GF({PRIME})"],
        "loop": "closed, one caller, one process",
        "passes": len(plain) + len(traced),
        "traced_passes": len(traced),
        "items_per_pass": wl.items(),
        "pass_walls": [round(run["wall"], 4) for run in plain],
        "failed_frac": failed / attempted,
        "tail_percentile": wl.tail_pct,
        "answers_sha256": sorted(digests),
        **wl.describe(),
    }
    if not args.trace:
        unscaled = end_to_end(wl, plain, raw_setup_s, scaled=False)
        info["unscaled"] = {k: round(v, 6) for k, v in unscaled.items()}
    for key, value in info.items():
        print(f"{key}: {value}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
