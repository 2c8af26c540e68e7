#!/usr/bin/env python3
"""qubitdyn benchmark: three single-process workloads, normalised by a
calibration kernel.

Run from the repository root:

    python3 benchmarks/run_bench.py --workload reference --seed 1 --seconds 30 --trace 0

Workloads: reference, linear_crosscheck, dense_ascent (see README.md).
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics work_s, setup_s and peak_rss_mb; with --trace 1 it
carries the per-layer metrics instead, and the spans and per-unit counts
are written to .bench_runs/<workload>/trace-seed<n>.json.  Every unit's
outputs are checked against computations made apart from qubitdyn; a unit
that raises or fails a check counts as failed.  Raw medians and the
kernel median are printed on the line before the JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import VERIFY
from kernel import KERNEL_NOMINAL_S, kernel_sample, normalise

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

SETUP_PROBES = 3
KERNEL_PER_GAP = 6
PROBE_TIMEOUT_S = 120


def _probe(*args: str, python_flags=()) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, *python_flags, str(BENCH_DIR / "probe.py"), *args],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
        cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def _importtime_ms(stderr: str, module: str) -> float:
    """Cumulative import time of one module from `-X importtime` output."""
    for line in stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(2) == module:
            return int(m.group(1)) / 1000.0
    return 0.0


class Run:
    """One benchmark run: probes, then timed units interleaved with kernel samples."""

    def __init__(self, workload, seconds: int):
        self.w = workload
        self.verify = VERIFY[workload.name]
        self.seconds = seconds
        self.kernel_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.memo: dict = {}

    def kernel_gap(self) -> None:
        self.kernel_s += [kernel_sample() for _ in range(KERNEL_PER_GAP)]

    def attempt(self, tracer=None) -> float | None:
        """Run, time and check one unit; None if it raised or failed a check."""
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = self.w.unit()
            dt = time.perf_counter() - t0
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            fails = self.verify(self.w, out, self.memo)
        except (OSError, KeyError, ValueError) as e:  # a missing or malformed artifact
            fails = [f"check raised {e!r}"]
        if fails:
            self.failed += 1
            print(f"unit {self.attempted} failed: {'; '.join(fails)}", file=sys.stderr)
            return None
        return dt

    def norm(self, wall_s: float) -> float:
        return normalise(wall_s, self.kernel_s)

    def setup_probes(self, python_flags=()) -> list[tuple[dict, str]]:
        return [
            _probe("setup", str(SRC), str(self.w.scenario_path), python_flags=python_flags)
            for _ in range(SETUP_PROBES)
        ]


def end_to_end(run: Run, seed: int) -> tuple[dict, str]:
    probes = run.setup_probes()
    setup_s = statistics.median(normalise(p["setup_s"], p["kernel_s"]) for p, _ in probes)
    rss, _ = _probe("rss", str(SRC), run.w.name, str(seed), str(RUNS / run.w.name / "rss"))

    run.attempt()  # warm-up, not timed
    units: list[float] = []
    deadline = time.perf_counter() + run.seconds
    while not units or time.perf_counter() < deadline:
        run.kernel_gap()
        dt = run.attempt()
        if dt is not None:
            units.append(dt)
        elif run.attempted > 3 and not units:
            break
    run.kernel_gap()
    if not units:
        raise SystemExit("error: no unit completed")

    metrics = {
        "work_s": {"value": run.norm(statistics.median(units)), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss["peak_rss_mb"], "unit": "MB"},
    }
    note = (
        f"# {run.w.name}: {len(units)} timed units; raw work median "
        f"{statistics.median(units):.4f} s; kernel median "
        f"{statistics.median(run.kernel_s):.6f} s over {len(run.kernel_s)} samples; "
        f"raw setup median {statistics.median(p['setup_s'] for p, _ in probes):.4f} s"
    )
    return metrics, note


def _per_unit(snaps, fn, unit: str) -> float:
    # counts take a value some unit actually had, so they repeat exactly
    median = statistics.median_low if unit in ("count", "bytes") else statistics.median
    return median(fn(s) for s in snaps)


def _calls(layer):
    return lambda s: s["aggs"][layer][0]


def _us_per_call(layer, f):
    def value(s):
        calls, total, _ = s["aggs"][layer]
        return total / calls * 1e6 * f if calls else 0.0
    return value


def _ms(layer, f, index=1):
    return lambda s: s["aggs"][layer][index] * 1e3 * f


def _count(key):
    return lambda s: s["counts"].get(key, 0)


def per_layer(run: Run, seed: int) -> tuple[dict, str]:
    from tracing import Tracer

    probes = run.setup_probes(python_flags=("-X", "importtime"))
    import_ms = statistics.median(_importtime_ms(err, "qubitdyn.cli") for _, err in probes)
    scipy_ms = statistics.median(_importtime_ms(err, "scipy.integrate") for _, err in probes)
    probe_kernel = statistics.median(k for p, _ in probes for k in p["kernel_s"])

    tracer = Tracer()
    run.attempt()  # warm-up, not timed
    plain: list[float] = []
    traced: list[float] = []
    snaps: list[dict] = []
    sizes: list[int] = []
    out_dir = getattr(run.w, "out_dir", None)
    deadline = time.perf_counter() + run.seconds
    while not traced or time.perf_counter() < deadline:
        run.kernel_gap()
        dt = run.attempt()
        if dt is not None:
            plain.append(dt)
        run.kernel_gap()
        dt = run.attempt(tracer)
        snap = tracer.take_unit()
        if dt is not None:
            traced.append(dt)
            snaps.append(snap)
            sizes.append((out_dir / "timeseries.csv").stat().st_size if out_dir else 0)
        elif run.attempted > 6 and not traced:
            break
    run.kernel_gap()
    if not traced or not plain:
        raise SystemExit("error: no unit completed")

    f = KERNEL_NOMINAL_S / statistics.median(run.kernel_s)
    fp = KERNEL_NOMINAL_S / probe_kernel

    def integrate_s(s):
        return s["aggs"]["engine.integrate"][1] * f

    def steps(s):
        return s["counts"].get("integrate.steps", 0)

    table = [
        ("generators.rhs_given_h.calls", "count", _calls("generators.rhs_given_h")),
        ("generators.rhs_given_h.us_per_call", "us", _us_per_call("generators.rhs_given_h", f)),
        ("generators.rhs_given_h.calls_in_pulse", "count", _count("rhs.in_pulse")),
        ("generators.rhs_given_h.calls_free", "count", _count("rhs.free")),
        ("engine.steps", "count", steps),
        ("engine.us_per_step", "us",
         lambda s: integrate_s(s) / steps(s) * 1e6 if steps(s) else 0.0),
        ("engine.sim_ns_per_s", "ns/s",
         lambda s: s["counts"].get("integrate.sim_ns", 0.0) / integrate_s(s)),
        ("engine.integrate.self_s", "s", lambda s: s["aggs"]["engine.integrate"][2] * f),
        ("generators.hamiltonian.calls", "count", _calls("generators.hamiltonian")),
        ("generators.hamiltonian.us_per_call", "us", _us_per_call("generators.hamiltonian", f)),
        ("generators.hamiltonian_dot.calls", "count", _calls("generators.hamiltonian_dot")),
        ("generators.hamiltonian_dot.us_per_call", "us",
         _us_per_call("generators.hamiltonian_dot", f)),
        ("pulses.value.calls", "count", _calls("pulses.value")),
        ("pulses.value.self_s", "s", lambda s: s["aggs"]["pulses.value"][2] * f),
        ("spincore.matrix_log_clamped.calls", "count", _calls("spincore.matrix_log_clamped")),
        ("spincore.matrix_log_clamped.us_per_call", "us",
         _us_per_call("spincore.matrix_log_clamped", f)),
        ("engine.integrate_bloch_oracle.us_per_step", "us",
         lambda s: s["aggs"]["engine.integrate_bloch_oracle"][1] * f * 1e6
         / s["counts"]["oracle.steps"] if s["counts"].get("oracle.steps") else 0.0),
        ("generators.delta_p.calls", "count", _calls("generators.delta_p")),
        ("generators.delta_p.us_per_call", "us", _us_per_call("generators.delta_p", f)),
        ("observables.observable_row.calls", "count", _calls("observables.observable_row")),
        ("observables.observable_row.us_per_call", "us",
         _us_per_call("observables.observable_row", f)),
        ("scenario.write_timeseries.ms", "ms", _ms("scenario.write_timeseries", f)),
        ("scenario.assemble_events.ms", "ms", _ms("scenario.assemble_events", f)),
        ("scenario.svg_line_chart.ms", "ms", _ms("scenario.svg_line_chart", f)),
        ("scenario.run_scenario.self_ms", "ms", _ms("scenario.run_scenario", f, index=2)),
        ("cli.report.ms", "ms", _ms("cli.report", f)),
        ("scenario.load_scenario.ms", "ms", _ms("scenario.load_scenario", f)),
        ("scenario.draw_noise_pulses.ms", "ms", _ms("scenario.draw_noise_pulses", f)),
    ]
    metrics = {
        name: {"value": _per_unit(snaps, fn, unit), "unit": unit} for name, unit, fn in table
    }
    metrics["scenario.timeseries_bytes"] = {"value": statistics.median_low(sizes), "unit": "bytes"}
    metrics["cli.import_ms"] = {"value": import_ms * fp, "unit": "ms"}
    metrics["cli.import_scipy_ms"] = {"value": scipy_ms * fp, "unit": "ms"}
    metrics["trace.overhead_s"] = {
        "value": run.norm(statistics.median(traced)) - run.norm(statistics.median(plain)),
        "unit": "s",
    }

    trace_path = RUNS / run.w.name / f"trace-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": run.w.name,
        "seed": seed,
        "kernel_s": run.kernel_s,
        "units": snaps,
        "spans": [
            {"unit": u, "layer": layer, "parent": parent, "start": t0, "end": t1}
            for u, layer, parent, t0, t1 in tracer.spans
        ],
        "metrics": metrics,
    }, indent=1) + "\n")
    note = (
        f"# {run.w.name} traced: {len(traced)} traced and {len(plain)} plain units; "
        f"kernel median {statistics.median(run.kernel_s):.6f} s; spans in {trace_path}"
    )
    return metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qubitdyn" / "__init__.py").is_file():
        print(f"error: qubitdyn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run_dir = RUNS / args.workload
    run_dir.mkdir(parents=True, exist_ok=True)
    run = Run(WORKLOADS[args.workload](args.seed, run_dir), args.seconds)
    measure = per_layer if args.trace else end_to_end
    metrics, note = measure(run, args.seed)
    print(note)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
