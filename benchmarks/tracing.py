"""Layer tracing of qubitdyn from outside the program.

``Tracer.install()`` replaces each traced function by a wrapper in every
module namespace where qubitdyn looks it up (``qubitdyn.engine.rhs_given_h``
and ``qubitdyn.generators.rhs_given_h`` are separate lookups), and the
``value`` method of each envelope class; ``uninstall()`` puts the
originals back.  A wrapper counts calls and adds up inclusive time and
self time (its duration minus that of wrapped calls made inside it).
Calls into the coarse layers also leave one span each (layer, parent
layer, start, end, unit number), kept in memory and written out once the
run ends.
"""

from __future__ import annotations

import inspect
import time

from qubitdyn import cli, engine, generators, observables, pulses, scenario

# (module, attribute, layer): one entry per namespace the program looks the name up in
FUNCTIONS = (
    (engine, "rhs_given_h", "generators.rhs_given_h"),
    (generators, "rhs_given_h", "generators.rhs_given_h"),
    (engine, "hamiltonian", "generators.hamiltonian"),
    (generators, "hamiltonian", "generators.hamiltonian"),
    (engine, "hamiltonian_dot", "generators.hamiltonian_dot"),
    (generators, "matrix_log_clamped", "spincore.matrix_log_clamped"),
    (observables, "matrix_log_clamped", "spincore.matrix_log_clamped"),
    (engine, "delta_p", "generators.delta_p"),
    (engine, "observable_row", "observables.observable_row"),
    (engine, "integrate", "engine.integrate"),
    (scenario, "integrate", "engine.integrate"),
    (cli, "integrate", "engine.integrate"),
    (engine, "integrate_bloch_oracle", "engine.integrate_bloch_oracle"),
    (scenario, "load_scenario", "scenario.load_scenario"),
    (cli, "load_scenario", "scenario.load_scenario"),
    (scenario, "draw_noise_pulses", "scenario.draw_noise_pulses"),
    (scenario, "run_scenario", "scenario.run_scenario"),
    (cli, "run_scenario", "scenario.run_scenario"),
    (scenario, "write_timeseries", "scenario.write_timeseries"),
    (scenario, "assemble_events", "scenario.assemble_events"),
    (scenario, "svg_line_chart", "scenario.svg_line_chart"),
    (cli, "svg_line_chart", "scenario.svg_line_chart"),
    # the benchmark calls cli.main only as `qubitdyn report <run dir>`
    (cli, "main", "cli.report"),
)
ENVELOPES = (pulses.GaussianPulse, pulses.SoftSquarePulse, pulses.BiasPulse, pulses.SmoothStep)
ENVELOPE_LAYER = "pulses.value"

SPAN_LAYERS = frozenset({
    "engine.integrate",
    "engine.integrate_bloch_oracle",
    "scenario.load_scenario",
    "scenario.draw_noise_pulses",
    "scenario.run_scenario",
    "scenario.write_timeseries",
    "scenario.assemble_events",
    "scenario.svg_line_chart",
    "cli.report",
})

_ORACLE_STEPS_DEFAULT = inspect.signature(engine.integrate_bloch_oracle).parameters[
    "n_steps"
].default


def _supports(gens) -> list[tuple[float, float]]:
    """Public supports of every time-dependent part of a generator set."""
    hspec = gens.hamiltonian
    out = [g.support() for g in hspec.gates] + [b.support() for b in hspec.bias_holds]
    if hspec.axis_rotation is not None:
        out.append(hspec.axis_rotation.step.support())
    out += [op.envelope.support() for op in gens.lindblads if op.envelope is not None]
    return out


class Tracer:
    def __init__(self):
        # layer -> [calls, inclusive s, self s]
        self.aggs: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.unit = 0
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._supports_of: dict[int, tuple] = {}
        self._wrappers = [
            (mod, attr, self._wrap(layer, getattr(mod, attr), self._note(attr)))
            for mod, attr, layer in FUNCTIONS
        ]
        self._wrappers += [
            (cls, "value", self._wrap(ENVELOPE_LAYER, cls.value)) for cls in ENVELOPES
        ]

    def _note(self, attr):
        return {
            "rhs_given_h": self._note_rhs,
            "integrate": self._note_integrate,
            "integrate_bloch_oracle": self._note_oracle,
        }.get(attr)

    def _count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _note_rhs(self, args, kwargs, result) -> None:
        t, gens = args[0], args[2]
        entry = self._supports_of.get(id(gens))
        if entry is None or entry[0] is not gens:
            entry = (gens, _supports(gens))
            self._supports_of[id(gens)] = entry
        in_pulse = any(lo <= t <= hi for lo, hi in entry[1])
        self._count("rhs.in_pulse" if in_pulse else "rhs.free")

    def _note_integrate(self, args, kwargs, result) -> None:
        t0, t1 = args[2] if len(args) > 2 else kwargs["t_span"]
        self._count("integrate.steps", result.meta["steps"])
        self._count("integrate.sim_ns", float(t1) - float(t0))

    def _note_oracle(self, args, kwargs, result) -> None:
        n = args[4] if len(args) > 4 else kwargs.get("n_steps", _ORACLE_STEPS_DEFAULT)
        self._count("oracle.steps", n)

    def _wrap(self, layer: str, fn, note=None):
        agg = self.aggs.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans if layer in SPAN_LAYERS else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if spans is not None:
                    parent = stack[-1][1] if stack else None
                    spans.append((self.unit, layer, parent, t0, t1))
            if note is not None:
                note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        self._saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in self._wrappers]
        for obj, attr, wrapper in self._wrappers:
            setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in self._saved:
            setattr(obj, attr, original)
        self._saved = []

    def take_unit(self) -> dict:
        """This unit's aggregates and counts; resets both for the next unit."""
        snap = {
            "aggs": {layer: list(agg) for layer, agg in self.aggs.items()},
            "counts": dict(self.counts),
        }
        for agg in self.aggs.values():
            agg[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.unit += 1
        return snap
