"""Fresh-interpreter probes, started by run_bench.py.

    probe.py setup <src dir> <scenario file>
        Times `import qubitdyn.cli` plus load_scenario of the file, from
        the first statement of this script, then takes calibration kernel
        samples so the parent can normalise the time by this process's own
        speed.  Run under `-X importtime` it also yields the import split.

    probe.py rss <src dir> <workload> <seed> <run dir>
        Imports qubitdyn and the workloads (numpy and qubitdyn only, none of
        the checks' dependencies), runs one unit and reports the peak
        resident set size.

Each prints one JSON object on its last line of standard output.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def setup(src: str, scenario_path: str) -> dict:
    sys.path.insert(0, src)
    import qubitdyn.cli

    qubitdyn.cli.load_scenario(scenario_path)
    setup_s = time.perf_counter() - T_START
    from kernel import kernel_sample

    return {"setup_s": setup_s, "kernel_s": [kernel_sample() for _ in range(15)]}


def rss(src: str, workload: str, seed: str, run_dir: str) -> dict:
    import resource
    from pathlib import Path

    sys.path.insert(0, src)
    from workloads import WORKLOADS

    path = Path(run_dir)
    path.mkdir(parents=True, exist_ok=True)
    WORKLOADS[workload](int(seed), path).unit()
    # ru_maxrss is in KiB on Linux
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    print(json.dumps({"setup": setup, "rss": rss}[mode](*rest)))
