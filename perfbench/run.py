"""lietower benchmark: time to a ``verify`` verdict and export latency.

    python3 perfbench/run.py --workload verify-so42 --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory.  One client drives ``lietower.cli.main`` in a closed
loop inside one fresh worker interpreter at a time (no threads).  The set-up
time is the import of ``lietower.cli``, timed in the worker and in nine
more fresh interpreters started one after another; the median is reported.

Every time is rescaled to a machine on which one unit of the reference loop
in ``reference.py`` takes ``UNIT_NOMINAL_S``: a command's latency, less the
time the speed sampler took inside it, is multiplied by the mean speed the
sampler saw from ``WINDOW_S`` before the command to ``WINDOW_S`` after it;
an import time is multiplied by the speed of 25 units run right after it.
The wall times are printed alongside.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run: every command is run once untraced and
once traced, the spans go to ``.bench_build/trace/``, and the untraced
twins give the tracing overhead.  Every output is checked against the
answers in ``oracle.py``; the last stdout line is the JSON result.
Workloads, the metrics each layer should move, and the recorded baseline
are described in ``RATIONALE.md``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reference import UNIT_NOMINAL_S  # noqa: E402
from tracer import CALL_METRICS, SELF_METRICS  # noqa: E402
from workloads import STREAMS  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
SETUP_PROBES = 9
DEADLINE_S = 170.0
WINDOW_S = 0.5


def _worker(args: list[str], timeout: float) -> dict:
    # -I -S: ignore PYTHON* variables, user and site packages, so only the
    # checkout's src supplies lietower; bytecode is cached under BUILD.
    cmd = [sys.executable, "-I", "-S", "-X", f"pycache_prefix={os.path.join(BUILD, 'pycache')}",
           os.path.join(HERE, "worker.py"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _scaled_latencies(res: dict) -> list[float]:
    samples = res["speed_samples"]
    times = [t for t, _ in samples]
    out = []
    for start, lat in zip(res["starts_s"], res["latencies_s"]):
        end = start + lat
        inside = samples[bisect.bisect_left(times, start):bisect.bisect_left(times, end)]
        near = samples[bisect.bisect_left(times, start - WINDOW_S):
                       bisect.bisect_left(times, end + WINDOW_S)] or samples
        speed = statistics.fmean(UNIT_NOMINAL_S / d for _, d in near)
        out.append((lat - sum(d for _, d in inside)) * speed)
    return out


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<40} {value:>14.6f} {unit:<6} {note}"


def _report_end_to_end(workload: str, res: dict, setups: list[dict]) -> dict:
    wall = res["latencies_s"]
    scaled = _scaled_latencies(res)
    setup_wall = [s["setup_s"] for s in setups]
    setup_scaled = [s["setup_s"] * UNIT_NOMINAL_S * s["setup_reference_units"]
                    / s["setup_reference_s"] for s in setups]
    n = len(wall)
    if workload.startswith("verify"):
        print(_line("verify_s", statistics.median(scaled), "s", f"median, n={n}"))
        print(_line("verify_s (wall)", statistics.median(wall), "s", f"median, n={n}"))
    else:
        for label, values in (("", scaled), (" (wall)", wall)):
            p95 = _p95(values)
            beyond = sum(x > p95 for x in values)
            print(_line(f"export_ms.p50{label}", 1e3 * statistics.median(values), "ms", f"n={n}"))
            print(_line(f"export_ms.p95{label}", 1e3 * p95, "ms", f"n={n}, {beyond} beyond p95"))
    print(_line("setup_s (wall)", statistics.median(setup_wall), "s", f"median, n={len(setups)}"))
    print(_line("reference unit (wall)", 1e3 * statistics.median(d for _, d in res["speed_samples"]),
                "ms", f"median, n={len(res['speed_samples'])}; nominal {1e3 * UNIT_NOMINAL_S:g} ms"))
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s", f"median of {len(setups)} fresh imports"),
        "latency_ms.p50": (1e3 * statistics.median(scaled), "ms", f"median per command, n={n}"),
        "latency_ms.mean": (1e3 * statistics.fmean(scaled), "ms", f"mean per command, n={n}"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB", "peak RSS of the worker"),
    }
    for name, (value, unit, note) in metrics.items():
        print(_line(name, value, unit, note))
    return {name: (value, unit) for name, (value, unit, _) in metrics.items()}


def _report_layers(res: dict, trace_out: str) -> dict:
    traced, untraced = res["traced_latencies_s"], res["latencies_s"]
    metrics = {name: (value, "count" if name in CALL_METRICS else "s")
               for name, value in res["layers"].items()}
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    print(f"  self seconds per traced command (n={len(traced)}, wall); *.calls over "
          f"the first round; spans in {os.path.relpath(trace_out, ROOT)}")
    for name in [f"{g}.self_s" for g in SELF_METRICS] + list(CALL_METRICS) + ["trace.overhead_ratio"]:
        print(_line(name, *metrics[name]))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="corrupt one generator in verify (checker self-test only)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lietower", "cli.py")):
        print(f"error: no lietower sources under {ROOT}/src", file=sys.stderr)
        return 2
    begin = time.monotonic()
    os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)

    setups = []
    if not args.trace:
        _worker(["--probe"], timeout=60)  # fills the bytecode cache; not timed
        setups = [_worker(["--probe"], timeout=60) for _ in range(SETUP_PROBES)]
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_out = os.path.join(BUILD, "trace", f"{args.workload}-seed{args.seed}.json")
    if args.trace:
        worker_args += ["--trace-out", trace_out]
    if args.inject_fault:
        worker_args.append("--inject-fault")
    res = _worker(worker_args, timeout=DEADLINE_S - (time.monotonic() - begin))
    setups.append(res)

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: {attempted} "
          f"commands in {res['elapsed_s']:.1f} s, closed loop, 1 client")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    print(_line("error_rate", failed / attempted, "", f"{failed}/{attempted} commands wrong"))
    if args.trace:
        metrics = _report_layers(res, trace_out)
    else:
        metrics = _report_end_to_end(args.workload, res, setups)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
