"""One fresh interpreter that runs one workload in-process.

The first thing it does is time ``import lietower.cli`` (the set-up time),
before any other module is imported, so the stdlib modules the package
needs are not preloaded.  It then drives ``lietower.cli.main(argv)`` in a
closed loop with one client: rounds of the seeded stream are started until
``--seconds`` have passed and the workload's minimum count of commands is
done.  Each command's stdout is captured and checked by the oracle outside
the timed region.  Garbage is collected before each command, also outside
it: a command run from the shell starts in a fresh process and never pays
for garbage left by earlier ones.  The reference loop is timed after the
import and, by a sampler, all through an untraced run.  The last stdout line
is one JSON object with the raw samples; ``run.py`` turns it into metrics.

With ``--probe`` it only reports the import and its reference timing.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
_start = time.perf_counter()
import lietower.cli  # noqa: E402  (timed: this import is the set-up)

SETUP_S = time.perf_counter() - _start

sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

from reference import SpeedSampler, reference_seconds  # noqa: E402

SETUP_REFERENCE_UNITS = 25
SETUP_REFERENCE_S = reference_seconds(SETUP_REFERENCE_UNITS)

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402

import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def run_command(argv: list) -> tuple:
    """(exit code, stdout, start, end) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = lietower.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad input this way
            code = exc.code
    return code, out.getvalue(), start, time.perf_counter()


def inject_fault() -> None:
    """Overwrite L12 in every generator set that ``verify`` builds, as the
    determinism test of the package does; every verdict must then fail."""
    from lietower.exact import ExactMatrix, I

    real_build = lietower.verify.build_generators

    def tampered_build(metric):
        gs = real_build(metric)
        gs._gens[(1, 2)] = ExactMatrix.from_entries(metric.dim, {(0, 1): I, (1, 0): I})
        return gs

    lietower.verify.build_generators = tampered_build


class Run:
    def __init__(self, trace: bool) -> None:
        self.oracle = Oracle()
        self.tracer = Tracer() if trace else None
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.traced_latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, argv: list, traced: bool = False) -> None:
        gc.collect()
        self.attempted += 1
        if traced:
            self.tracer.command = self.attempted
            self.tracer.install()
        try:
            code, out, start, end = run_command(argv)
        except Exception:  # a crash is a wrong answer; keep measuring
            self.failures.append(f"{' '.join(argv)}: {traceback.format_exc(limit=3)}")
            return
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            self.traced_latencies.append(end - start)
        else:
            self.starts.append(start)
            self.latencies.append(end - start)
        problem = self.oracle.check(argv, code, out)
        if problem is not None:
            self.failures.append(f"{' '.join(argv)}: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.STREAMS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args()
    if not os.path.abspath(lietower.cli.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"lietower imported from {lietower.cli.__file__}, not this checkout", file=sys.stderr)
        return 2
    setup = {
        "setup_s": SETUP_S,
        "setup_reference_s": SETUP_REFERENCE_S,
        "setup_reference_units": SETUP_REFERENCE_UNITS,
    }
    if args.probe:
        print(json.dumps(setup))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.inject_fault:
        inject_fault()

    run = Run(trace=bool(args.trace))
    first_round_counts = None
    min_commands = 1 if args.trace else workloads.MIN_COMMANDS.get(args.workload, 1)
    # The traced run reports wall times, so the sampler stays off there.
    sampler = SpeedSampler()
    with nullcontext() if args.trace else sampler:
        start = time.perf_counter()
        for round_argvs in workloads.stream(args.workload, args.seed):
            for argv in round_argvs:
                run.execute(argv)
                if run.tracer is not None:
                    run.execute(argv, traced=True)
            if run.tracer is not None and first_round_counts is None:
                first_round_counts = dict(run.tracer.counts)
            if (time.perf_counter() - start >= args.seconds
                    and len(run.latencies) >= min_commands):
                break
        elapsed = time.perf_counter() - start

    result = {
        **setup,
        "elapsed_s": elapsed,
        "latencies_s": run.latencies,
        "starts_s": run.starts,
        "speed_samples": sampler.samples,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:5],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if run.tracer is not None:
        result["traced_latencies_s"] = run.traced_latencies
        result["layers"] = layer_metrics(
            run.tracer, max(len(run.traced_latencies), 1), first_round_counts
        )
        if args.trace_out:
            run.tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
