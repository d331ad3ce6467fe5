"""Self-tests of the benchmark: the oracle rejects wrong answers, a fault
injected into ``verify`` shows up as a non-zero error rate, and traced
call counts repeat exactly for a fixed seed.

    python3 -m pytest perfbench/test_perfbench.py

The tests that start ``run.py`` take about a minute.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from oracle import expected_problem  # noqa: E402
from tracer import CALL_METRICS  # noqa: E402
from workloads import STREAMS  # noqa: E402


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "argv, out",
    [
        (["mass", "1/2", "0"], "2 * m_e\n"),
        (["mass", "1", "1/2", "0"], "3/2 * m_e\n"),
        (["elements", "--z", "118"], "Z=118 Og  ket |7,1,1,-1/2⟩  (floor n=7, subshell l=1, m=1, spin -1/2)\n"),
        (["elements", "--symbol", "Fe", "--format", "json"],
         '{"z": 26, "symbol": "Fe", "ket": {"n": 3, "l": 2, "m": -1, "s": "+1/2"}, "anti": false}'),
        (["roots", "--signature", "4,2"], "cartan: L3, A3, D3\nK+   (1,1,0)\nK-   (1,-1,0)\n"),
        (["tower", "--spin=+1/2"], "spin projection s = +1/2\nn= 1 l=0: H\n"),
        (["verify", "--signature", "5,5"], "signature (5,5)\n  commutators: 990/990 [ok]\nresult: ok\n"),
        (["verify", "--signature", "4,2"], "not a report"),
    ],
)
def test_oracle_rejects_wrong_answers(argv, out):
    assert expected_problem(argv, 0, out) is not None


def test_oracle_accepts_known_answers():
    assert expected_problem(["mass", "1/2", "0"], 0, "1 * m_e\n") is None
    assert expected_problem(["mass", "0", "0", "0"], 0, "1/4 * m_H\n") is None
    assert expected_problem(
        ["elements", "--z", "118"], 0,
        "Z=118 Og  ket |7,1,1,+1/2⟩  (floor n=7, subshell l=1, m=1, spin +1/2)\n",
    ) is None
    assert expected_problem(["mass", "1/2", "0"], 2, "1 * m_e\n") is not None


def test_injected_fault_gives_nonzero_error_rate():
    clean = bench("--workload", "verify-so42", "--seed", "1", "--seconds", "1")
    assert clean["correct"] and clean["failed"] == 0
    faulty = bench("--workload", "verify-so42", "--seed", "1", "--seconds", "1", "--inject-fault")
    assert not faulty["correct"]
    assert faulty["failed"] / faulty["attempted"] > 0


@pytest.mark.parametrize("workload", sorted(STREAMS))
def test_traced_call_counts_repeat(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    first, second = bench(*args), bench(*args)
    assert first["correct"] and second["correct"]
    for name in CALL_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
