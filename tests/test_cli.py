"""Command-line surface: formats, determinism, exit codes, fault injection."""

import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import lietower.periodic
import lietower.verify
from lietower import cli
from lietower.cli import main
from lietower.labels import mass_sl2c, mass_so42
from lietower.periodic import assign_elements, find_element, projection_slice
from lietower.sopq import Metric, build_generators
from lietower.verify import run_verification
from golden import GOLDEN_STDOUT_SHA256, tampered_build


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- basic behaviour of each verb ----------------------------------------------


def test_verify_42_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--signature", "4,2")
    assert code == 0
    assert "commutators: 105/105" in out
    assert "yao-rank: 15" in out
    assert "emulation: 3/3" in out
    assert "casimir" in out and "result: ok" in out


def test_verify_44_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--signature", "4,4")
    assert code == 0
    assert "commutators: 378/378" in out
    assert "split-rank: 28" in out
    assert "emulation: 4/4" in out


def test_verify_json_is_the_report_fields(capsys):
    code, out, _ = run_cli(capsys, "verify", "--signature", "4,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["signature", "passed", "suites", "notes"]
    assert out == cli._to_json(run_verification(build_generators(Metric(4, 2))))


def test_report_passed_is_derived_from_its_suites(monkeypatch):
    assert run_verification(build_generators(Metric(3, 0)))["passed"]

    def bad(ctx):
        return lietower.verify._suite("b", False, "")

    monkeypatch.setitem(lietower.verify.BATTERIES, Metric(3, 0), ((bad,), ()))
    report = run_verification(build_generators(Metric(3, 0)))
    assert [s["passed"] for s in report["suites"]] == [True, True, True, False]
    assert not report["passed"]
    with pytest.raises(TypeError):
        run_verification(build_generators(Metric(3, 0)), passed=True)


def test_verify_smoke_signature(capsys):
    code, out, _ = run_cli(capsys, "verify", "--signature", "3,0")
    assert code == 0
    assert "commutators: 3/3" in out
    assert "rank 1" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--signature", "4,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["signature"] == [4, 2]
    names = [s["name"] for s in doc["suites"]]
    assert "commutators" in names and "root-table" in names


def test_roots_json_42(capsys):
    code, out, _ = run_cli(capsys, "roots", "--signature", "4,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cartan"] == ["L3", "A3", "D3"]
    assert len(doc["roots"]) == 12
    by_name = {row["name"]: row["components"] for row in doc["roots"]}
    assert by_name["K+"] == ["1", "1", "0"]
    assert by_name["Q-"] == ["0", "1", "-1"]


def test_roots_json_44(capsys):
    code, out, _ = run_cli(capsys, "roots", "--signature", "4,4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cartan"] == ["L12", "L34", "L56", "L78"]
    assert len(doc["roots"]) == 24
    assert all(len(row["components"]) == 4 for row in doc["roots"])


def test_roots_svg(capsys):
    code, out, _ = run_cli(capsys, "roots", "--signature", "4,2", "--format", "svg")
    assert code == 0
    assert out.startswith("<?xml")
    assert "<svg" in out and out.rstrip().endswith("</svg>")
    for name in ("K+", "J-", "T+", "Q-"):
        assert f">{name}<" in out


def test_roots_unsupported_signature(capsys):
    code, _, err = run_cli(capsys, "roots", "--signature", "3,0")
    assert code == 2
    assert "error" in err


def test_tower_text_floor_one(capsys):
    code, out, _ = run_cli(capsys, "tower", "--spin=-1/2")
    assert code == 0
    assert out.splitlines()[1] == "n= 1 l=0: H"


def test_tower_json_both_spins(capsys):
    code, out, _ = run_cli(capsys, "tower", "--spin=-1/2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["s"] == "-1/2"
    floor1 = doc["floors"][0]
    assert floor1["n"] == 1
    assert floor1["subshells"][0]["points"] == [{"m": 0, "z": 1, "symbol": "H"}]

    code, out, _ = run_cli(capsys, "tower", "--spin=+1/2", "--format", "json")
    doc = json.loads(out)
    floor7 = next(f for f in doc["floors"] if f["n"] == 7)
    sub1 = next(s for s in floor7["subshells"] if s["l"] == 1)
    og = next(p for p in sub1["points"] if p["m"] == 1)
    assert og == {"m": 1, "z": 118, "symbol": "Og"}


def test_tower_includes_antimatter(capsys):
    _, out, _ = run_cli(capsys, "tower", "--spin=-1/2", "--format", "json")
    doc = json.loads(out)
    anti_floor = next(f for f in doc["floors"] if f["n"] == -1)
    assert anti_floor["subshells"][0]["points"] == [
        {"m": 0, "z": 1, "symbol": "anti-H"}
    ]


def test_tower_svg(capsys):
    code, out, _ = run_cli(capsys, "tower", "--spin=+1/2", "--format", "svg")
    assert code == 0
    assert out.startswith("<?xml")
    assert ">He<" in out and ">Og<" in out and ">anti-He<" in out


def test_tower_bad_spin(capsys):
    code, _, err = run_cli(capsys, "tower", "--spin=1")
    assert code == 2
    assert "spin" in err


@pytest.mark.parametrize("spin", ["3/2", "-3/2"])
def test_tower_rejects_other_half_integer_spins(capsys, spin):
    code, out, err = run_cli(capsys, "tower", f"--spin={spin}")
    assert (code, out) == (2, "")
    assert err == "error: spin must be -1/2 or +1/2\n"


def test_elements_by_z(capsys):
    code, out, _ = run_cli(capsys, "elements", "--z", "1")
    assert code == 0
    assert "H" in out and "|1,0,0,-1/2⟩" in out


def test_elements_by_symbol(capsys):
    code, out, _ = run_cli(capsys, "elements", "--symbol", "Og")
    assert code == 0
    assert "Z=118" in out and "|7,1,1,+1/2⟩" in out


def test_elements_out_of_range(capsys):
    code, _, err = run_cli(capsys, "elements", "--z", "121")
    assert code == 2
    assert "out of range 1..120" in err


def test_elements_unknown_symbol_hint(capsys):
    code, _, err = run_cli(capsys, "elements", "--symbol", "Zz")
    assert code == 2
    assert "closest match" in err


@pytest.mark.parametrize(
    "symbol, hint",
    [
        ("Qq", None), ("", None), ("1", None), ("Zz", "Zr"), ("Xx", "Xe"),
        # quotes in the input come back as typed, not escaped as in a repr
        ('a"', "Ta"), ("O'", "O"),
    ],
)
def test_elements_hint_shares_a_character(capsys, symbol, hint):
    # a symbol with nothing in common with the input is not offered as a hint
    code, out, err = run_cli(capsys, "elements", "--symbol", symbol)
    assert code == 2 and out == ""
    assert err.startswith(f"error: unknown element symbol {symbol!r}")
    if hint is None:
        assert "closest match" not in err
    else:
        assert err.strip().endswith(f"closest match: {hint}")


@pytest.mark.parametrize(
    "symbol, hint", [("he", "He"), ("fe", "Fe"), ("NA", "Na"), ("h", "H")]
)
def test_elements_miscased_symbol_hint(capsys, symbol, hint):
    code, out, err = run_cli(capsys, "elements", "--symbol", symbol)
    assert code == 2 and out == ""
    assert err.strip().endswith(f"closest match: {hint}")


def test_elements_with_node_mass(capsys):
    code, out, _ = run_cli(capsys, "elements", "--z", "1", "--node", "0,0,0")
    assert code == 0
    assert "mass(0,0,0) = 1/4 * m_H" in out


def test_elements_json(capsys):
    code, out, _ = run_cli(capsys, "elements", "--z", "119", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["symbol"] == "Uue"
    assert doc["ket"] == {"n": 8, "l": 0, "m": 0, "s": "-1/2"}


def test_mass_shell(capsys):
    assert run_cli(capsys, "mass", "1/2", "0")[1] == "1 * m_e\n"
    assert run_cli(capsys, "mass", "1/2", "1/2")[1] == "2 * m_e\n"


def test_mass_tower_node(capsys):
    assert run_cli(capsys, "mass", "0", "0", "0")[1] == "1/4 * m_H\n"


def test_mass_bad_input(capsys):
    code, _, err = run_cli(capsys, "mass", "1/3", "0")
    assert code == 2
    assert "half-integer" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("elements", "--z", "1", "--node=-1/2,0,0"), "spins must be non-negative"),
        (("elements", "--z", "1", "--node=0,-1,0"), "spins must be non-negative"),
        (
            ("elements", "--z", "1", "--node=0,0,-1", "--format", "json"),
            "nu must be non-negative",
        ),
        (("elements", "--z", "1", "--node="), "--node expects l,ldot,nu"),
        (("mass", "--", "-1/2", "0"), "spins must be non-negative"),
        (("mass", "0", "0", "-1"), "nu must be non-negative"),
    ],
    ids=["node-l", "node-ldot", "node-nu-json", "node-empty", "mass-l", "mass-nu"],
)
def test_negative_node_label_rejected(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, call",
    [
        (("mass", "0", "0", "-1"), lambda: mass_so42(0, 0, -1)),
        (("mass", "--", "-1/2", "0"), lambda: mass_sl2c(Fraction(-1, 2), 0)),
        (("elements", "--z", "1", "--node=0,-1,0"), lambda: mass_so42(0, -1, 0)),
        (("tower", "--spin=3/2"), lambda: projection_slice(assign_elements(), Fraction(3, 2))),
        (("elements", "--z", "200"), lambda: find_element(assign_elements(), z=200)),
    ],
    ids=["mass-nu", "mass-l", "elements-node-ldot", "tower-spin", "elements-z"],
)
def test_range_errors_are_the_librarys(capsys, argv, call):
    # the CLI parses the text; the library's own message is the error line
    with pytest.raises((ValueError, KeyError)) as raised:
        call()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {raised.value.args[0]}\n"


@pytest.mark.parametrize(
    "argv",
    [("mass", "--", "-1/2", "0", "x"), ("elements", "--z", "1", "--node=-1/2,0,x")],
    ids=["mass", "elements-node"],
)
def test_syntax_error_reported_before_range_error(capsys, argv):
    # l = -1/2 breaks a range rule, but nu = x is not a number at all
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: bad nu 'x'; expected a half-integer like 3/2\n"


@pytest.mark.parametrize(
    "argv",
    [("elements",), ("elements", "--z", "1", "--symbol", "H"), ("elements", "--node=0,0,0")],
    ids=["neither", "both", "node-only"],
)
def test_elements_takes_exactly_one_of_z_and_symbol(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: lietower elements: ") and err.count("\n") == 1
    assert "--z" in err and "--symbol" in err
    assert "usage" not in err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (("mass", "1e5000", "1/2", "1/2"), "l '1e5000'"),
        (("mass", "0", "1E3", "0"), "l-dot '1E3'"),
        (("elements", "--z", "1", "--node", "1e5000,0,0"), "l '1e5000'"),
        (("mass", "1/2", "0", "1" * 41), "nu '" + "1" * 41 + "'"),
        (("tower", "--spin=1/0"), "spin '1/0'"),
        (("tower", "--spin=1e5000"), "spin '1e5000'"),
        (("tower", "--spin=" + "1" * 41), "spin '" + "1" * 41 + "'"),
        (("mass", "1_0", "0"), "l '1_0'"),
        (("elements", "--z", "1", "--node", "1_0,0,0"), "l '1_0'"),
        (("tower", "--spin=+1_0/2_0"), "spin '+1_0/2_0'"),
    ],
    ids=[
        "mass-exponent", "mass-upper-exponent", "elements-node-exponent", "overlong",
        "tower-zero-denominator", "tower-exponent", "tower-overlong",
        "mass-underscore", "elements-node-underscore", "tower-underscore",
    ],
)
def test_huge_half_integer_rejected(capsys, argv, bad):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: bad {bad}; expected a half-integer like 3/2\n"


# -- determinism ------------------------------------------------------------------


INVOCATIONS = [
    ("verify", "--signature", "4,2"),
    ("verify", "--signature", "4,2", "--format", "json"),
    ("verify", "--signature", "3,0"),
    ("roots", "--signature", "4,2", "--format", "text"),
    ("roots", "--signature", "4,2", "--format", "json"),
    ("roots", "--signature", "4,2", "--format", "svg"),
    ("roots", "--signature", "4,4", "--format", "json"),
    ("roots", "--signature", "4,4", "--format", "svg"),
    ("tower", "--spin=-1/2", "--format", "text"),
    ("tower", "--spin=-1/2", "--format", "json"),
    ("tower", "--spin=+1/2", "--format", "svg"),
    ("elements", "--z", "115"),
    ("elements", "--symbol", "Ubn", "--format", "json"),
    ("mass", "1/2", "0"),
    ("mass", "3/2", "1/2", "2"),
]


@pytest.mark.parametrize("argv", INVOCATIONS, ids=lambda a: " ".join(a))
def test_byte_identical_reruns(capsys, argv):
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2
    assert out1.encode("utf-8") == out2.encode("utf-8")
    assert out1  # every command emits something


def test_output_file_utf8_lf(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code, out, _ = run_cli(
        capsys, "roots", "--signature", "4,2", "--format", "json",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""  # file mode writes nothing to stdout
    raw = target.read_bytes()
    assert b"\r" not in raw
    json.loads(raw.decode("utf-8"))


def test_json_round_trip(capsys, oriented_ladders):
    from lietower.cartan import find_cartan, root_system

    _, out, _ = run_cli(capsys, "roots", "--signature", "4,4", "--format", "json")
    gs = build_generators(Metric(4, 4))
    cartan = find_cartan(gs)
    table = root_system(cartan, oriented_ladders(gs, cartan))
    assert json.loads(out) == table.to_json_dict()

    _, out, _ = run_cli(capsys, "tower", "--spin=+1/2", "--format", "json")
    tower = projection_slice(assign_elements(), Fraction(1, 2))
    assert json.loads(out) == tower.to_json_dict()


# -- exit-status contract ------------------------------------------------------------


def test_fault_injection_flips_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(lietower.verify, "build_generators", tampered_build)
    code, out, _ = run_cli(capsys, "verify", "--signature", "4,2")
    assert code == 1
    assert "result: FAIL" in out


def test_color_gating(capsys, monkeypatch):
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    monkeypatch.delenv("NO_COLOR", raising=False)
    _, out, _ = run_cli(capsys, "verify", "--signature", "3,0")
    assert "\x1b[32m" in out

    monkeypatch.setenv("NO_COLOR", "1")
    _, out, _ = run_cli(capsys, "verify", "--signature", "3,0")
    assert "\x1b[" not in out


def test_no_color_when_piped(capsys):
    _, out, _ = run_cli(capsys, "verify", "--signature", "3,0")
    assert "\x1b[" not in out


def test_bad_signature(capsys):
    code, _, err = run_cli(capsys, "verify", "--signature", "four")
    assert code == 2
    assert "bad signature" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("mass", "1/2", "0"),
        ("roots", "--signature", "4,2", "--format", "svg"),
        ("verify", "--signature", "4,4"),
    ],
    ids=lambda a: " ".join(a),
)
def test_unwritable_output_exits_2(capsys, monkeypatch, tmp_path, argv):
    def no_build(metric):
        raise AssertionError("verification ran before its output was opened")

    # verify must reject the path before it builds anything
    monkeypatch.setattr(lietower.verify, "build_generators", no_build)
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert err.count("\n") == 1
    assert "Traceback" not in err


class _FullBuffer(io.BufferedIOBase):
    """The byte buffer of a stdout on a full device: ``write`` fails at
    once, or, when ``held``, the bytes wait and ``flush`` fails, keeping
    them as ``io.BufferedWriter`` does.  ``fileno`` is the descriptor ``fd``."""

    def __init__(self, held, fd):
        self.held, self.fd, self.pending = held, fd, b""

    def writable(self):
        return True

    def fileno(self):
        return self.fd

    def write(self, data):
        if not self.held:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.pending += bytes(data)
        return len(data)

    def flush(self):
        if self.pending:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("held", [False, True], ids=["write-fails", "flush-fails"])
@pytest.mark.parametrize(
    "argv", [("mass", "1/2", "0"), ("verify", "--signature", "4,2")], ids=" ".join
)
def test_failed_stdout_write_exits_2(capsys, monkeypatch, tmp_path, argv, held):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    full = _FullBuffer(held, fd)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(full, encoding="utf-8"))
    try:
        code, _, err = run_cli(capsys, *argv)
        # the descriptor now takes the exit-time flush of the kept bytes
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        full.pending = b""
        os.close(fd)
    assert code == 2
    assert err == "error: cannot write <stdout>: No space left on device\n"
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv",
    [("mass", "1/2", "0"), ("verify", "--signature", "4,2"), ("roots", "--help")],
    ids=" ".join,
)
def test_stdout_on_a_full_device_exits_2(tmp_path, argv):
    # a buffered stdout, as a shell gives one, keeps the bytes a failed
    # flush could not write and flushes them again as the process exits
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            [sys.executable, "-m", "lietower", *argv],
            cwd=tmp_path,
            env=env,
            stdout=full,
            stderr=subprocess.PIPE,
            check=False,
        )
    assert done.returncode == 2, done.stderr
    assert done.stderr == b"error: cannot write <stdout>: No space left on device\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("elements", "--z", "abc"),
        ("verify",),
        ("roots", "--signature", "4,2", "--format", "pdf"),
        (),
        ("frobnicate",),
        ("mass", "1/2", "0", "--bogus"),
    ],
    ids=lambda a: " ".join(a) or "<none>",
)
def test_argparse_rejection_is_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: lietower")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "usage" not in err


@pytest.mark.parametrize("argv", [("--help",), ("roots", "--help")])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as done:
        main(list(argv))
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lietower")


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as done:
        main(list(argv))
    assert done.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


@pytest.mark.parametrize(
    "argv",
    [("roots", "--help"), ("roots", "-h"), ("roots", "--signature", "4,2", "--help")],
    ids=" ".join,
)
def test_roots_help_lists_its_options(capsys, argv):
    out = help_text(capsys, *argv)
    assert out.startswith(
        "usage: lietower roots --signature SIGNATURE [--format {text,json,svg}] "
        "[--output OUTPUT]\n"
    )
    for name in ("--signature SIGNATURE", "--format {text,json,svg}", "--output OUTPUT"):
        assert f"\n  {name} " in out


def test_help_is_printed_from_the_command_table(capsys):
    out = help_text(capsys, "-h")
    for command in ("verify", "roots", "tower", "elements", "mass"):
        assert f"\n  {command} " in out
    assert "give exactly one of --z and --symbol" in help_text(capsys, "elements", "--help")
    assert help_text(capsys, "mass", "--help").startswith(
        "usage: lietower mass l l_dot [nu] [--output OUTPUT]\n"
    )


COMMANDS = "verify, roots, tower, elements, mass"
ONE_OF = "lietower elements: give exactly one of --z and --symbol"
EXPECTS = "lietower verify: --signature expects a value"
SYNTAX_ERRORS = [
    ((), f"lietower: give a command, one of {COMMANDS}"),
    (("frobnicate",), f"lietower: give a command, one of {COMMANDS}, not 'frobnicate'"),
    (("verify",), "lietower verify: --signature is required"),
    (("tower", "--format", "json"), "lietower tower: --spin is required"),
    (("mass", "1/2"), "lietower mass: l_dot is required"),
    (("mass", "1/2", "0", "0", "1"), "lietower mass: unexpected argument '1'"),
    (("verify", "--signature", "4,2", "x"), "lietower verify: unexpected argument 'x'"),
    (("mass", "1/2", "0", "--bogus"), "lietower mass: unknown option --bogus"),
    (("verify", "--sig", "4,2"), "lietower verify: unknown option --sig"),
    (("verify", "--signature"), EXPECTS),
    (("verify", "--signature", "--format", "json"), EXPECTS),
    (
        ("roots", "--signature", "4,2", "--format", "pdf"),
        "lietower roots: --format must be one of text, json, svg, not 'pdf'",
    ),
    (
        ("verify", "--signature=4,2", "--format=svg"),
        "lietower verify: --format must be one of text, json, not 'svg'",
    ),
    (("elements", "--z", "abc"), "lietower elements: --z must be an integer, not 'abc'"),
    (("elements", "--z=1.0"), "lietower elements: --z must be an integer, not '1.0'"),
    (("elements",), ONE_OF),
    (("elements", "--symbol", "H", "--z=1"), ONE_OF),
]


@pytest.mark.parametrize(
    "argv, message", SYNTAX_ERRORS, ids=[" ".join(a) or "<none>" for a, _ in SYNTAX_ERRORS]
)
def test_syntax_error_wording(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, same_as",
    [
        (("tower", "--spin", "-1/2"), ("tower", "--spin=-1/2")),
        (
            ("tower", "--spin", "+1/2", "--format", "json"),
            ("tower", "--format=json", "--spin=+1/2"),
        ),
        (("elements", "--z", "1", "--z", "26"), ("elements", "--z", "26")),
        (
            ("roots", "--signature", "4,2", "--format", "svg", "--format", "json"),
            ("roots", "--signature", "4,2", "--format", "json"),
        ),
        (("elements", "--z", " +26 "), ("elements", "--z", "26")),
        (
            ("elements", "--node", "1/2,1,0", "--symbol", "Fe"),
            ("elements", "--symbol=Fe", "--node=1/2,1,0"),
        ),
        (("mass", "1/2", "--", "0"), ("mass", "1/2", "0")),
    ],
    ids=[
        "spin-space", "spin-space-json", "repeated-z", "repeated-format",
        "z-int", "order", "dashes",
    ],
)
def test_equivalent_command_lines(capsys, argv, same_as):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out
    assert (code, out, err) == run_cli(capsys, *same_as)


def test_only_double_dash_words_are_options(capsys):
    # -1/2 is a value, so the library's range rule answers, as after --
    expected = (2, "", "error: spins must be non-negative\n")
    assert run_cli(capsys, "mass", "-1/2", "0") == expected
    assert run_cli(capsys, "mass", "--", "-1/2", "0") == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (("mass", "1/3", "0"), "l must be a half-integer, got 1/3"),
        (("mass", "0", "0.25"), "l-dot must be a half-integer, got 1/4"),
        (("elements", "--z", "1", "--node", "0,0,1/3"), "nu must be a half-integer, got 1/3"),
        (("tower", "--spin=1/4"), "spin must be a half-integer, got 1/4"),
    ],
    ids=["mass-l", "mass-ldot", "elements-node-nu", "tower-spin"],
)
def test_half_integer_rule_is_the_librarys(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_oversized_verify_signature_rejected(capsys, monkeypatch):
    def no_build(metric):
        raise AssertionError("generators built for a rejected signature")

    monkeypatch.setattr(lietower.verify, "build_generators", no_build)
    # 9,8 is the smallest rejected size, P+Q = MAX_VERIFY_DIM + 1
    for signature in ("9,8", "20,20"):
        code, out, err = run_cli(capsys, "verify", "--signature", signature)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: signature {signature} is too large")


# -- state shared across calls in one process ----------------------------------


@pytest.fixture
def cold_caches():
    """Clear the element-table cache before and after a test."""
    cli._element_table.cache_clear()
    yield
    cli._element_table.cache_clear()


def test_shared_state_survives_a_command_sequence(capsys, cold_caches):
    code, out, err = run_cli(capsys, "elements", "--z", "abc")
    assert (code, out) == (2, "")
    assert err.startswith("error: lietower") and err.count("\n") == 1

    def golden(*argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT_SHA256[argv]

    golden("elements", "--z", "26", "--node", "1/2,0,1")

    code, out, err = run_cli(capsys, "elements", "--symbol", "he")
    assert (code, out) == (2, "")
    assert "closest match: He" in err and err.count("\n") == 1

    golden("tower", "--spin=-1/2", "--format", "json")
    golden("mass", "1/2", "0")


def test_element_table_built_once(capsys, monkeypatch, cold_caches):
    builds = Counter()
    real_assign = lietower.periodic.assign_elements

    def counted_assign(*args, **kwargs):
        builds["elements"] += 1
        return real_assign(*args, **kwargs)

    monkeypatch.setattr(lietower.periodic, "assign_elements", counted_assign)
    for argv in (
        ("elements", "--z", "57", "--node", "1/2,1,3/2"),
        ("tower", "--spin=+1/2"),
        ("elements", "--symbol", "Og", "--format", "json"),
        ("tower", "--spin=-1/2", "--format", "svg"),
        ("elements", "--z", "1"),
    ):
        assert run_cli(capsys, *argv)[0] == 0
    assert builds == {"elements": 1}

    table = cli._element_table()
    assert isinstance(table, tuple) and len(table) == 120
    with pytest.raises(AttributeError):
        table[0].symbol = "X"

    first, second = assign_elements(), assign_elements()
    assert type(first) is list and first is not second and first == second
