"""Command-line interface: verification runs, root/tower/element queries,
JSON export, and SVG rendering.

Determinism contract: identical invocations write byte-identical output.
JSON keys are emitted in fixed construction order, SVG is assembled with
fixed element order and fixed-precision coordinates, and nothing records
time or environment.  ANSI colour appears only on a TTY and never when
NO_COLOR is set.

The argparse parser and the 120-element table are each built on first use
and then shared read-only for the life of the process; the table is a
tuple of frozen ``Element``s.  A shell invocation runs one command in a
fresh process and builds both exactly once either way; only a caller that
runs ``main`` many times in one process, such as the test suite, skips
the rebuilds.  The parser binds the ``cmd_*`` functions when it is first
built: a test that patches ``cli.cmd_*`` must call
``build_parser.cache_clear()`` first.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Optional, TextIO

from .labels import mass_sl2c, mass_so42
from .periodic import Element, assign_elements, find_element, projection_slice
from .sopq import Metric, build_generators
from .svgout import svg_root_squares, svg_tower
from .verify import SuiteContext, run_verification

RANK3_AXIS_ALIASES = {"L12": "L3", "L34": "A3", "L56": "D3"}

# Largest p+q that verify accepts.  It no longer guards a slow run: with the
# certified Cartan search and the bracket table built in one sparse join,
# run_verification takes 0.024-0.039 s for 8,8 and 0.05-0.10 s for 10,10 on
# one core of a shared 2-vCPU Xeon (Python 3.11).  It stays at 16 because
# raising it changes which signatures exit 2.
MAX_VERIFY_DIM = 16


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one CliError line instead of usage."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}")


def _parse_signature(text: str) -> Metric:
    try:
        p_text, q_text = text.split(",")
        return Metric(int(p_text), int(q_text))
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad signature {text!r}; expected P,Q like 4,2") from exc


# Longest text _parse_half reads.  Spins in the tower are single digits;
# the cap keeps Fraction from building integers too long to print.
MAX_HALF_TEXT = 40


def _parse_half(text: str, what: str) -> Fraction:
    bad = CliError(f"bad {what} {text!r}; expected a half-integer like 3/2")
    # exponent notation such as 1e100000000 would build a 10**10**8 integer
    if len(text) > MAX_HALF_TEXT or "e" in text.lower():
        raise bad
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise bad from exc
    if (value * 2).denominator != 1:
        raise bad
    return value


def _parse_node(
    l_text: str, ldot_text: str, nu_text: Optional[str]
) -> tuple[Fraction, Fraction, Optional[Fraction]]:
    """Labels (l, l-dot, nu) of a mass node, each a non-negative
    half-integer; nu is None when ``nu_text`` is."""
    l = _parse_half(l_text, "l")
    ldot = _parse_half(ldot_text, "l-dot")
    if l < 0 or ldot < 0:
        raise CliError("spins must be non-negative")
    if nu_text is None:
        return l, ldot, None
    nu = _parse_half(nu_text, "nu")
    if nu < 0:
        raise CliError("nu must be non-negative")
    return l, ldot, nu


def _open_output(output: Optional[str]) -> TextIO:
    """Where a command writes: stdout, or the file ``output`` opened now.

    ``verify`` opens before it runs, so an unwritable path costs no work;
    the other commands open only once their arguments are known good.
    """
    if output is None:
        return sys.stdout
    try:
        return open(output, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise CliError(f"cannot write {output}: {exc.strerror or exc}") from exc


def _emit(text: str, handle: TextIO) -> None:
    """Write ``text`` to a handle from ``_open_output``, closing a file.

    Stdout gets UTF-8 with LF whatever the locale, through its byte buffer
    when it has one.
    """
    if handle is sys.stdout:
        if hasattr(handle, "buffer"):
            handle.flush()
            handle.buffer.write(text.encode("utf-8"))
        else:
            handle.write(text)
        return
    try:
        with handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {handle.name}: {exc.strerror or exc}") from exc


def _to_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _use_color() -> bool:
    return "NO_COLOR" not in os.environ and sys.stdout.isatty()


@functools.cache
def _element_table() -> tuple[Element, ...]:
    return tuple(assign_elements())


# -- commands -----------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    metric = _parse_signature(args.signature)
    if metric.dim > MAX_VERIFY_DIM:
        raise CliError(
            f"signature {args.signature} is too large to verify; "
            f"need P+Q <= {MAX_VERIFY_DIM}"
        )
    handle = _open_output(args.output)
    report = run_verification(metric)
    if args.format == "json":
        _emit(_to_json(asdict(report)), handle)
    else:
        _emit(report.render_text(color=args.output is None and _use_color()), handle)
    return 0 if report.passed else 1


def _root_table(metric: Metric):
    table = SuiteContext(build_generators(metric)).roots
    axes = RANK3_AXIS_ALIASES if metric == Metric(4, 2) else {}
    table.cartan = [axes.get(n, n) for n in table.cartan]
    return table


def cmd_roots(args: argparse.Namespace) -> int:
    metric = _parse_signature(args.signature)
    if metric not in (Metric(4, 2), Metric(4, 4)):
        raise CliError("roots are published for signatures 4,2 and 4,4")
    table = _root_table(metric)
    if args.format == "json":
        _emit(_to_json(table.to_json_dict()), _open_output(args.output))
    elif args.format == "svg":
        _emit(svg_root_squares(table), _open_output(args.output))
    else:
        lines = [f"cartan: {', '.join(table.cartan)}"]
        for name, root in table.roots.items():
            lines.append(f"{name:<4} ({','.join(map(str, root))})")
        _emit("\n".join(lines) + "\n", _open_output(args.output))
    return 0


def cmd_tower(args: argparse.Namespace) -> int:
    spin = _parse_half(args.spin, "spin")
    if spin * 2 not in (-1, 1):
        raise CliError("spin must be -1/2 or +1/2")
    tower = projection_slice(_element_table(), spin)
    if args.format == "json":
        _emit(_to_json(tower.to_json_dict()), _open_output(args.output))
    elif args.format == "svg":
        _emit(svg_tower(tower), _open_output(args.output))
    else:
        lines = [f"spin projection s = {tower.s_text}"] + [
            f"n={n:>2} l={l}: " + " ".join(e.symbol if e else "-" for e in ring.values())
            for n, rings in tower.floors.items()
            for l, ring in rings.items()
        ]
        _emit("\n".join(lines) + "\n", _open_output(args.output))
    return 0


def cmd_elements(args: argparse.Namespace) -> int:
    elements = _element_table()
    if args.z is not None and args.symbol is not None:
        raise CliError("give only one of --z and --symbol")
    try:
        if args.z is not None:
            element = find_element(elements, z=args.z)
        elif args.symbol is not None:
            element = find_element(elements, symbol=args.symbol)
        else:
            raise CliError("give --z or --symbol")
    except KeyError as exc:
        raise CliError(exc.args[0]) from exc
    node = None
    if args.node is not None:
        parts = args.node.split(",")
        if len(parts) != 3:
            raise CliError("--node expects l,ldot,nu")
        node = _parse_node(*parts)
    if args.format == "json":
        doc = element.to_json_dict()
        if node is not None:
            doc["mass"] = {
                "node": [str(v) for v in node],
                "value": f"{mass_so42(*node)} * m_H",
            }
        _emit(_to_json(doc), _open_output(args.output))
        return 0
    ket = element.ket
    line = (
        f"Z={element.z} {element.symbol}  ket {ket}  "
        f"(floor n={ket.n}, subshell l={ket.l}, m={ket.m}, spin {ket.s_text})"
    )
    if node is not None:
        l, ldot, nu = node
        line += f"\nmass({l},{ldot},{nu}) = {mass_so42(l, ldot, nu)} * m_H"
    _emit(line + "\n", _open_output(args.output))
    return 0


def cmd_mass(args: argparse.Namespace) -> int:
    l, ldot, nu = _parse_node(args.l, args.l_dot, args.nu)
    if nu is None:
        value = mass_sl2c(l, ldot)
        unit = "m_e"
    else:
        value = mass_so42(l, ldot, nu)
        unit = "m_H"
    _emit(f"{value} * {unit}\n", _open_output(args.output))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lietower",
        description=(
            "Exact checks and diagrams for the rotation algebras so(4,2) / "
            "so(4,4) and the weight-tower periodic system built on them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the exact verification suites")
    p_verify.add_argument("--signature", required=True, help="P,Q e.g. 4,2")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_roots = sub.add_parser("roots", help="root system of the oriented ladder set")
    p_roots.add_argument("--signature", required=True, help="4,2 or 4,4")
    p_roots.add_argument("--format", choices=("text", "json", "svg"), default="text")
    p_roots.add_argument("--output", default=None)
    p_roots.set_defaults(func=cmd_roots)

    p_tower = sub.add_parser("tower", help="weight-tower projection for one spin")
    p_tower.add_argument("--spin", required=True, help="-1/2 or +1/2")
    p_tower.add_argument("--format", choices=("text", "json", "svg"), default="text")
    p_tower.add_argument("--output", default=None)
    p_tower.set_defaults(func=cmd_tower)

    p_el = sub.add_parser("elements", help="look up one element slot")
    p_el.add_argument("--z", type=int, default=None)
    p_el.add_argument("--symbol", default=None)
    p_el.add_argument(
        "--node",
        default=None,
        help="l,ldot,nu half-integers; adds the tower-node mass in units of m_H",
    )
    p_el.add_argument("--format", choices=("text", "json"), default="text")
    p_el.add_argument("--output", default=None)
    p_el.set_defaults(func=cmd_elements)

    p_mass = sub.add_parser("mass", help="exact node mass")
    p_mass.add_argument("l", help="half-integer, e.g. 1/2")
    p_mass.add_argument("l_dot", help="half-integer, e.g. 0")
    p_mass.add_argument("nu", nargs="?", default=None, help="optional radial label")
    p_mass.add_argument("--output", default=None)
    p_mass.set_defaults(func=cmd_mass)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
