"""Command-line interface: verification runs, root/tower/element queries,
JSON export, and SVG rendering.

Determinism contract: identical invocations write byte-identical output.
JSON keys are emitted in fixed construction order, SVG is assembled with
fixed element order and fixed-precision coordinates, and nothing records
time or environment.  ANSI colour appears only on a TTY and never when
NO_COLOR is set.

Input contract: the CLI reads text and the library owns every value rule.
``_parse`` reads the command line by one table, ``_COMMANDS``, which
``--help`` prints, and ``_parse_signature`` and ``_parse_half`` turn its
texts into numbers.  ``mass``, ``elements`` and ``tower`` hand these to the
library through ``_checked``.  A syntax error, or the library's
``ValueError`` (or ``KeyError`` of ``find_element``) in its own words, is
one ``error:`` line and exit 2.  ``verify`` and ``roots`` convert no
``ValueError``: there one means a failed algebra step, not bad input.

JSON byte contract: ``_to_json(doc)`` is exactly
``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"``, and the tests
keep the stdlib as the reference.  With ``indent`` the stdlib runs its
pure-Python encoder, so ``_to_json`` is its own small writer that quotes
every string and key with ``json.encoder.encode_basestring``, the C
escaper.  It takes dicts with ``str`` keys, lists, tuples (printed as
arrays), ``str``, ``int``, ``bool`` and ``None``, and raises ``TypeError``
on anything else, floats included: the algebra is exact, and floats
appear only in SVG coordinates.

Each ``cmd_*`` imports the package modules it runs when it is called, so
importing this module loads none of them: ``mass`` loads only ``labels``,
and ``tower`` and ``elements`` never load the algebra.  A name imported
inside a command is read from its module at call time, so patching
``lietower.verify.build_generators`` or ``lietower.periodic.assign_elements``
reaches the next command.
"""

from __future__ import annotations

import functools
import os
import sys
from fractions import Fraction
from io import TextIOBase
from types import SimpleNamespace

# Largest p+q that verify accepts; raising it changes which signatures exit 2.
MAX_VERIFY_DIM = 16


class CliError(Exception):
    pass


def _parse_signature(text: str):
    """The ``sopq.Metric`` of a ``P,Q`` argument."""
    from .sopq import Metric

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
    # exponent notation such as 1e100000000 would build a 10**10**8 integer;
    # Fraction reads PEP 515 underscores (1_0) only from Python 3.11 on
    if len(text) > MAX_HALF_TEXT or "e" in text.lower() or "_" in text:
        raise bad
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise bad from exc


def _checked(call, *args, **kwargs):
    """``call(*args, **kwargs)``, its ``ValueError`` or ``KeyError`` raised
    again as a ``CliError`` with the library's message."""
    try:
        return call(*args, **kwargs)
    except (ValueError, KeyError) as exc:
        raise CliError(exc.args[0]) from exc


def _open_output(output: str | None) -> TextIOBase:
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


def _emit(text: str, handle: TextIOBase) -> None:
    """Write ``text`` to a handle from ``_open_output``, closing a file.

    Stdout gets UTF-8 with LF whatever the locale, through its byte buffer
    when it has one, flushed here.  A failed write, to stdout or to a file,
    is a one-line error.  After a failed stdout write its descriptor is
    pointed at the null device: the buffer keeps the unwritten bytes, and
    the flush Python runs at exit would otherwise fail on them again and
    turn exit 2 into 120.
    """
    try:
        if handle is not sys.stdout:
            with handle:
                handle.write(text)
        elif hasattr(handle, "buffer"):
            handle.flush()
            handle.buffer.write(text.encode("utf-8"))
            handle.buffer.flush()
        else:
            handle.write(text)
    except OSError as exc:
        reason = exc.strerror or exc
        if handle is not sys.stdout:
            raise CliError(f"cannot write {handle.name}: {reason}") from exc
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, handle.fileno())
        os.close(null)
        raise CliError(f"cannot write <stdout>: {reason}") from exc


def _to_json(obj: dict) -> str:
    """``obj`` as indented JSON, under the module docstring's byte contract."""
    from json.encoder import encode_basestring as quote

    parts = []
    put = parts.append

    def write(value, pad: str) -> None:
        if isinstance(value, str):
            put(quote(value))
        elif value is None or value is True or value is False:
            put("null" if value is None else "true" if value else "false")
        elif isinstance(value, int):
            put(int.__repr__(value))
        elif isinstance(value, dict) and value:
            inner, sep = pad + "  ", "{"
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                put(f"{sep}{inner}{quote(key)}: ")
                write(item, inner)
                sep = ","
            put(pad + "}")
        elif isinstance(value, (list, tuple)) and value:
            inner, sep = pad + "  ", "["
            for item in value:
                put(sep + inner)
                write(item, inner)
                sep = ","
            put(pad + "]")
        elif isinstance(value, (dict, list, tuple)):
            put("{}" if isinstance(value, dict) else "[]")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    write(obj, "\n")
    put("\n")
    return "".join(parts)


def _use_color() -> bool:
    return "NO_COLOR" not in os.environ and sys.stdout.isatty()


@functools.cache
def _element_table() -> tuple:
    """The 120 ``periodic.Element``s, built once per process."""
    from .periodic import assign_elements

    return tuple(assign_elements())


# -- commands -----------------------------------------------------------------


def cmd_verify(args: SimpleNamespace) -> int:
    from .verify import build_generators, render_text, run_verification

    metric = _parse_signature(args.signature)
    if metric.dim > MAX_VERIFY_DIM:
        raise CliError(
            f"signature {args.signature} is too large to verify; "
            f"need P+Q <= {MAX_VERIFY_DIM}"
        )
    handle = _open_output(args.output)
    report = run_verification(build_generators(metric))
    if args.format == "json":
        _emit(_to_json(report), handle)
    else:
        _emit(render_text(report, color=args.output is None and _use_color()), handle)
    return 0 if report["passed"] else 1


def cmd_roots(args: SimpleNamespace) -> int:
    from .paper import HYDROGEN_ALIAS_PAIRS
    from .sopq import Metric, build_generators, pair_name
    from .verify import BATTERIES, SuiteContext

    metric = _parse_signature(args.signature)
    if metric not in BATTERIES:
        raise CliError("roots are published for signatures 4,2 and 4,4")
    table = SuiteContext(build_generators(metric)).roots
    if metric == Metric(4, 2):
        # the rank-3 axes carry their hydrogen-alias names: L12 is L3
        axes = {pair_name(*pair): name for name, pair in HYDROGEN_ALIAS_PAIRS.items()}
        table = table._replace(cartan=[axes.get(n, n) for n in table.cartan])
    if args.format == "json":
        text = _to_json(table.to_json_dict())
    elif args.format == "svg":
        from .svgout import svg_root_squares

        text = svg_root_squares(table)
    else:
        lines = [f"cartan: {', '.join(table.cartan)}"]
        for name, root in table.roots.items():
            lines.append(f"{name:<4} ({','.join(map(str, root))})")
        text = "\n".join(lines) + "\n"
    _emit(text, _open_output(args.output))
    return 0


def cmd_tower(args: SimpleNamespace) -> int:
    from .periodic import projection_slice

    spin = _parse_half(args.spin, "spin")
    tower = _checked(projection_slice, _element_table(), spin)
    if args.format == "json":
        text = _to_json(tower.to_json_dict())
    elif args.format == "svg":
        from .svgout import svg_tower

        text = svg_tower(tower)
    else:
        lines = [f"spin projection s = {tower.s_text}"] + [
            f"n={n:>2} l={l}: " + " ".join(e.symbol if e else "-" for e in ring.values())
            for n, rings in tower.floors.items()
            for l, ring in rings.items()
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, _open_output(args.output))
    return 0


def cmd_elements(args: SimpleNamespace) -> int:
    from .labels import mass_so42
    from .periodic import find_element

    element = _checked(find_element, _element_table(), z=args.z, symbol=args.symbol)
    mass = None
    if args.node is not None:
        parts = args.node.split(",")
        if len(parts) != 3:
            raise CliError("--node expects l,ldot,nu")
        node = [_parse_half(text, what) for text, what in zip(parts, ("l", "l-dot", "nu"))]
        mass = _checked(mass_so42, *node)
    if args.format == "json":
        doc = element.to_json_dict()
        if mass is not None:
            doc["mass"] = {"node": [str(v) for v in node], "value": f"{mass} * m_H"}
        _emit(_to_json(doc), _open_output(args.output))
        return 0
    ket = element.ket
    line = (
        f"Z={element.z} {element.symbol}  ket {ket}  "
        f"(floor n={ket.n}, subshell l={ket.l}, m={ket.m}, spin {ket.s_text})"
    )
    if mass is not None:
        l, ldot, nu = node
        line += f"\nmass({l},{ldot},{nu}) = {mass} * m_H"
    _emit(line + "\n", _open_output(args.output))
    return 0


def cmd_mass(args: SimpleNamespace) -> int:
    from .labels import mass_sl2c, mass_so42

    l, ldot = _parse_half(args.l, "l"), _parse_half(args.l_dot, "l-dot")
    if args.nu is None:
        value, unit = _checked(mass_sl2c, l, ldot), "m_e"
    else:
        value, unit = _checked(mass_so42, l, ldot, _parse_half(args.nu, "nu")), "m_H"
    _emit(f"{value} * {unit}\n", _open_output(args.output))
    return 0


# -- the command line -------------------------------------------------------------

_ABOUT = (
    "Exact checks and diagrams for the rotation algebras so(4,2) / so(4,4) "
    "and the weight-tower periodic system built on them."
)
_SIGNATURE = ("--signature", "required", "P,Q e.g. 4,2")
_TEXT_JSON = ("--format", ("text", "json"), "output format")
_TEXT_JSON_SVG = ("--format", ("text", "json", "svg"), "output format")
_OUTPUT = ("--output", None, "write to this file instead of stdout")

# The command line, read by _parse and printed by --help: per command its
# help line, then its entries (name, kind, help), where a name without
# dashes is a positional.  Kind "required" is a text that must be given,
# None an optional text, int an integer read by int(), and a tuple the
# choices, the first of them the default.  cmd_<command> runs the command.
_COMMANDS = {
    "verify": ("run the exact verification suites", _SIGNATURE, _TEXT_JSON, _OUTPUT),
    "roots": ("root system of the oriented ladder set", _SIGNATURE, _TEXT_JSON_SVG, _OUTPUT),
    "tower": (
        "weight-tower projection for one spin",
        ("--spin", "required", "-1/2 or +1/2"), _TEXT_JSON_SVG, _OUTPUT,
    ),
    "elements": (
        "look up one element slot",
        ("--z", int, "atomic number 1..120"),
        ("--symbol", None, "element symbol, e.g. Fe"),
        ("--node", None, "l,ldot,nu half-integers; adds the tower-node mass in m_H"),
        _TEXT_JSON, _OUTPUT,
    ),
    "mass": (
        "exact node mass",
        ("l", "required", "half-integer, e.g. 1/2"),
        ("l_dot", "required", "half-integer, e.g. 0"),
        ("nu", None, "optional radial label"),
        _OUTPUT,
    ),
}
# The options of which a command takes exactly one.
_ONE_OF = {"elements": ("--z", "--symbol")}


def _help(command: str | None) -> None:
    """Print the help of ``command``, or of the whole CLI, and exit 0."""
    if command is None:
        usage, about = "{" + ",".join(_COMMANDS) + "} ...", _ABOUT
        rows = {name: entry[0] for name, entry in _COMMANDS.items()}
    else:
        about, *entries = _COMMANDS[command]
        usage, rows = command, {}
        for name, kind, text in entries:
            meta = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name[2:].upper()
            shown = f"{name} {meta}" if name[0] == "-" else name
            usage += f" {shown}" if kind == "required" else f" [{shown}]"
            rows[shown] = text
        if command in _ONE_OF:
            about += f"; give exactly one of {' and '.join(_ONE_OF[command])}"
    width = max(map(len, rows))
    lines = [f"usage: lietower {usage}", "", about, ""]
    lines += [f"  {name:<{width}}  {text}" for name, text in rows.items()]
    _emit("\n".join(lines) + "\n", sys.stdout)
    raise SystemExit(0)


def _parse(argv: list[str]) -> tuple[str, SimpleNamespace]:
    """The command that ``argv`` names and its arguments, read by ``_COMMANDS``.
    Options start with ``--``, ``-h`` aside, and ``--`` ends them; a value
    follows ``=`` or is the next word, which must not start with ``--``."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _help(None)
    if command not in _COMMANDS:
        got = "" if command is None else f", not {command!r}"
        raise CliError(f"lietower: give a command, one of {', '.join(_COMMANDS)}{got}")
    at, entries, words = f"lietower {command}: ", _COMMANDS[command][1:], iter(argv[1:])
    given, texts = {}, []
    for word in words:
        if word == "--":
            texts += words
        elif word in ("-h", "--help"):
            _help(command)
        elif not word.startswith("--"):
            texts.append(word)
        else:
            flag, eq, value = word.partition("=")
            if flag not in {name for name, _, _ in entries}:
                raise CliError(f"{at}unknown option {flag}")
            if not eq:
                value = next(words, None)
                if value is None or value.startswith("--"):
                    raise CliError(f"{at}{flag} expects a value")
            given[flag] = value  # a repeated option keeps its last value
    positionals = [name for name, _, _ in entries if name[0] != "-"]
    if len(texts) > len(positionals):
        raise CliError(f"{at}unexpected argument {texts[len(positionals)]!r}")
    given.update(zip(positionals, texts))
    group = _ONE_OF.get(command, ())
    if group and sum(name in given for name in group) != 1:
        raise CliError(f"{at}give exactly one of {' and '.join(group)}")
    args = SimpleNamespace()
    for name, kind, _ in entries:
        value = given.get(name, kind[0] if isinstance(kind, tuple) else None)
        if value is None and kind == "required":
            raise CliError(f"{at}{name} is required")
        if isinstance(kind, tuple) and value not in kind:
            raise CliError(f"{at}{name} must be one of {', '.join(kind)}, not {value!r}")
        if kind is int and value is not None:
            try:
                value = int(value)
            except ValueError:
                raise CliError(f"{at}{name} must be an integer, not {value!r}") from None
        setattr(args, name.lstrip("-"), value)
    return command, args


def main(argv: list[str] | None = None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        return globals()[f"cmd_{command}"](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
