"""Expected answers for every command the benchmark sends, kept independent
of ``lietower``: nothing here imports the package or reads its data file.

The element symbols, the Madelung filling order, the mass formulas, the
published rank-3 root table and the D3/D4 root systems are written out or
recomputed here from their definitions.  ``Oracle.check`` returns ``None``
for a correct result and a one-line reason otherwise; a command repeated
within a run must also repeat its exit code and output byte for byte.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import combinations
from typing import Optional

SYMBOLS = tuple(
    """H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe
    Co Ni Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn
    Sb Te I Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W
    Re Os Ir Pt Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf
    Es Fm Md No Lr Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og Uue Ubn""".split()
)
if len(SYMBOLS) != 120:
    raise RuntimeError(f"symbol table has {len(SYMBOLS)} entries, expected 120")

_SVG = "{http://www.w3.org/2000/svg}"
_HALF = Fraction(1, 2)


def _madelung_kets() -> list[tuple[int, int, int, int]]:
    """(n, l, m, 2s) for Z = 1..120: subshells sorted by (n + l, n), spin
    -1/2 before +1/2, m from -l to l."""
    subshells = sorted(
        ((n, l) for n in range(1, 10) for l in range(n)),
        key=lambda nl: (nl[0] + nl[1], nl[0]),
    )
    kets = [
        (n, l, m, two_s)
        for n, l in subshells
        for two_s in (-1, 1)
        for m in range(-l, l + 1)
    ]
    return kets[: len(SYMBOLS)]


KETS = _madelung_kets()
Z_OF_SYMBOL = {symbol: z for z, symbol in enumerate(SYMBOLS, start=1)}


def _spin_text(two_s: int) -> str:
    return "+1/2" if two_s > 0 else "-1/2"


# -- verify -----------------------------------------------------------------

# Published rank-3 root table over the axes (L3, A3, D3).
PUBLISHED_ROOTS_RANK3 = {
    "K+": (1, 1, 0), "K-": (-1, -1, 0), "J+": (-1, 1, 0), "J-": (1, -1, 0),
    "T+": (1, 0, 1), "T-": (-1, 0, -1), "S+": (-1, 0, 1), "S-": (1, 0, -1),
    "P+": (0, 1, 1), "P-": (0, -1, -1), "Q+": (0, -1, 1), "Q-": (0, 1, -1),
}
ROOTS_RANK3 = {
    name: tuple(Fraction(c) for c in vec) for name, vec in PUBLISHED_ROOTS_RANK3.items()
}

SUITES_42 = (
    "commutators", "membership", "cartan", "hydrogen-aliases", "yao-rank",
    "emulation", "subalgebra-tables", "root-table", "casimir",
)
SUITES_44 = (
    "commutators", "membership", "cartan", "split-rank", "emulation",
    "component-tables", "ladder-tables", "root-extraction",
)
SUITES_GENERIC = ("commutators", "membership", "cartan")


def _d_type_roots(rank: int) -> set[tuple[int, ...]]:
    """The roots +-e_i +- e_j (i < j) of so(2*rank), the complexified algebra."""
    roots = set()
    for i, j in combinations(range(rank), 2):
        for si in (1, -1):
            for sj in (1, -1):
                vec = [0] * rank
                vec[i], vec[j] = si, sj
                roots.add(tuple(vec))
    return roots


def _suites_from_text(out: str) -> tuple[dict[str, tuple[bool, str]], bool, str]:
    lines = out.splitlines()
    header = lines[0] if lines else ""
    suites = {}
    for line in lines[1:-1]:
        if line.startswith("  note: "):
            continue
        name, _, rest = line.strip().partition(": ")
        summary, _, mark = rest.rpartition(" [")
        suites[name] = (mark == "ok]", summary)
    passed = bool(lines) and lines[-1] == "result: ok"
    return suites, passed, header


def _check_verify(p: int, q: int, fmt: str, code: int, out: str) -> Optional[str]:
    if code != 0:
        return f"verify {p},{q} exited {code}"
    if fmt == "json":
        doc = json.loads(out)
        if doc["signature"] != [p, q]:
            return f"json signature {doc['signature']}"
        suites = {s["name"]: (s["passed"], s["summary"]) for s in doc["suites"]}
        details = {s["name"]: s["details"] for s in doc["suites"]}
        passed = doc["passed"] is True
    else:
        suites, passed, header = _suites_from_text(out)
        details = None
        if header != f"signature ({p},{q})":
            return f"text header {header!r}"
    if not passed:
        return "report does not pass"
    failing = [name for name, (ok, _) in suites.items() if not ok]
    if failing:
        return f"suites failing: {failing}"
    n_gens = (p + q) * (p + q - 1) // 2
    pairs = n_gens * (n_gens - 1) // 2
    expected_suites = {(4, 2): SUITES_42, (4, 4): SUITES_44}.get((p, q), SUITES_GENERIC)
    if tuple(suites) != expected_suites:
        return f"suites {tuple(suites)}"
    summary = {name: text for name, (_, text) in suites.items()}
    if summary["commutators"] != f"{pairs}/{pairs}":
        return f"commutators {summary['commutators']!r}, expected {pairs}/{pairs}"
    if summary["membership"] != f"g*L^T*g = -L for {n_gens} generators":
        return f"membership {summary['membership']!r}"
    cartan_rank = (p + q) // 2
    head, _, members = summary["cartan"].partition(": ")
    if head != f"rank {cartan_rank}" or len(members.split(", ")) != cartan_rank:
        return f"cartan {summary['cartan']!r}, expected rank {cartan_rank}"
    if (p, q) == (4, 2):
        if not summary["yao-rank"].startswith("15 "):
            return f"yao-rank {summary['yao-rank']!r}"
        if not summary["root-table"].startswith("12/12 published rows"):
            return f"root-table {summary['root-table']!r}"
        if "(C2=5*1, C3=0*1, C4=110*1)" not in summary["casimir"]:
            return f"casimir {summary['casimir']!r}"
        if details is not None:
            if details["commutators"]["pair_count"] != pairs:
                return "json pair_count"
            got = _roots_from_json(details["root-table"])
            if got["cartan"] != ["L12", "L34", "L56"]:
                return f"json root-table axes {got['cartan']}"
            if got["roots"] != ROOTS_RANK3:
                return "json root-table differs from the published table"
    elif (p, q) == (4, 4):
        if not summary["split-rank"].startswith("28 "):
            return f"split-rank {summary['split-rank']!r}"
        if not summary["root-extraction"].startswith("24/24 extracted"):
            return f"root-extraction {summary['root-extraction']!r}"
        if details is not None:
            if details["commutators"]["pair_count"] != pairs:
                return "json pair_count"
            problem = _check_roots44(_roots_from_json(details["root-extraction"]))
            if problem:
                return problem
    return None


# -- roots ------------------------------------------------------------------


def _roots_from_json(doc: dict) -> dict:
    return {
        "cartan": doc["cartan"],
        "roots": {
            r["name"]: tuple(Fraction(c) for c in r["components"]) for r in doc["roots"]
        },
    }


def _check_roots44(table: dict) -> Optional[str]:
    """24 roots over L12..L78: the first half restricts to the published
    rank-3 table, the whole set is the D4 root system, and every "-" root
    is the negative of its "+" partner."""
    if table["cartan"] != ["L12", "L34", "L56", "L78"]:
        return f"rank-4 axes {table['cartan']}"
    roots = table["roots"]
    if len(roots) != 24:
        return f"{len(roots)} rank-4 roots, expected 24"
    for name, vec in ROOTS_RANK3.items():
        if roots.get("1" + name) != vec + (0,):
            return f"root 1{name} is {roots.get('1' + name)}"
    if set(roots.values()) != _d_type_roots(4):
        return "rank-4 roots are not the D4 root system"
    for name, vec in roots.items():
        if name.endswith("+") and roots.get(name[:-1] + "-") != tuple(-c for c in vec):
            return f"root {name[:-1]}- is not the negative of {name}"
    return None


def _roots_from_text(out: str) -> dict:
    lines = out.splitlines()
    head, _, axes = lines[0].partition(": ")
    if head != "cartan":
        raise ValueError(f"first line {lines[0]!r}")
    roots = {}
    for line in lines[1:]:
        name, vec = line.split()
        roots[name] = tuple(Fraction(c) for c in vec.strip("()").split(","))
    return {"cartan": axes.split(", "), "roots": roots}


def _svg_root(out: str):
    root = ET.fromstring(out.encode("utf-8"))
    if root.tag != _SVG + "svg":
        raise ValueError(f"root element {root.tag}")
    return root


def _check_roots(p: int, q: int, fmt: str, code: int, out: str) -> Optional[str]:
    if code != 0:
        return f"roots {p},{q} exited {code}"
    rank = 3 if (p, q) == (4, 2) else 4
    if fmt == "svg":
        svg = _svg_root(out)
        texts = [t.text for t in svg.iter(_SVG + "text")]
        panels = [t for t in texts if t.startswith("plane (")]
        if len(panels) != rank * (rank - 1) // 2:
            return f"{len(panels)} root panels"
        names = set(PUBLISHED_ROOTS_RANK3) if rank == 3 else {
            half + name for half in "12" for name in PUBLISHED_ROOTS_RANK3
        }
        if not names <= set(texts):
            return f"root labels missing: {sorted(names - set(texts))}"
        if len(list(svg.iter(_SVG + "circle"))) != 5 * len(panels):
            return "root-panel point count"
        return None
    table = _roots_from_json(json.loads(out)) if fmt == "json" else _roots_from_text(out)
    if rank == 3:
        if table != {"cartan": ["L3", "A3", "D3"], "roots": ROOTS_RANK3}:
            return "rank-3 roots differ from the published table"
        return None
    return _check_roots44(table)


# -- tower, elements, mass --------------------------------------------------


def _tower(two_s: int) -> list[tuple[int, int, list[tuple[int, Optional[int], Optional[str]]]]]:
    """(n, l, [(m, z, symbol)]) rows: matter floors 1..8, then mirrors -1..-8."""
    slot = {
        (n, l, m): z
        for z, (n, l, m, s) in enumerate(KETS, start=1)
        if s == two_s
    }
    top = max(n for n, _, _, _ in KETS)
    rows = []
    for floor in list(range(1, top + 1)) + list(range(-1, -top - 1, -1)):
        for l in range(abs(floor)):
            points = []
            for m in range(-l, l + 1):
                z = slot.get((abs(floor), l, m))
                symbol = None if z is None else SYMBOLS[z - 1]
                if symbol is not None and floor < 0:
                    symbol = "anti-" + symbol
                points.append((m, z, symbol))
            rows.append((floor, l, points))
    return rows


def _check_tower(spin: str, fmt: str, code: int, out: str) -> Optional[str]:
    if code != 0:
        return f"tower {spin} exited {code}"
    two_s = int(Fraction(spin) * 2)
    rows = _tower(two_s)
    heading = f"spin projection s = {_spin_text(two_s)}"
    if fmt == "text":
        lines = [heading] + [
            f"n={n:>2} l={l}: " + " ".join(sym or "-" for _, _, sym in pts)
            for n, l, pts in rows
        ]
        return None if out == "\n".join(lines) + "\n" else "tower text differs"
    if fmt == "json":
        floors: dict = {}
        for n, l, pts in rows:
            floors.setdefault(n, []).append({
                "l": l,
                "points": [
                    {"m": m} if z is None else {"m": m, "z": z, "symbol": sym}
                    for m, z, sym in pts
                ],
            })
        want = {
            "s": _spin_text(two_s),
            "floors": [{"n": n, "subshells": subs} for n, subs in floors.items()],
        }
        return None if json.loads(out) == want else "tower json differs"
    svg = _svg_root(out)
    texts = sorted(t.text for t in svg.iter(_SVG + "text"))
    want_texts = sorted(
        [heading]
        + [f"n={n}" for n in dict.fromkeys(n for n, _, _ in rows)]
        + [sym for _, _, pts in rows for _, _, sym in pts if sym]
    )
    if texts != want_texts:
        return "tower svg labels differ"
    points = sum(len(pts) for _, _, pts in rows)
    if len(list(svg.iter(_SVG + "circle"))) != points:
        return "tower svg point count"
    return None


def _mass(l: Fraction, l_dot: Fraction, nu: Optional[Fraction]) -> Fraction:
    value = 2 * (l + _HALF) * (l_dot + _HALF)
    return value if nu is None else value * (nu + _HALF)


def _option(argv: list[str], flag: str) -> Optional[str]:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _check_elements(argv: list[str], code: int, out: str) -> Optional[str]:
    if code != 0:
        return f"elements exited {code}"
    z_text, symbol = _option(argv, "--z"), _option(argv, "--symbol")
    z = int(z_text) if z_text is not None else Z_OF_SYMBOL[symbol]
    n, l, m, two_s = KETS[z - 1]
    s = _spin_text(two_s)
    node_text = _option(argv, "--node")
    node = [Fraction(v) for v in node_text.split(",")] if node_text else None
    if _option(argv, "--format") == "json":
        want = {
            "z": z,
            "symbol": SYMBOLS[z - 1],
            "ket": {"n": n, "l": l, "m": m, "s": s},
            "anti": False,
        }
        if node:
            want["mass"] = {
                "node": [str(v) for v in node],
                "value": f"{_mass(*node)} * m_H",
            }
        return None if json.loads(out) == want else f"elements json for Z={z} differs"
    want = (
        f"Z={z} {SYMBOLS[z - 1]}  ket |{n},{l},{m},{s}⟩  "
        f"(floor n={n}, subshell l={l}, m={m}, spin {s})"
    )
    if node:
        want += f"\nmass({node[0]},{node[1]},{node[2]}) = {_mass(*node)} * m_H"
    return None if out == want + "\n" else f"elements text for Z={z} differs"


def _check_mass(args: list[str], code: int, out: str) -> Optional[str]:
    if code != 0:
        return f"mass exited {code}"
    values = [Fraction(a) for a in args]
    nu = values[2] if len(values) == 3 else None
    unit = "m_e" if nu is None else "m_H"
    want = f"{_mass(values[0], values[1], nu)} * {unit}\n"
    return None if out == want else f"mass {' '.join(args)} printed {out!r}, expected {want!r}"


# -- dispatch ---------------------------------------------------------------


def _signature(argv: list[str]) -> tuple[int, int]:
    p, q = _option(argv, "--signature").split(",")
    return int(p), int(q)


def expected_problem(argv: list[str], code: int, out: str) -> Optional[str]:
    """None when ``out`` and ``code`` are the right answer to ``argv``."""
    command = argv[0]
    fmt = _option(argv, "--format") or "text"
    try:
        if command == "verify":
            return _check_verify(*_signature(argv), fmt, code, out)
        if command == "roots":
            return _check_roots(*_signature(argv), fmt, code, out)
        if command == "tower":
            spin = next(a for a in argv if a.startswith("--spin=")).partition("=")[2]
            return _check_tower(spin, fmt, code, out)
        if command == "elements":
            return _check_elements(argv, code, out)
        if command == "mass":
            return _check_mass(argv[1:], code, out)
    except (ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        return f"{command} output does not parse: {type(exc).__name__}: {exc}"
    raise ValueError(f"no oracle for {argv}")


class Oracle:
    """Checks each result; repeats of a command must be byte-identical."""

    def __init__(self) -> None:
        self._seen: dict[tuple[str, ...], tuple[int, str, Optional[str]]] = {}

    def check(self, argv: list[str], code: int, out: str) -> Optional[str]:
        key = tuple(argv)
        if key in self._seen:
            first_code, first_out, verdict = self._seen[key]
            if (code, out) != (first_code, first_out):
                return "output is not byte-identical to an earlier run of the same command"
            return verdict
        verdict = expected_problem(argv, code, out)
        self._seen[key] = (code, out, verdict)
        return verdict
