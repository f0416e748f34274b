"""Command-line front end: construct, verify, witness, search, table, transform.

Colorings travel as JSON documents {"n": ..., "k": ..., "edges": [[i, j, c],
...]} with 1-indexed endpoints, i < j, and a tight palette.  Exit codes:
0 success, 1 verification found a violation (or no witness applies), 2 bad
input or flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import deque
from itertools import chain, repeat
from operator import add, lt, setitem

from .constructions import FamilyKind, build, check_n
from .core import EdgeColoring, _endpoint_columns, comb_certificate, edge_index
from .search import SearchReport, brute_force_poly, structured_poly, theorem_table
from .transforms import improve_toward_combed, recolor_unitary_triple
from .verify import NoWitness, adversarial_member, is_polychromatic

# fixed 12-entry palette for DOT output, cycled by color index
DOT_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
)


class CliError(Exception):
    pass


def coloring_to_document(c: EdgeColoring) -> dict:
    return {"n": c.n, "k": c.k, "edges": list(map(list, c.edges()))}


def _int_field(value, what: str) -> int:
    # bool is an int subclass, and floats would be silently truncated
    if type(value) is not int:
        raise CliError(f"{what} must be an integer, got {value!r}")
    return value


def _checked_colors(edges: list, n: int, k: int) -> tuple[list[int], set[int]] | None:
    """Flat pair-order colors of the m = n(n-1)/2 entries of edges and their
    set, or None when a check over all of them fails.  The checks are those
    of _raise_first_bad_entry, each made over a whole column."""
    if not all(map(isinstance, edges, repeat(list))) or set(map(len, edges)) != {3}:
        return None
    flat = list(chain.from_iterable(edges))
    # before any comparison: True == 1 and 1.0 == 1
    if set(map(type, flat)) != {int}:
        return None
    first, second, cols = flat[0::3], flat[1::3], flat[2::3]
    palette = set(cols)
    if min(palette) < 1 or max(palette) > k:
        return None
    canon_first, canon_second = _endpoint_columns(n)
    if first == list(canon_first) and second == list(canon_second):
        # pair order, as coloring_to_document writes: cols is the flat tuple
        return cols, palette
    if min(first) < 1 or max(second) > n or not all(map(lt, first, second)):
        return None
    # edge_index is linear in j, so the slot of pair (i, j) is off[i] + j
    off = [edge_index(n, i, 0) for i in range(n + 1)]
    colors = [0] * len(edges)
    slots = map(add, map(off.__getitem__, first), second)
    deque(map(setitem, repeat(colors), slots, cols), maxlen=0)
    # m pairs in range leave a slot at 0 only when one of them repeats
    return None if 0 in colors else (colors, palette)


def _raise_first_bad_entry(edges: list, n: int, k: int) -> None:
    """Raise the CliError that names the first bad entry of edges.

    Called only when _checked_colors has failed, so some entry is bad: not
    a list of three ints, bad endpoints, a color outside 1..k, or a pair
    seen before.
    """
    seen = set()
    for item in edges:
        if not isinstance(item, list) or len(item) != 3:
            raise CliError(f"bad edge entry {item!r}")
        i, j, col = (_int_field(x, "edge entry") for x in item)
        if not (1 <= i < j <= n):
            raise CliError(f"bad edge endpoints ({i}, {j})")
        if not (1 <= col <= k):
            raise CliError(f"color {col} outside 1..{k}")
        if (i, j) in seen:
            raise CliError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))


def coloring_from_document(doc: dict) -> EdgeColoring:
    """Parse and validate a coloring document.

    The entries are checked as a whole, column by column.  A document in
    pair order, as coloring_to_document writes it, is read by comparing its
    endpoint columns with K_n's; any other order is scattered into pair
    order.  Only a document that fails a check is scanned entry by entry, to
    name its first bad one.
    """
    try:
        n = _int_field(doc["n"], "n")
        k = _int_field(doc["k"], "k")
        edges = doc["edges"]
    except (KeyError, TypeError) as exc:
        raise CliError(f"malformed coloring document: {exc}")
    if not isinstance(edges, list):
        raise CliError("edges must be a list")
    if n < 2 or len(edges) != n * (n - 1) // 2:
        raise CliError(f"expected {n * (n - 1) // 2} edges for n={n}, got {len(edges)}")
    checked = _checked_colors(edges, n, k)
    if checked is None:
        _raise_first_bad_entry(edges, n, k)
    colors, palette = checked
    # palette lies in 1..k, so it is tight when it has k colors
    if len(palette) != k:
        raise CliError(f"palette not tight: colors {sorted(palette)} vs k={k}")
    # colors is in pair order with the palette exactly 1..k: canonical as is
    return EdgeColoring(n, k, tuple(colors))


def coloring_to_dot(c: EdgeColoring) -> str:
    lines = [f"graph k{c.n} {{"]
    for (i, j, col) in c.edges():
        hexcode = DOT_PALETTE[(col - 1) % len(DOT_PALETTE)]
        lines.append(f'  {i} -- {j} [color="{hexcode}", label={col}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}")
    else:
        sys.stdout.write(text)


def _load_coloring(path: str) -> EdgeColoring:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        # json's decoder recurses once per nesting level
        raise CliError(f"cannot read coloring from {path}: {exc}")
    return coloring_from_document(doc)


def _emit_coloring(c: EdgeColoring, fmt: str, out: str | None) -> None:
    if fmt == "dot":
        _emit(coloring_to_dot(c), out)
    else:
        # compact: indent would force json's pure-Python encoder
        _emit(json.dumps(coloring_to_document(c)) + "\n", out)


def _cmd_construct(args) -> int:
    c = build(args.family, args.n)
    _emit_coloring(c, args.format, args.out)
    return 0


def _cmd_verify(args) -> int:
    c = _load_coloring(args.input)
    cert = is_polychromatic(c, args.family)
    if cert.polychromatic:
        _emit(f"polychromatic: n={c.n} k={c.k} family={args.family.value}\n", args.out)
        return 0
    edges = list(cert.witness.edges)
    _emit(f"violated: color {cert.violating_color} avoided by {args.family.value} member {edges}\n", args.out)
    return 1


def _cmd_witness(args) -> int:
    c = _load_coloring(args.input)
    check_n(args.family, c.n)
    ic = comb_certificate(c)
    if ic is None:
        raise CliError("input coloring is not combed; no inherited classes exist")
    try:
        witness = adversarial_member(ic, args.color, args.family)
    except NoWitness as exc:
        _emit(f"no witness: {exc}\n", args.out)
        return 1
    doc = {
        "family": args.family.value,
        "avoided_color": args.color,
        "edges": [list(e) for e in witness.edges],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _report_to_text(report: SearchReport) -> str:
    lines = [
        f"n={report.n} family={report.kind.value} mode={report.mode}",
        f"optimum k = {report.optimum}",
        f"nodes explored = {report.nodes}",
        f"wall time = {report.wall_time:.3f}s",
        "one optimal coloring:",
        json.dumps(coloring_to_document(report.coloring)),
    ]
    return "\n".join(lines) + "\n"


def _cmd_search(args) -> int:
    if args.mode == "full":
        report = brute_force_poly(args.n, args.family)
    else:
        report = structured_poly(args.n, args.family, args.mode)
    _emit(_report_to_text(report), args.out)
    return 0


def _parse_range(spec: str) -> range:
    try:
        lo, hi = spec.split(":")
        ns = range(int(lo), int(hi) + 1)
    except ValueError:
        raise CliError(f"bad range {spec!r}, expected a:b")
    if not ns:
        raise CliError(f"empty range {spec!r}")
    return ns


def _cmd_table(args) -> int:
    if (args.n is None) == (args.n_range is None):
        raise CliError("table needs exactly one of --n and --n-range")
    ns = range(args.n, args.n + 1) if args.n_range is None else _parse_range(args.n_range)
    rows = theorem_table(args.family, ns)
    if not rows:
        raise CliError(f"no n in {ns.start}..{ns.stop - 1} is valid for family {args.family.value}")
    records = [
        {
            "n": r.n, "family": r.kind.value,
            "construction_k": r.construction_k, "formula_k": r.formula_k,
            "search_k": r.search_k, "search_mode": r.search_mode,
            "agrees": r.agrees,
        }
        for r in rows
    ]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(records[0])
        writer.writerows(["" if v is None else str(v).lower() for v in rec.values()] for rec in records)
        _emit(buf.getvalue(), args.out)
    elif args.format == "json":
        _emit(json.dumps(records, indent=2) + "\n", args.out)
    else:
        lines = ["   n construction formula search agree"]
        for r in rows:
            search = str(r.search_k) if r.search_k is not None else "-"
            lines.append(
                f"{r.n:4d} {r.construction_k:12d} {r.formula_k:7d} "
                f"{search:>6s} {'yes' if r.agrees else 'NO':>5s}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_transform(args) -> int:
    if (args.op == "recolor") != (args.vertices is not None):
        raise CliError("--vertices x,y,z goes with --op recolor, and only with it")
    c = _load_coloring(args.input)
    if args.op == "improve":
        result = improve_toward_combed(c, args.family)
        # stdout may carry the coloring document, so the summary goes to stderr
        print(
            f"moves={result.moves} combed={str(result.combed).lower()} "
            f"constant_set={result.constant_set_size}",
            file=sys.stderr,
        )
        _emit_coloring(result.coloring, args.format, args.out)
    else:
        try:
            x, y, z = (int(v) for v in args.vertices.split(","))
        except ValueError:
            raise CliError("recolor needs --vertices x,y,z")
        _emit_coloring(recolor_unitary_triple(c, x, y, z), args.format, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polykn",
        description="Polychromatic edge-colorings of complete graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--family", required=True, choices=["f1", "f2", "hc"])
        p.add_argument("--out", default=None)

    p = sub.add_parser("construct", help="emit the built-in polychromatic coloring")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", default="json", choices=["json", "dot"])

    p = sub.add_parser("verify", help="check a coloring document for polychromaticity")
    common(p)
    p.add_argument("--input", required=True)

    p = sub.add_parser("witness", help="adversarial member for a failing majority color")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--color", type=int, required=True)

    p = sub.add_parser("search", help="exact or restricted search for the optimum")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", default="full", choices=["full", "ordered", "combed"])

    p = sub.add_parser("table", help="construction/formula/search comparison table")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-range", dest="n_range", default=None)
    p.add_argument("--format", default="table", choices=["table", "csv", "json"])

    p = sub.add_parser("transform", help="apply a coloring transform")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--op", default="improve", choices=["improve", "recolor"])
    p.add_argument("--vertices", default=None, help="x,y,z for --op recolor")
    p.add_argument("--format", default="json", choices=["json", "dot"])

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    args.family = FamilyKind.parse(args.family)
    handlers = {
        "construct": _cmd_construct,
        "verify": _cmd_verify,
        "witness": _cmd_witness,
        "search": _cmd_search,
        "table": _cmd_table,
        "transform": _cmd_transform,
    }
    try:
        return handlers[args.command](args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
