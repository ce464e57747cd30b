"""Command-line front end.

Verbs: walls, product, chamber, stack, git-walls, check.  Output is
human-readable text by default; --format json switches to the JSON schemas
of the underlying modules, and product also renders ascii/svg diagrams.
Identical invocations produce byte-identical output.

main loads the registry once and hands it to the verb, which returns its
exit code and its whole output; main writes that to stdout once, so an
error leaves stdout empty.  Every product format, the text report too, is
arrangement.render's.  check verifies only what loading has not proved: a
loaded record's numerics are consistent, its t-walls the c-walls' image.

Exit codes: 0 success, 1 usage error, 2 computation error (missing data,
out-of-range input, unsupported configuration), 3 consistency failure (a
cross-check that should hold did not).

A request is one cold process, so arrangement, stackalg and gitwalls are
imported only by the verbs and checks that run them.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import invariants, wallsets
from .errors import ConsistencyError, MissingDataError, UnsupportedError, WallcrossError
from .exactq import format_rational, parse_rational


MAX_ERROR_LINE = 1000  # characters of an error line; a longer one keeps its head


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we signal exit 1
        raise _UsageError(message)


# argparse reports an ArgumentTypeError's message, but a ValueError only by the decoder's name
def _id_list(text: str) -> tuple[str, ...]:
    ids = tuple(part.strip() for part in text.split(",") if part.strip())
    if not ids:
        raise argparse.ArgumentTypeError(f"no family ids in {text!r}")
    return ids


def _rational_list(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(parse_rational(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


def _iso_classes(text: str) -> tuple[frozenset[str], ...]:
    """Parse "A=B,C=D" into iso classes, merging overlapping pairs."""
    classes: list[set[str]] = []
    for pair in text.split(","):
        names = {part.strip() for part in pair.split("=") if part.strip()}
        if len(names) < 2:
            raise argparse.ArgumentTypeError(f"iso pair {pair!r} needs two distinct ids")
        touching = [cls for cls in classes if cls & names]
        classes = [cls for cls in classes if not cls & names] + [names.union(*touching)]
    return tuple(frozenset(cls) for cls in classes)


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _records(registry, ids):
    if missing := [fid for fid in ids if fid not in registry]:
        raise MissingDataError("unknown family id(s): " + ", ".join(sorted(missing)))
    return [registry[fid] for fid in ids]


def _cmd_walls(args, registry) -> tuple[int, str]:
    (rec,) = _records(registry, [args.family])
    ws = rec.walls(args.space)
    if args.format == "json":
        return 0, _json({"family": rec.id, "space": args.space, "walls": ws.to_json()})
    return 0, f"{ws}\n"


def _cmd_product(args, registry) -> tuple[int, str]:
    from . import arrangement

    product = arrangement.build_product(_records(registry, args.families), args.space)
    if args.fold:
        product = arrangement.SymmetricFolding(product, arrangement.grouping_by_id(product))
    return 0, arrangement.render(product, args.format)


def _cmd_chamber(args, registry) -> tuple[int, str]:
    from . import arrangement

    arr = arrangement.build_product(_records(registry, args.families), args.space)
    cell = arr.locate(args.point)
    point = [format_rational(x) for x in args.point]
    if args.format == "json":
        return 0, _json({"families": list(args.families), "space": args.space,
                         "point": point, "cell": arrangement.cell_json(cell)})
    return 0, (f"point: {', '.join(point)}\ncell: {arrangement.cell_str(cell)}\n"
               f"codim: {arrangement.cell_codim(cell)}\n")


def _cmd_stack(args, registry) -> tuple[int, str]:
    from . import stackalg

    _records(registry, [*args.factors, *(fid for cls in args.iso for fid in cls)])
    descriptor = stackalg.canonicalize(list(args.factors), args.iso, stackalg.point_ids(registry))
    kind = None
    if len(args.factors) == 2:
        kind = stackalg.classify_product_map(list(args.factors), args.iso)
    if args.format == "json":
        return 0, _json({"factors": list(args.factors),
                         "iso": sorted(sorted(cls) for cls in args.iso),
                         "descriptor": descriptor.to_json(),
                         "product_map": kind.value if kind else None})
    lines = ["factors: " + ", ".join(args.factors), f"descriptor: {descriptor}"]
    if kind is not None:
        lines.append(f"product map: {kind.value}")
    return 0, "\n".join(lines) + "\n"


def _cmd_git_walls(args, registry) -> tuple[int, str]:
    if args.degree != 3:
        raise UnsupportedError(f"degree {args.degree} is registry-only; "
                               "only degree 3 is recomputed")
    from . import gitwalls

    reference = registry["dp3"].t_walls  # an overlay can replace dp3, not remove it
    doc = gitwalls.wall_report(3, 3)
    match = reference is not None and doc["walls"] == reference.to_json()
    if args.format == "json":
        out = _json({**doc, "registry_match": match})
    else:
        lines = [" ".join(doc["walls"])]
        if reference is not None:
            lines += [f"registry t-walls (dp3): {reference}", f"match: {'yes' if match else 'NO'}"]
        out = "\n".join(lines) + "\n"
    return 3 if reference is not None and not match else 0, out


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ConsistencyError(what)


def _check_moebius(registry) -> str:
    ok = []
    for fid, rec in sorted(registry.items()):
        if rec.reparam is None or rec.c_walls is None:
            continue
        inv = rec.reparam.inverse()
        _require(all(inv(t) == c for c, t in zip(rec.c_walls, rec.t_walls)), f"{fid} inverse")
        _require(rec.reparam(0) == 0 and rec.reparam(1) == 1, f"{fid} endpoints")
        ok.append(fid)
    return "reparam round-trips fix walls and endpoints: " + ", ".join(ok)


def _check_registry(registry) -> str:
    # FamilyRecord refuses inconsistent numerics, so every loaded record passed
    return f"registry numerics consistent ({len(registry)} families)"


def _check_products(registry) -> str:
    recs = sorted(registry.values(), key=lambda r: r.id)
    pairs = 0
    for a in recs:
        for b in recs:
            prod = invariants.product_numerics(a.numerics(), b.numerics())
            _require(not invariants.consistency_check(prod), f"{a.id} x {b.id}")
            pairs += 1
    return f"product volume/hilbert identity holds ({pairs} pairs)"


def _check_arrangement(registry) -> str:
    from . import arrangement

    arr = arrangement.build_product([registry["dp3"], registry["dp4"]])
    counts = [len(arr.cells(j)) for j in range(3)]
    _require(counts == [36, 60, 25], f"dp3 x dp4 cell counts {counts}")
    graph = arrangement.crossing_graph(arr)
    _require(len(graph.edges) == 60 and graph.is_connected(), "crossing graph")
    sym = arrangement.build_product([registry["dp3"], registry["dp3"]])
    folding = arrangement.SymmetricFolding(sym, arrangement.grouping_by_id(sym))
    arrangement.render(folding, "text")  # raises unless closed form and Burnside agree
    _require(folding.orbit_count(0) == 21, "dp3 x dp3 chamber orbits")
    return "dp3 x dp4 cells 36/60/25, graph connected, folding 21 both ways"


def _check_stack(registry) -> str:
    from . import stackalg

    descriptor = str(stackalg.canonicalize({"dp3": 1, "dp4": 1}, (), stackalg.point_ids(registry)))
    _require(descriptor == "dp3 x dp4", f"descriptor {descriptor}")
    kind = stackalg.classify_product_map({"dp3": 2})
    _require(kind is stackalg.MapKind.S2_GERBE, f"product map {kind}")
    model = stackalg.FiniteGroupoidModel(("a", "b", "c"), ((1, 0, 2),))
    card = stackalg.groupoid_cardinality(model)
    _require(card == Fraction(3, 2), f"groupoid cardinality {card}")
    return "descriptor algebra and groupoid cardinality examples hold"


def _cmd_check(args, registry) -> tuple[int, str]:
    lines, failed = [], False
    for check in (_check_moebius, _check_registry, _check_products, _check_arrangement,
                  _check_stack):
        try:
            lines.append("ok " + check(registry))
        except WallcrossError as exc:
            failed = True
            lines.append(f"FAIL {check.__name__}: {exc}")
    lines.append("CHECKS FAILED" if failed else "all checks passed")
    return 3 if failed else 0, "\n".join(lines) + "\n"


def _build_parser() -> _Parser:
    parser = _Parser(prog="wallcross", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--registry", metavar="PATH", default=None,
                       help="JSON overlay extending the compiled-in registry")
        return p

    p = add("walls", _cmd_walls, help="print one family's wall set")
    p.add_argument("--family", required=True)
    p.add_argument("--space", choices=("c", "t"), default="c")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("product", _cmd_product, help="product arrangement report or diagram")
    p.add_argument("--families", type=_id_list, required=True,
                   help="comma-separated family ids")
    p.add_argument("--space", choices=("c", "t"), default="c")
    p.add_argument("--fold", action="store_true",
                   help="fold positions with equal family ids")
    p.add_argument("--format", choices=("text", "json", "ascii", "svg"),
                   default="text")

    p = add("chamber", _cmd_chamber, help="locate a point in a product arrangement")
    p.add_argument("--families", type=_id_list, required=True)
    p.add_argument("--point", type=_rational_list, required=True,
                   help="comma-separated rationals, one per factor")
    p.add_argument("--space", choices=("c", "t"), default="c")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("stack", _cmd_stack, help="canonical moduli descriptor of a product")
    p.add_argument("--factors", type=_id_list, required=True,
                   help='comma-separated ids with repetition, e.g. "dp3,dp4,dp4"')
    p.add_argument("--iso", type=_iso_classes, default=(),
                   help='asserted isomorphisms, e.g. "A=B,C=D"')
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("git-walls", _cmd_git_walls,
            help="recompute degree-3 slope walls and compare to the registry")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--format", choices=("text", "json"), default="text")

    add("check", _cmd_check, help="run the internal consistency suite")
    return parser


def _error(line: str) -> None:
    """Write one error line to stderr, cut to MAX_ERROR_LINE characters and
    marked " [...]" if longer; its head names the record and the fault."""
    cut = line[: MAX_ERROR_LINE - 6] + " [...]"
    print(line if len(line) <= MAX_ERROR_LINE else cut, file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _error(f"usage error: {exc}")
        return 1
    except SystemExit:  # --help: _Parser.error takes every other exit
        return 0
    try:
        code, out = args.func(args, wallsets.load_registry(args.registry))
    except (WallcrossError, ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        _error(f"error: {exc}")
        return 3 if isinstance(exc, ConsistencyError) else 2
    sys.stdout.write(out)
    return code


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
