"""Command-line surface for the deformation toolkit.

Every command reads a presentation either from a DSL file or from the
built-in catalog, then prints JSON (default) or Markdown.  Exit code 0
covers successful runs including published-classification
disagreements; 1 flags internal inconsistencies or failed validation;
2 flags bad input (parse errors, invalid words, unusable modules).
"""

from __future__ import annotations

import argparse
import json
import sys

from .homext import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    brute_force_ext,
    ext1_dim,
    hom_dim,
)
from .lifts import fingerprint
from .presentation import (
    DSLError,
    Presentation,
    catalog_presentation,
    parse_presentation,
    radical_series,
    validate_gentle,
)
from .strings import StringError, make_string, string_module
from .sweep import sweep_catalog
from .udr import universal_deformation_ring


def _check_limits(args) -> None:
    """The flag checks argparse does not make; a non-prime --q is
    rejected where its first module is built."""
    if "n_max" in args and args.n_max < 2:
        raise ValueError("n-max must be at least 2")
    if "budget" in args and args.budget <= 0:
        raise ValueError("budget must be positive")


def _load_presentation(args) -> tuple[str, Presentation]:
    if args.catalog and args.source:
        raise ValueError("give either a DSL file or --catalog, not both")
    if args.catalog:
        return args.catalog, catalog_presentation(args.catalog)
    if args.source:
        with open(args.source) as fh:
            return args.source, parse_presentation(fh.read())
    raise ValueError("a DSL file or --catalog NAME is required")


def _emit(args, payload: dict, markdown: str) -> None:
    """Write the report as JSON or as Markdown, per --format, to
    --output or stdout."""
    text = json.dumps(payload, indent=2) if args.format == "json" else markdown
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _render_census_line(census: dict) -> str:
    pairs = ", ".join(f"{n} -> {c}" for n, c in census["census"])
    matched = ", ".join(census["matches"]) if census["matches"] else "none"
    return f"{pairs} (matches: {matched})"


def cmd_validate(args) -> int:
    name, p = _load_presentation(args)
    report = validate_gentle(p)
    payload = {"source": name, "ok": report.ok,
               "violations": report.violations}
    lines = [f"# validation of {name}", f"ok: {report.ok}"]
    lines += [f"- violation: {v}" for v in report.violations]
    _emit(args, payload, "\n".join(lines))
    return 0 if report.ok else 1


def cmd_udr(args) -> int:
    name, p = _load_presentation(args)
    w = make_string(p, args.word)
    d = universal_deformation_ring(p, w, q=args.q, n_max=args.n_max,
                                   budget=args.budget)
    payload = {"algebra": name, "word": w.display(), "q": args.q,
               **d.as_dict()}
    lines = [f"# universal deformation ring over {name}",
             f"word: {w.display()}",
             f"ring: {d.ring}",
             f"tangent dim: {d.tangent_dim}",
             f"census: {_render_census_line(d.evidence['census'])}",
             f"published agreement: {d.paper_agreement}"]
    _emit(args, payload, "\n".join(lines))
    return 0


def _pair_dims(args, which: str) -> int:
    name, p = _load_presentation(args)
    wm = make_string(p, args.word_m)
    wn = make_string(p, args.word_n)
    m = string_module(p, wm, args.q)
    n = string_module(p, wn, args.q)
    if which == "hom":
        value = hom_dim(m, n)
    else:
        value = ext1_dim(m, n)
    payload = {"algebra": name, "from": wm.display(), "to": wn.display(),
               "q": args.q, f"{which}_dim": value}
    _emit(args, payload, f"{which}({wm.display()}, {wn.display()}) = {value}")
    return 0


def cmd_hom(args) -> int:
    return _pair_dims(args, "hom")


def cmd_ext(args) -> int:
    return _pair_dims(args, "ext1")


def cmd_tangent(args) -> int:
    name, p = _load_presentation(args)
    w = make_string(p, args.word)
    V = string_module(p, w, args.q)
    value = ext1_dim(V, V)
    brute = None
    if args.check:
        brute = brute_force_ext(V, V, budget=args.budget)
    payload = {"algebra": name, "word": w.display(), "q": args.q,
               "tangent_dim": value}
    if brute is not None:
        payload["tangent_dim_brute"] = brute
    extra = f" (oracle {brute})" if brute is not None else ""
    _emit(args, payload, f"tangent dim of {w.display()} = {value}{extra}")
    if brute is not None and brute != value:
        print("error: ext engines disagree", file=sys.stderr)
        return 1
    return 0


def cmd_census(args) -> int:
    name, p = _load_presentation(args)
    w = make_string(p, args.word)
    census = fingerprint(string_module(p, w, args.q), args.n_max,
                         budget=args.budget)
    payload = {"algebra": name, "word": w.display(), **census.as_dict()}
    _emit(args, payload, f"census of {w.display()}: "
          + _render_census_line(census.as_dict()))
    return 0


def cmd_radical(args) -> int:
    name, p = _load_presentation(args)
    report = radical_series(p, args.vertex, args.depth)
    payload = {"algebra": name, "vertex": report.vertex,
               "depth": report.depth, "layers": report.layers,
               "arms": report.arms}
    lines = [f"# radical series of the projective at {report.vertex}"]
    lines += [f"rad^{i}: " + (" ".join(layer) or "(zero)")
              for i, layer in enumerate(report.layers)]
    lines += [f"arm via {arm['first_arrow']}: " + " ".join(arm["targets"])
              for arm in report.arms]
    _emit(args, payload, "\n".join(lines))
    return 0


def _sweep_markdown(report) -> str:
    lines = ["# classification sweep",
             f"q = {report.q}, max word length {report.max_len}, "
             f"census depth {report.n_max}",
             "",
             "| algebra | word | dim | ring | tangent | published "
             "| agreement |",
             "|---|---|---|---|---|---|---|"]
    for row in report.rows:
        lines.append(
            f"| {row.algebra} | {row.word} | {row.total_dim} | {row.ring} "
            f"| {row.tangent_dim} | {row.published or '-'} "
            f"| {row.agreement} |")
    summary = report.summary
    lines += ["", "## summary"]
    lines.append(f"rows: {summary['rows']}")
    for ring, count in summary["rings"].items():
        lines.append(f"- {ring}: {count}")
    lines.append(f"disagreements: {summary['disagreements']}")
    ledger = report.ledger
    if ledger:
        lines += ["", "## disagreement ledger",
                  "| algebra | word | computed | published |",
                  "|---|---|---|---|"]
        for item in ledger:
            lines.append(f"| {item['algebra']} | {item['word']} "
                         f"| {item['computed']} | {item['published']} |")
    if report.internal_errors:
        lines += ["", "## internal errors"]
        lines += [f"- {e}" for e in report.internal_errors]
    return "\n".join(lines)


def cmd_sweep(args) -> int:
    names = ([name.strip() for name in args.only.split(",")]
             if args.only is not None else None)
    report = sweep_catalog(q=args.q, max_len=args.max_len,
                           n_max=args.n_max, budget=args.budget, names=names)
    _emit(args, report.as_dict(), _sweep_markdown(report))
    return 1 if report.internal_errors else 0


def _add_source_args(sp) -> None:
    sp.add_argument("source", nargs="?",
                    help="path to a presentation DSL file")
    sp.add_argument("--catalog", metavar="NAME",
                    help="use a built-in catalog presentation instead")


def _add_common_flags(sp, q=True, max_len=False, n_max=False,
                      budget=False) -> None:
    if q:
        sp.add_argument("--q", type=int, default=2, help="field size (prime)")
    if max_len:
        sp.add_argument("--max-len", type=int, default=6,
                        help="longest string word to consider")
    if n_max:
        sp.add_argument("--n-max", type=int, default=3,
                        help="deepest census level")
    if budget:
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="size cap on enumerations and on the census "
                             "tree's held entries")
    sp.add_argument("--format", choices=("json", "md"), default="json")
    sp.add_argument("--output", metavar="FILE",
                    help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gentledef",
        description="deformation rings of string modules over gentle "
                    "algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a presentation is gentle")
    _add_source_args(sp)
    _add_common_flags(sp, q=False)
    sp.set_defaults(handler=cmd_validate)

    sp = sub.add_parser("udr", help="classify one module's deformation ring")
    _add_source_args(sp)
    sp.add_argument("word", help='string word, e.g. "b*c*a" or "simple 1"')
    _add_common_flags(sp, n_max=True, budget=True)
    sp.set_defaults(handler=cmd_udr)

    sp = sub.add_parser("hom", help="dimension of Hom between two modules")
    _add_source_args(sp)
    sp.add_argument("word_m")
    sp.add_argument("word_n")
    _add_common_flags(sp)
    sp.set_defaults(handler=cmd_hom)

    sp = sub.add_parser("ext", help="dimension of Ext^1 between two modules")
    _add_source_args(sp)
    sp.add_argument("word_m")
    sp.add_argument("word_n")
    _add_common_flags(sp)
    sp.set_defaults(handler=cmd_ext)

    sp = sub.add_parser("tangent", help="tangent dimension of one module")
    _add_source_args(sp)
    sp.add_argument("word")
    sp.add_argument("--check", action="store_true",
                    help="cross-check against the enumeration oracle")
    _add_common_flags(sp, budget=True)
    sp.set_defaults(handler=cmd_tangent)

    sp = sub.add_parser("census", help="lift counts per coefficient level")
    _add_source_args(sp)
    sp.add_argument("word")
    _add_common_flags(sp, n_max=True, budget=True)
    sp.set_defaults(handler=cmd_census)

    sp = sub.add_parser("radical", help="radical series of a projective")
    _add_source_args(sp)
    sp.add_argument("vertex")
    sp.add_argument("depth", type=int)
    _add_common_flags(sp, q=False)
    sp.set_defaults(handler=cmd_radical)

    sp = sub.add_parser("sweep", help="classify the whole catalog")
    sp.add_argument("--only", metavar="NAMES",
                    help="comma-separated catalog names to include")
    _add_common_flags(sp, max_len=True, n_max=True, budget=True)
    sp.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_limits(args)
        return args.handler(args)
    except (DSLError, StringError, BudgetExceededError, ValueError,
            OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
