"""Command-line front door over the JSON file formats.

Subcommands generate graphs, run the exact search, build representations
from certificates, replay derivation scripts, verify finished
representations, emit chi-realizers, and evaluate the closed-form bounds.
Everything on disk is plain JSON with sorted keys, so reruns with the same
inputs produce byte-identical files and diffs stay readable.

Each subcommand imports the modules it uses, so a run loads only what its
subcommand needs, and only the invoked subcommand's parser gets its
arguments.

Exit codes: 0 success, 1 a finished representation failed verification,
2 invalid input (bad file, flag, certificate, or script), 3 a search
budget ran out before an answer, 4 an internal error (a bug, reported on
one stderr line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .errors import BudgetExhausted, InvalidInput

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# file plumbing
# ---------------------------------------------------------------------------


# one interval [[n, d], [n, d]] of a box row, as json.dumps(indent=2) lays it out
_INTERVAL = ("      [\n        [\n          %d,\n          %d\n        ],\n"
             "        [\n          %d,\n          %d\n        ]\n      ]")


def _dump(doc) -> str:
    """Canonical JSON text: sorted keys, two-space indent, a newline at the
    end.  A dict goes through json.dumps.  A BoxRepresentation is written
    straight from its Intervals, the four ints of each through one %d
    template, in the bytes json.dumps gives for boxes.box_rep_to_dict(doc):
    rows keyed in string order ("10" before "2")."""
    if isinstance(doc, dict):
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    layers = doc.layers
    ints = []
    for v in sorted(layers[0], key=str):
        ints.append(v)
        for layer in layers:
            lo, hi = layer[v]
            ints += lo.as_integer_ratio()
            ints += hi.as_integer_ratio()
    row = '    "%d": [\n' + ",\n".join([_INTERVAL] * len(layers)) + "\n    ]"
    rows = ",\n".join([row] * len(layers[0])) % tuple(ints)
    return '{\n  "d": %d,\n  "vertices": {\n%s\n  }\n}\n' % (len(layers), rows)


def _write_atomic(target: str, doc) -> None:
    """Write canonical JSON via a temp file in the same directory, then
    rename, so readers never observe a half-written file.  A path that
    cannot be written is an input error naming that path."""
    path = os.path.abspath(target)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".boxicity-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(_dump(doc))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise InvalidInput(f"cannot write {target}: {exc.strerror}") from exc


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(
            f"{path}: bad JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # bytes that are not UTF-8, or an int too long to convert
        raise InvalidInput(f"{path}: bad JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInput(f"{path}: JSON nested too deeply") from exc


def _load_graph(path: str):
    from . import graphs

    return graphs.graph_from_dict(_read_json(path))


def _budget_from_args(args):
    from . import exact

    # the budget flags are named like SearchBudget's fields; absent ones take the defaults
    flags = {name: getattr(args, name) for name in exact.SearchBudget._fields}
    return exact.SearchBudget(**{name: v for name, v in flags.items() if v is not None})


def _add_budget_flags(sub) -> None:
    sub.add_argument("--max-nodes", type=int, default=None,
                     help="cap on explored search nodes")
    sub.add_argument("--time-limit", type=float, default=None,
                     help="cap in seconds on the searches the command runs")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_FAMILIES = ("complete", "cycle", "path", "roberts", "subdivided",
             "random", "forest")


def _cmd_gen(args) -> int:
    from . import graphs

    if args.family == "random":
        if args.seed is None or args.p is None:
            raise InvalidInput("gen random needs both --seed and -p")
        G = graphs.random_graph(args.n, args.p, args.seed)
    elif args.family == "forest":
        if args.seed is None:
            raise InvalidInput("gen forest needs --seed")
        G = graphs.random_forest(args.n, args.seed)
    else:
        maker = {"complete": graphs.complete, "cycle": graphs.cycle, "path": graphs.path,
                 "roberts": graphs.roberts_graph,
                 "subdivided": graphs.subdivided_complete}[args.family]
        G = maker(args.n)
    _write_atomic(args.output, graphs.graph_to_dict(G))
    print(f"wrote {args.output}: {G.n} vertices, {len(G.edges)} edges")
    return EXIT_OK


def _cmd_exact(args) -> int:
    from . import exact

    G = _load_graph(args.graph)
    result = exact.exact_boxicity(G, d_max=args.max_d, budget=_budget_from_args(args))
    if args.output:
        _write_atomic(args.output, exact.boxicity_result_to_dict(result))
    if result.status == exact.STATUS_EXACT:
        print(result.value)
        return EXIT_OK
    print(f"{result.status}: boxicity is at least {result.lower_bound}",
          file=sys.stderr)
    return EXIT_BUDGET


def _construct_rep(args):
    """The representation the construct kind builds; the kinds that are
    derivation rules run through assemble."""
    G = _load_graph(args.graph)
    kind = args.kind
    if kind == "forest":
        from . import boxes

        B = boxes.forest_two_dim(G)
        if not boxes.verify_representation(B, G).equal:
            raise RuntimeError("forest layout failed to verify")
        return B
    if kind == "figure1":
        from . import certificates, figure1

        if not args.classification:
            raise InvalidInput("construct figure1 needs --classification")
        cls = certificates.classification_from_dict(_read_json(args.classification))
        cls.validate(G)
        B = figure1.figure1_gadget(G, cls)
        problems = figure1.figure1_problems(G, cls, B)
        if problems:
            raise RuntimeError(f"gadget check: {problems[0]}")
        return B
    from . import certificates, derivation, exact

    if kind == "roberts":
        step = derivation.RobertsStep()
    elif kind == "acyclic":
        if args.coloring:
            colors = certificates.coloring_from_dict(_read_json(args.coloring))
        else:
            colors = exact.least_coloring(exact.acyclic_coloring, G, _budget_from_args(args))
        step = derivation.AcyclicStep(coloring=colors)
    else:  # girth4, the last choice the parser allows
        if args.partition:
            part = certificates.partition_from_dict(_read_json(args.partition))
        else:
            part = exact.find_forest_stable_partition(G, _budget_from_args(args))
            if part is None:
                raise InvalidInput(
                    "no forest/stable split with the distance guard exists"
                )
        step = derivation.Girth4Step(part=part)
    B, _ = derivation.assemble(G, step)
    return B


def _cmd_construct(args) -> int:
    B = _construct_rep(args)
    _write_atomic(args.output, B)
    print(f"wrote {args.output}: {B.d} dimensions, {len(B.domain())} boxes")
    return EXIT_OK


def _cmd_derive(args) -> int:
    from . import derivation

    G = _load_graph(args.graph)
    script = derivation.step_from_dict(_read_json(args.script))
    B, report = derivation.assemble(G, script)
    _write_atomic(args.output, B)
    if args.report:
        _write_atomic(args.report, derivation.report_to_dict(report))
    print(f"verified: {report.total_dimension} dimensions "
          f"over {len(report.steps)} steps")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import boxes

    G = _load_graph(args.graph)
    B = boxes.box_rep_from_dict(_read_json(args.rep))
    report = boxes.verify_representation(B, G)
    if report.equal:
        print(f"OK: matches the graph in {B.d} dimensions")
        return EXIT_OK
    for u, v in report.missing_edges:
        print(f"missing: graph edge ({u}, {v}) has disjoint boxes")
    for u, v in report.extra_edges:
        print(f"extra: boxes ({u}, {v}) intersect without a graph edge")
    return EXIT_MISMATCH


def _cmd_poset(args) -> int:
    from . import certificates, exact, posets

    G = _load_graph(args.graph)
    if args.check_dimension is not None:
        P = posets.adjacency_poset(G)
        orders = posets.poset_dimension_at_most(P, args.check_dimension,
                                                _budget_from_args(args))
        if orders is None:
            print(f"no: dimension exceeds {args.check_dimension}")
        else:
            print(f"yes: realized by {len(orders)} linear orders")
        return EXIT_OK
    if args.coloring:
        colors = certificates.coloring_from_dict(_read_json(args.coloring))
    else:
        colors = exact.least_coloring(exact.proper_coloring, G, _budget_from_args(args))
    orders = posets.chi_realizer_extensions(G, colors)
    P, star = posets.adjacency_poset(G), posets.starred_poset(G)
    recovered = posets.intersect_orders(orders) & star.relation if orders else None
    if orders and (recovered != P.relation
                   or not all(posets.is_linear_extension(P, L) for L in orders)):
        raise RuntimeError("realizer lost the adjacency poset")
    doc = {
        "colors": certificates.coloring_to_dict(colors),
        "orders": [list(L) for L in orders],
    }
    if args.output:
        _write_atomic(args.output, doc)
    print(f"chi-realizer: {len(orders)} orders over {2 * G.n} elements")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from . import posets

    report = posets.bound_calculator(g=args.genus,
                                     orientable=not args.nonorientable,
                                     box=args.box, chi=args.chi)
    doc = posets.bound_report_to_dict(report)
    if args.output:
        _write_atomic(args.output, doc)
    else:
        print(_dump(doc), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv.  Every subcommand is listed with its help line,
    but only the one argv names (its first word not starting with "-"; the
    main parser takes no option with a value) gets its arguments, so help
    and usage errors read as if all were built."""
    parser = argparse.ArgumentParser(
        prog="boxicity",
        description="Build, compose and verify box representations of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = next((arg for arg in argv if not arg.startswith("-")), None)

    def add(name, help_line, func):
        """The subparser of name, if argv invokes it; else None."""
        subparser = sub.add_parser(name, help=help_line)
        subparser.set_defaults(func=func)
        return subparser if name == invoked else None

    if gen := add("gen", "write a generated graph", _cmd_gen):
        gen.add_argument("family", choices=_FAMILIES)
        gen.add_argument("n", type=int, help="size parameter of the family")
        gen.add_argument("-o", "--output", required=True)
        gen.add_argument("-p", type=float, default=None,
                         help="edge probability (random only)")
        gen.add_argument("--seed", type=int, default=None,
                         help="RNG seed (required for random/forest)")

    if exact := add("exact", "exact boxicity by closure search", _cmd_exact):
        exact.add_argument("graph")
        exact.add_argument("--max-d", type=int, default=None,
                           help="stop after refuting this many dimensions")
        exact.add_argument("-o", "--output", default=None,
                           help="also write the full result with witness")
        _add_budget_flags(exact)

    if construct := add("construct", "build a verified representation from a certificate",
                        _cmd_construct):
        construct.add_argument("kind", choices=("acyclic", "roberts", "girth4",
                                                "forest", "figure1"))
        construct.add_argument("graph")
        construct.add_argument("-o", "--output", required=True)
        construct.add_argument("--coloring", default=None,
                               help="acyclic coloring file (acyclic only)")
        construct.add_argument("--partition", default=None,
                               help="forest/stable partition file (girth4 only)")
        construct.add_argument("--classification", default=None,
                               help="cycle classification file (figure1 only)")
        _add_budget_flags(construct)

    if derive := add("derive", "replay a derivation script", _cmd_derive):
        derive.add_argument("graph")
        derive.add_argument("script")
        derive.add_argument("-o", "--output", required=True)
        derive.add_argument("--report", default=None,
                            help="also write the per-step accounting")

    if verify := add("verify", "check a representation file", _cmd_verify):
        verify.add_argument("graph")
        verify.add_argument("rep")

    if poset := add("poset", "adjacency poset tools", _cmd_poset):
        poset.add_argument("graph")
        poset.add_argument("--coloring", default=None,
                           help="proper coloring file; computed when omitted")
        poset.add_argument("-o", "--output", default=None,
                           help="write the realizer orders")
        poset.add_argument("--check-dimension", type=int, default=None,
                           help="search for a realizer of this size instead")
        _add_budget_flags(poset)

    if bounds := add("bounds", "closed-form genus bounds", _cmd_bounds):
        bounds.add_argument("--genus", type=int, default=None,
                            help="orientable genus g (crosscaps with --nonorientable); "
                                 "box bound 7 on the torus, else 5g + 3, whose genus "
                                 "convention (Euler or orientable) is unverified")
        bounds.add_argument("--nonorientable", action="store_true",
                            help="read --genus as the number of crosscaps")
        bounds.add_argument("--box", type=int, default=None)
        bounds.add_argument("--chi", type=int, default=None)
        bounds.add_argument("-o", "--output", default=None)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # a bug: keep it apart from the codes above
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
