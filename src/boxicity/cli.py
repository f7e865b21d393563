"""Command-line front door over the JSON file formats.

Subcommands generate graphs, run the exact search, build representations
from certificates, replay derivation scripts, verify finished
representations, emit chi-realizers, and evaluate the closed-form bounds.
Everything on disk is plain JSON with sorted keys, so reruns with the same
inputs produce byte-identical files and diffs stay readable.

Every subcommand and its arguments are declared once, in one table.  A
well-formed command line is read from that table directly; argparse is
imported and built from it only for help, usage errors and the forms of
argument only it reads (abbreviations, --opt=value and the like), so the
two always agree.  Each subcommand imports the modules it uses, so a run
loads only what its subcommand needs.  JSON is read and written through
CPython's _json accelerator, which json itself calls; the json package is
imported only to word the fault in a file that does not parse.

Exit codes: 0 success, 1 a finished representation failed verification,
2 invalid input (bad file, flag, certificate, or script), 3 a search
budget ran out before an answer, 4 an internal error (a bug, reported on
one stderr line).
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii, make_scanner

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
    """Canonical JSON text, the bytes of json.dumps(doc, indent=2,
    sort_keys=True) and a newline.  A BoxRepresentation is written straight
    from its Intervals, the four ints of each through one %d template, in
    the bytes that gives for boxes.box_rep_to_dict(doc): rows keyed in
    string order ("10" before "2")."""
    if isinstance(doc, dict):
        return _json_text(doc, "\n") + "\n"
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


# what json writes for None, the bools and the floats without digits
_WORDS = {None: "null", True: "true", False: "false",
          "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(doc, newline: str) -> str:
    """doc as json.dumps(indent=2, sort_keys=True) writes it, its inner
    lines starting with newline plus two spaces."""
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    if doc is None or doc is True or doc is False:
        return _WORDS[doc]
    if isinstance(doc, (int, float)):
        text = (int if isinstance(doc, int) else float).__repr__(doc)
        return _WORDS.get(text, text)
    inner = newline + "  "
    if isinstance(doc, dict):
        items = [encode_basestring_ascii(key) + ": " + _json_text(doc[key], inner)
                 for key in sorted(doc)]
    elif isinstance(doc, (list, tuple)):
        items = [_json_text(item, inner) for item in doc]
    else:
        raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")
    ends = "{}" if isinstance(doc, dict) else "[]"
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1] if items else ends


def _write_atomic(*outputs) -> None:
    """Write each (target, doc) of outputs as canonical JSON to a temp file
    in the target's directory, then rename them all, so readers never
    observe a half-written file and none is renamed unless every temp file
    was written.  A path that cannot be written is an input error naming
    that path."""
    import errno
    import tempfile

    temps = []
    try:
        for target, doc in outputs:
            if os.path.isdir(target):  # refused before any rename, not after
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(target)),
                                       prefix=".boxicity-")
            temps.append(tmp)
            with os.fdopen(fd, "w") as handle:
                handle.write(_dump(doc))
        for target, _ in outputs:
            os.replace(temps[0], os.path.abspath(target))
            temps.pop(0)
    except OSError as exc:
        raise InvalidInput(f"cannot write {target}: {exc.strerror}") from exc
    finally:
        for tmp in temps:  # not renamed: a write or a rename failed
            try:
                os.unlink(tmp)
            except OSError:
                pass


class _Decoding:
    """json.loads's defaults, which the scanner reads as a decoder's."""

    strict, object_hook, object_pairs_hook = True, None, None
    parse_float, parse_int = float, int
    parse_constant = {"NaN": float("nan"), "Infinity": float("inf"),
                      "-Infinity": float("-inf")}.__getitem__


_scan = make_scanner(_Decoding)
_WHITESPACE = " \t\n\r"  # what json skips around a document


def _read_json(path: str):
    try:  # json.loads's own scanner; json is imported only to word a fault
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        doc, end = _scan(text, len(text) - len(text.lstrip(_WHITESPACE)))
        if not text[end:].strip(_WHITESPACE):
            return doc
    # a fault: the scanner raises StopIteration where a value is missing and,
    # on CPython 3.11 while json.decoder is not loaded, SystemError for the
    # rest of bad syntax; reading the file again through json words it
    except (OSError, ValueError, StopIteration, SystemError, RecursionError):
        pass
    import json

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
    _write_atomic((args.output, graphs.graph_to_dict(G)))
    print(f"wrote {args.output}: {G.n} vertices, {len(G.edges)} edges")
    return EXIT_OK


def _cmd_exact(args) -> int:
    from . import exact

    G = _load_graph(args.graph)
    result = exact.exact_boxicity(G, d_max=args.max_d, budget=_budget_from_args(args))
    if args.output is not None:
        _write_atomic((args.output, exact.boxicity_result_to_dict(result)))
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
    from . import certificates, derivation  # exact only finds a missing certificate

    if kind == "roberts":
        step = derivation.RobertsStep()
    elif kind == "acyclic":
        if args.coloring is not None:
            colors = certificates.coloring_from_dict(_read_json(args.coloring))
        else:
            from . import exact

            colors = exact.least_coloring(exact.acyclic_coloring, G, _budget_from_args(args))
        step = derivation.AcyclicStep(coloring=colors)
    else:  # girth4, the last choice the parser allows
        if args.partition is not None:
            part = certificates.partition_from_dict(_read_json(args.partition))
        else:
            from . import exact

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
    _write_atomic((args.output, B))
    print(f"wrote {args.output}: {B.d} dimensions, {len(B.domain())} boxes")
    return EXIT_OK


def _cmd_derive(args) -> int:
    from . import derivation

    G = _load_graph(args.graph)
    script = derivation.step_from_dict(_read_json(args.script))
    B, report = derivation.assemble(G, script)
    outputs = [(args.output, B)]
    if args.report is not None:
        outputs.append((args.report, derivation.report_to_dict(report)))
    _write_atomic(*outputs)
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
    from . import posets

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
    from . import certificates

    if args.coloring is not None:
        colors = certificates.coloring_from_dict(_read_json(args.coloring))
    else:
        from . import exact

        colors = exact.least_coloring(exact.proper_coloring, G, _budget_from_args(args))
    orders = posets.chi_realizer_extensions(G, colors)
    P, star = posets.adjacency_poset(G), posets.starred_poset(G)
    # the starred pairs every order keeps, each looked up in the orders'
    # positions: the orders' own intersection holds quadratically many pairs
    where = [{x: i for i, x in enumerate(L)} for L in orders]
    recovered = {(a, b) for a, b in star.relation if all(pos[a] <= pos[b] for pos in where)}
    if orders and (recovered != P.relation
                   or not all(posets.is_linear_extension(P, L) for L in orders)):
        raise RuntimeError("realizer lost the adjacency poset")
    doc = {
        "colors": certificates.coloring_to_dict(colors),
        "orders": [list(L) for L in orders],
    }
    if args.output is not None:
        _write_atomic((args.output, doc))
    print(f"chi-realizer: {len(orders)} orders over {2 * G.n} elements")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from . import posets

    report = posets.bound_calculator(g=args.genus,
                                     orientable=not args.nonorientable,
                                     box=args.box, chi=args.chi)
    doc = posets.bound_report_to_dict(report)
    if args.output is not None:
        _write_atomic((args.output, doc))
    else:
        print(_dump(doc), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# command lines
# ---------------------------------------------------------------------------


def _arg(*flags, **settings):
    """One argument of a subcommand: its flags, or the name of a positional,
    and the keywords argparse's add_argument takes for it."""
    return flags, settings


_BUDGET = (
    _arg("--max-nodes", type=int, help="cap on explored search nodes"),
    _arg("--time-limit", type=float,
         help="cap in seconds on the searches the command runs"),
)

# Every subcommand, in the order help lists them: its help line, its
# handler and its arguments.  Both readers below are built from it.
_COMMANDS = {
    "gen": ("write a generated graph", _cmd_gen, (
        _arg("family", choices=_FAMILIES),
        _arg("n", type=int, help="size parameter of the family"),
        _arg("-o", "--output", required=True),
        _arg("-p", type=float, help="edge probability (random only)"),
        _arg("--seed", type=int, help="RNG seed (required for random/forest)"),
    )),
    "exact": ("exact boxicity by closure search", _cmd_exact, (
        _arg("graph"),
        _arg("--max-d", type=int, help="stop after refuting this many dimensions"),
        _arg("-o", "--output", help="also write the full result with witness"),
        *_BUDGET,
    )),
    "construct": ("build a verified representation from a certificate", _cmd_construct, (
        _arg("kind", choices=("acyclic", "roberts", "girth4", "forest", "figure1")),
        _arg("graph"),
        _arg("-o", "--output", required=True),
        _arg("--coloring", help="acyclic coloring file (acyclic only)"),
        _arg("--partition", help="forest/stable partition file (girth4 only)"),
        _arg("--classification", help="cycle classification file (figure1 only)"),
        *_BUDGET,
    )),
    "derive": ("replay a derivation script", _cmd_derive, (
        _arg("graph"),
        _arg("script"),
        _arg("-o", "--output", required=True),
        _arg("--report", help="also write the per-step accounting"),
    )),
    "verify": ("check a representation file", _cmd_verify, (
        _arg("graph"),
        _arg("rep"),
    )),
    "poset": ("adjacency poset tools", _cmd_poset, (
        _arg("graph"),
        _arg("--coloring", help="proper coloring file; computed when omitted"),
        _arg("-o", "--output", help="write the realizer orders"),
        _arg("--check-dimension", type=int,
             help="search for a realizer of this size instead"),
        *_BUDGET,
    )),
    "bounds": ("closed-form genus bounds", _cmd_bounds, (
        _arg("--genus", type=int,
             help="orientable genus g (crosscaps with --nonorientable); box bound 7 "
                  "on the torus, else 5g + 3, whose genus convention (Euler or "
                  "orientable) is unverified"),
        _arg("--nonorientable", action="store_true",
             help="read --genus as the number of crosscaps"),
        _arg("--box", type=int),
        _arg("--chi", type=int),
        _arg("-o", "--output"),
    )),
}

def _dest(flags) -> str:
    """The attribute argparse sets for an argument: the name of its first
    long flag, else of its first flag, with "-" read as "_"."""
    name = next((flag for flag in flags if flag.startswith("--")), flags[0])
    return name.lstrip("-").replace("-", "_")


def _read_args(argv):
    """What argparse reads from argv, read from the table alone; None
    unless argv is in the forms both read alike.  Those are: a subcommand,
    then its positionals and its options in any order.  Each option is
    spelled exactly and given at most once, each value is a word of its
    own, and no positional or value starts with "-".  Every value converts
    by its type and lies in its choices, and every required option is
    there.  Abbreviations, --opt=value, -ovalue, "--", negative numbers,
    repeats, help and every usage error are left to argparse."""
    from types import SimpleNamespace

    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    options, positionals, required = {}, [], set()
    for flags, settings in arguments:
        dest = _dest(flags)
        if not flags[0].startswith("-"):
            positionals.append((dest, settings))
            continue
        options.update(dict.fromkeys(flags, (dest, settings)))
        switch = settings.get("action") == "store_true"
        values[dest] = settings.get("default", False if switch else None)
        if settings.get("required"):
            required.add(dest)
    given = set()
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if not positionals:
                return None
            dest, settings = positionals.pop(0)
        else:
            dest, settings = options.get(word, (None, None))
            if dest is None or dest in given:
                return None
            given.add(dest)
            if settings.get("action") == "store_true":
                values[dest] = True
                continue
            word = next(words, "-")  # a missing value reads like a flag
            if word.startswith("-"):
                return None
        try:
            values[dest] = settings.get("type", str)(word)
        except ValueError:
            return None
        if "choices" in settings and values[dest] not in settings["choices"]:
            return None
    if positionals or not required <= given:
        return None
    return SimpleNamespace(**values)


def _build_parser(argv):
    """argparse's reader of the table, for help, usage errors and the
    command lines _read_args leaves to it.  Every subcommand is listed with
    its help line, but only the one argv names (its first word not starting
    with "-"; the main parser takes no option with a value) gets its
    arguments, so help and usage errors read as if all were built."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="boxicity",
        description="Build, compose and verify box representations of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, (help_line, func, arguments) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        subparser.set_defaults(func=func)
        if name == invoked:
            for flags, settings in arguments:
                subparser.add_argument(*flags, **settings)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv) or _build_parser(argv).parse_args(argv)
    try:
        for dest in ("output", "report"):  # the files a job writes
            if getattr(args, dest, None) == "":
                raise InvalidInput(f"--{dest} names an empty path")
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
