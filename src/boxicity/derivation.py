"""Certificate-driven assembly of box representations.

A derivation script is a finite tree of steps.  Composite steps carry a
certificate (pair cover, separation, clique, cycle classification) plus
scripts for the strictly smaller graphs they reduce to; leaf steps build a
representation outright (a coloring pipeline, the girth-four pipeline, the
matched-complement family, an explicit representation, or the exhaustive
search oracle).  Assembly first validates every certificate against the
subgraph it applies to and refuses a script predicted to build more than
MAX_PREDICTED_INTERVALS intervals at any step; then it replays the tree
bottom-up and reports the per-step dimension accounting.  Each
representation is checked once: by the composition that takes it (a sur2bis
child through its doubling, which keeps every pair outside K) or against G
at the root.  Each rule is one record of RULES, which the dry run, the
build, the report and the script decoder all read; the nine step classes
(Sur1Step ... BaseOracleStep) are named tuples generated from it, so a
step's keys and child slots are declared once.

All vertex sets in a script, at any depth, use the root graph's vertex
ids.  Internally each level works on a dense induced copy; certificates
are translated down and child representations are relabeled back up one
level at a time.

Topological facts (genus, facewidth, noncontractibility) have no
computational meaning here.  A step may carry a free-text note, echoed
into the report unverified, for exactly those caller-asserted claims.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce
from itertools import combinations
from operator import or_

from .boxes import (
    BoxRepresentation,
    acyclic_pipeline,
    box_rep_from_dict,
    girth4_pipeline,
    relabel_box_representation,
    roberts_representation,
    sur1_compose,
    sur2_compose,
    sur2bis_double,
    verify_representation,
)
from .certificates import (
    CycleClassification,
    ForestStablePartition,
    PairCover,
    Separation,
    classification_from_dict,
    coloring_from_dict,
    int_list,
    pair_cover_from_dict,
    partition_from_dict,
    separation_from_dict,
    validate_acyclic_coloring,
)
from .errors import BudgetExhausted, CertificateError, InvalidInput, ParseError
from .graphs import Graph, fields, induced_subgraph, is_int

StepReport = namedtuple(
    "StepReport", "path rule vertices formula claimed achieved verified note"
)
DerivationReport = namedtuple("DerivationReport", "steps total_dimension verified")


# --------------------------------------------------------------------------
# the rule table

# One JSON key of a step, named like the step's attribute, with its decoder;
# an optional field may be absent or null.
Field = namedtuple("Field", "key decode optional", defaults=(False,))


class Rule(namedtuple("Rule", "name fields slots check build dimension step")):
    """Everything the walk and the script decoder know about one rule.

    check(step, level) validates the step's certificate against level.H
    and returns the certificate in level ids plus, per child slot, the
    child's graph and its vertex map into level ids (None when the child
    keeps the level's ids).  build(level, certificate, *children) composes
    the children, lifted to level ids, and returns the representation and
    the report's formula text.  dimension(step, *sub_dims) is the claimed
    dimension, None when only the build can tell; a leaf is passed the
    vertex count.

    step, the class of the rule's steps, is made here: a named tuple named
    after the rule (sur2bis gives Sur2bisStep) whose attributes are the
    required fields, the child slots, then the optional fields and note,
    the last ones defaulting to None.
    """

    __slots__ = ()

    def __new__(cls, name, fields, slots, check, build, dimension):
        optional = [field.key for field in fields if field.optional] + ["note"]
        step = namedtuple(
            "".join(part.capitalize() for part in name.split("_")) + "Step",
            [field.key for field in fields if not field.optional] + list(slots) + optional,
            defaults=(None,) * len(optional),
            module=__name__,
        )
        return super().__new__(cls, name, fields, slots, check, build, dimension, step)


class _Level(namedtuple("_Level", "H to_root path")):
    """A step's dense subgraph, its vertices' root ids and its script path.
    Instances keep a __dict__ for the cached inverse map."""

    @cached_property
    def inverse(self) -> dict[int, int]:
        return {r: i for i, r in enumerate(self.to_root)}

    def error(self, message: str) -> CertificateError:
        return CertificateError(f"{self.path}: {message}")

    def check(self, validate, *args):
        """validate(H, *args, ids), the certificate check, its finding in
        root ids under this step's path."""
        try:
            return validate(self.H, *args, self.to_root)
        except CertificateError as exc:
            raise self.error(str(exc)) from None

    def local(self, ids, what: str) -> tuple[int, ...]:
        """Root ids translated to this level's ids."""
        out = []
        for r in ids:
            if r not in self.inverse:
                raise self.error(
                    f"{what} mentions vertex {r}, which is not in this step's subgraph"
                )
            out.append(self.inverse[r])
        return tuple(out)

    def child(self, name: str, H: Graph, vmap) -> "_Level":
        to_root = self.to_root if vmap is None else tuple(self.to_root[v] for v in vmap)
        return _Level(H, to_root, f"{self.path}/{name}")


def _sur1_check(step, lv):
    cover = PairCover(
        X=lv.local(step.cover.X, "pair cover"),
        pairs=tuple(lv.local(p, "pair cover") for p in step.cover.pairs),
    )
    lv.check(cover.validate)
    xs = set(cover.X)
    rest = [v for v in range(lv.H.n) if v not in xs]
    if not rest:
        raise lv.error("X must leave at least one vertex")
    return cover, [induced_subgraph(lv.H, rest)]


def _sur1_build(lv, cover, B_sub):
    B = sur1_compose(lv.H, cover, B_sub)
    return B, f"sub + |X| - k = {B_sub.d} + {len(cover.X)} - {len(cover.pairs)}"


def _sur2_check(step, lv):
    sep = Separation(*(lv.local(part, "separation")
                       for part in (step.sep.V1, step.sep.V2, step.sep.X)))
    lv.check(sep.validate)
    if not sep.V1 or not sep.V2:
        raise lv.error("V1 and V2 must both be nonempty")
    sides = (sorted(set(side) | set(sep.X)) for side in (sep.V1, sep.V2))
    return sep, [induced_subgraph(lv.H, side) for side in sides]


def _sur2_build(lv, sep, B1, B2):
    return sur2_compose(lv.H, sep, B1, B2), f"sub1 + sub2 + 1 = {B1.d} + {B2.d} + 1"


def _sur2bis_check(step, lv):
    K = lv.local(step.K, "clique")
    kset = set(K)
    if len(kset) != len(K):
        raise lv.error("clique vertices must be distinct")
    for u, w in combinations(sorted(kset), 2):
        if not lv.H.has_edge(u, w):
            raise lv.error(
                f"K is not a clique, ({lv.to_root[u]}, {lv.to_root[w]}) is a non-edge"
            )
    stripped = frozenset((u, v) for u, v in lv.H.edges if not (u in kset and v in kset))
    return K, [(Graph(lv.H.n, stripped), None)]


def _sur2bis_build(lv, K, B_sub):
    return sur2bis_double(B_sub, K), f"2 * sub = 2 * {B_sub.d}"


def _figure1_check(step, lv):
    assigned = step.cls.assignments
    cls = CycleClassification(
        cycle=lv.local(step.cls.cycle, "classification"),
        assignments=dict(zip(lv.local(assigned, "classification"), assigned.values())),
    )
    lv.check(cls.validate)
    on_cycle = set(cls.cycle)
    rest = [v for v in range(lv.H.n) if v not in on_cycle]
    if not rest:
        raise lv.error("the graph must extend beyond the cycle")
    return cls, [induced_subgraph(lv.H, rest)]


def _figure1_build(lv, cls, B_rest):
    from . import figure1

    attached = tuple(sorted(cls.assignments))
    doubled = sur2bis_double(figure1.figure1_gadget(lv.H, cls), attached)
    v2 = tuple(v for v in B_rest.domain() if v not in cls.assignments)
    sep = Separation(V1=tuple(sorted(cls.cycle)), V2=v2, X=attached)
    return sur2_compose(lv.H, sep, doubled, B_rest), f"sub + 5 = {B_rest.d} + 5"


def _acyclic_check(step, lv):
    colors = dict(zip(lv.local(step.coloring, "coloring"), step.coloring.values()))
    lv.check(validate_acyclic_coloring, colors)
    if len(set(colors.values())) < 2:
        raise lv.error("the coloring pipeline needs at least 2 colors")
    return colors, []


def _acyclic_build(lv, colors):
    k = len(set(colors.values()))
    return acyclic_pipeline(lv.H, colors), f"k(k-1) = {k}*{k - 1}"


def _acyclic_dimension(step, *_):
    k = len(set(step.coloring.values()))
    return k * (k - 1)


def _girth4_check(step, lv):
    part = ForestStablePartition(
        F=lv.local(step.part.F, "partition"),
        S=lv.local(step.part.S, "partition"),
    )
    lv.check(part.validate)
    return part, []


def _girth4_build(lv, part):
    return girth4_pipeline(lv.H, part), "4"


def _roberts_check(step, lv):
    """The complement of H must be a perfect matching; return its pairs."""
    H = lv.H
    if H.n % 2:
        raise lv.error("matched-complement rule needs an even vertex count")
    pairs = []
    seen = set()
    for v in range(H.n):
        missing = [u for u in range(H.n) if u != v and not H.has_edge(u, v)]
        if len(missing) != 1:
            raise lv.error(
                f"vertex {lv.to_root[v]} misses {len(missing)} partners; "
                "the complement must be a perfect matching"
            )
        if v not in seen:
            pairs.append((v, missing[0]))
            seen.update((v, missing[0]))
    return pairs, []


def _roberts_build(lv, pairs):
    """roberts_representation with its pair (2j, 2j+1) moved to pairs[j]."""
    ends = dict(enumerate(v for pair in pairs for v in pair))
    B = relabel_box_representation(roberts_representation(len(pairs)), ends)
    return B, f"n = {len(pairs)}"


def _explicit_check(step, lv):
    """The given representation, in level ids, verified here so that the
    dry run rejects a wrong one too."""
    given = step.rep
    stray = min(given.layers[0].keys() ^ lv.inverse.keys(), default=None)
    if stray is not None:
        side = "representation" if stray in given.layers[0] else "graph"
        raise lv.error(f"explicit representation covers vertices other than the graph's: "
                       f"vertex {stray} is only in the {side}")
    local = relabel_box_representation(given, lv.inverse)
    report = verify_representation(local, lv.H)
    if not report.equal:
        u, v = (report.missing_edges + report.extra_edges)[0]
        raise lv.error(
            f"explicit representation disagrees on pair {(lv.to_root[u], lv.to_root[v])}"
        )
    return local, []


def _explicit_build(lv, local):
    return local, f"given ({local.d})"


def _oracle_check(step, lv):
    if step.d_max is not None and step.d_max < 1:
        raise lv.error("d_max must be at least 1")
    return step, []


def _oracle_build(lv, step):
    from . import exact

    result = exact.exact_boxicity(lv.H, step.d_max, step.budget)
    if result.status == exact.STATUS_BUDGET:
        raise BudgetExhausted(
            f"{lv.path}: oracle search stopped early (lower bound {result.lower_bound})"
        )
    if result.value is None:
        raise lv.error(
            f"oracle found no representation "
            f"(status {result.status}, lower bound {result.lower_bound})"
        )
    return result.witness, f"box(G) by search = {result.value}"


def _d_max(doc) -> int:
    if not is_int(doc):
        raise ParseError(f"d_max must be an int, got {doc!r}")
    return doc


def _budget_from_dict(doc):
    """An exact.SearchBudget: absent keys take the defaults, and
    SearchBudget checks every value."""
    from .exact import SearchBudget

    fields(doc, "budget", (), SearchBudget._fields)
    return SearchBudget(**doc)


# Library functions are called through this module's globals, never stored
# here (hence the lambda around box_rep_from_dict), so that a tracer that
# replaces a module attribute sees every call.  exact and figure1 are
# imported by the rules that use them, and called through their modules,
# so a script without those rules never loads them.
RULES: tuple[Rule, ...] = (
    Rule("sur1", (Field("cover", pair_cover_from_dict),),
         ("sub",), _sur1_check, _sur1_build,
         lambda step, sub: sub + len(step.cover.X) - len(step.cover.pairs)),
    Rule("sur2", (Field("sep", separation_from_dict),),
         ("sub1", "sub2"), _sur2_check, _sur2_build,
         lambda step, sub1, sub2: sub1 + sub2 + 1),
    Rule("sur2bis", (Field("K", lambda doc: int_list(doc, "K")),),
         ("sub",), _sur2bis_check, _sur2bis_build,
         lambda step, sub: 2 * sub),
    Rule("figure1", (Field("cls", classification_from_dict),),
         ("sub",), _figure1_check, _figure1_build,
         lambda step, sub: sub + 5),
    Rule("acyclic", (Field("coloring", coloring_from_dict),),
         (), _acyclic_check, _acyclic_build,
         _acyclic_dimension),
    Rule("girth4", (Field("part", partition_from_dict),),
         (), _girth4_check, _girth4_build,
         lambda step, *_: 4),
    Rule("roberts", (), (), _roberts_check, _roberts_build,
         lambda step, n: n // 2),
    Rule("base_explicit", (Field("rep", lambda doc: box_rep_from_dict(doc)),),
         (), _explicit_check, _explicit_build,
         lambda step, *_: step.rep.d),
    Rule("base_oracle", (Field("d_max", _d_max, optional=True),
                         Field("budget", _budget_from_dict, optional=True)),
         (), _oracle_check, _oracle_build,
         lambda step, *_: None),
)
_BY_NAME = {rule.name: rule for rule in RULES}
_BY_TYPE = {rule.step: rule for rule in RULES}
# the step classes under their public names, in the order of RULES
(Sur1Step, Sur2Step, Sur2bisStep, Figure1Step, AcyclicStep, Girth4Step, RobertsStep,
 BaseExplicitStep, BaseOracleStep) = _BY_TYPE
DerivationStep = reduce(or_, _BY_TYPE)


def _rule_of(step) -> Rule:
    rule = _BY_TYPE.get(type(step))
    if rule is None:
        raise InvalidInput(f"unknown derivation step {type(step).__name__}")
    return rule


# --------------------------------------------------------------------------
# the walk

# Scripts are decoded and walked one recursive call per step; real
# derivations are a few steps deep, and this keeps far from Python's limit.
MAX_SCRIPT_DEPTH = 100
_TOO_DEEP = f"script is nested more than {MAX_SCRIPT_DEPTH} steps deep"
# The most intervals (dimensions times vertices) any step may be predicted
# to build; a few nested doublings would otherwise ask for astronomically
# many dimensions before anything checks them.
MAX_PREDICTED_INTERVALS = 10**6


def bound_formula(step: DerivationStep, *sub_dims: int) -> int | None:
    """Claimed dimension of one step given its children's dimensions.

    None for the oracle step, whose dimension is whatever the search
    determines.  The two leaf families that depend on the graph size
    (matched-complement) or the coloring width are computed from the step's
    own certificate; callers pass the graph's vertex count as the sole
    sub-dimension for the matched-complement rule.
    """
    return _rule_of(step).dimension(step, *sub_dims)


def _plan(lv: _Level, step: DerivationStep):
    """Check the step and, recursively, its children, without building.

    Returns the most dimensions building the step can take, refused above
    MAX_PREDICTED_INTERVALS, and a function build(out) that builds the
    children, composes, compares with the claim and fills the
    step's report slot in out, reserved before the children's so that
    reports run in pre-order.
    """
    if lv.path.count("/") >= MAX_SCRIPT_DEPTH:
        raise lv.error(_TOO_DEEP)
    rule = _rule_of(step)
    cert, children = rule.check(step, lv)
    subs = [
        _plan(lv.child(name, H, vmap), getattr(step, name))
        for name, (H, vmap) in zip(rule.slots, children)
    ]
    predicted = bound_formula(step, *([p for p, _ in subs] if rule.slots else [lv.H.n]))
    if predicted is None:
        # the oracle stops at d_max, which defaults to floor(n/2)
        predicted = step.d_max if step.d_max is not None else max(1, lv.H.n // 2)
    if predicted * lv.H.n > MAX_PREDICTED_INTERVALS:
        raise lv.error(
            f"predicted {predicted} dimensions on {lv.H.n} vertices exceed "
            f"the cap of {MAX_PREDICTED_INTERVALS} intervals"
        )

    def build(out: list) -> BoxRepresentation:
        slot = len(out)
        out.append(None)
        built = [build_sub(out) for _, build_sub in subs]
        lifted = [
            B if vmap is None else relabel_box_representation(B, dict(enumerate(vmap)))
            for B, (_, vmap) in zip(built, children)
        ]
        B, formula = rule.build(lv, cert, *lifted)
        claimed = bound_formula(step, *([S.d for S in built] if rule.slots else [lv.H.n]))
        if claimed is None:
            claimed = B.d
        elif claimed != B.d:
            raise lv.error(
                f"achieved dimension {B.d} differs from the claimed bound {claimed}"
            )
        out[slot] = StepReport(lv.path, rule.name, lv.H.n, formula, claimed, B.d, True,
                               step.note)
        return B

    return predicted, build


def _root(G: Graph) -> _Level:
    return _Level(G, tuple(range(G.n)), "root")


def assemble(G: Graph, script: DerivationStep) -> tuple[BoxRepresentation, DerivationReport]:
    """Build the representation a script describes and verify it against G.

    Every certificate is validated against the subgraph it applies to, and
    the predicted size is capped, before anything is built.  The first
    failure aborts with the step's path and a witness, and nothing partial
    is returned; a result that disagrees with G is a bug: RuntimeError.
    """
    steps: list[StepReport] = []
    _, build = _plan(_root(G), script)
    B = build(steps)
    report = verify_representation(B, G)
    if not report.equal:
        bad = min(report.missing_edges + report.extra_edges)
        raise RuntimeError(f"root: assembled representation disagrees on pair {bad}")
    return B, DerivationReport(tuple(steps), B.d, True)


def validate_script(G: Graph, script: DerivationStep) -> None:
    """Dry-run check of certificates, structure and predicted size, without
    building.

    Accepts exactly when assemble would, except that oracle steps are only
    checked for well-formed limits here; whether the search succeeds is
    knowable only by running it.
    """
    _plan(_root(G), script)


# --------------------------------------------------------------------------
# JSON: scripts are only read; steps built in Python go straight to assemble


def step_from_dict(doc, *, _depth: int = 1) -> DerivationStep:
    if _depth > MAX_SCRIPT_DEPTH:
        raise ParseError(_TOO_DEEP)
    # the rule names the step's other keys; without one, fields names the fault
    name = doc.get("rule") if isinstance(doc, dict) else None
    rule = _BY_NAME.get(name) if isinstance(name, str) else None
    if rule is None:
        fields(doc, "step", ("rule",), doc)  # any key may stand beside the rule here
        raise ParseError(f"unknown rule {name!r}")
    # the step's attributes are its keys; those without a default are required
    keys = rule.step._fields
    required = len(keys) - len(rule.step._field_defaults)
    _, *values = fields(doc, f"{name} step", ("rule",) + keys[:required], keys[required:])
    kwargs = dict(zip(keys, values))
    if kwargs["note"] is not None and not isinstance(kwargs["note"], str):
        raise ParseError("a step note must be a string")
    for field in rule.fields:
        if kwargs[field.key] is not None or not field.optional:
            kwargs[field.key] = field.decode(kwargs[field.key])
    for slot in rule.slots:
        kwargs[slot] = step_from_dict(kwargs[slot], _depth=_depth + 1)
    return rule.step(**kwargs)


def report_to_dict(report: DerivationReport) -> dict:
    return {
        "total_dimension": report.total_dimension,
        "verified": report.verified,
        "steps": [s._asdict() for s in report.steps],
    }
