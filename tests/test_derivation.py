"""Script assembly: composition, accounting, dry-run parity, JSON."""

import json
import re
import typing
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxicity.boxes import (
    BoxRepresentation,
    box_rep_from_dict,
    forest_two_dim,
    relabel_box_representation,
    roberts_representation,
    verify_representation,
)
from boxicity.certificates import (
    CycleClassification,
    ForestStablePartition,
    PairCover,
    Separation,
    classification_from_dict,
    coloring_from_dict,
    pair_cover_from_dict,
    partition_from_dict,
    separation_from_dict,
)
from boxicity.derivation import (
    MAX_PREDICTED_INTERVALS,
    MAX_SCRIPT_DEPTH,
    AcyclicStep,
    BaseExplicitStep,
    BaseOracleStep,
    DerivationStep,
    Figure1Step,
    Girth4Step,
    RULES,
    RobertsStep,
    Sur1Step,
    Sur2Step,
    Sur2bisStep,
    _budget_from_dict,
    assemble,
    bound_formula,
    report_to_dict,
    step_from_dict,
    validate_script,
)
from boxicity.errors import BudgetExhausted, CertificateError, InvalidInput, ParseError
from boxicity.exact import SearchBudget, acyclic_coloring, exact_boxicity
from boxicity.graphs import complete, cycle, graph_from_dict, make_graph, path, roberts_graph
from boxicity.intervals import Interval, meet_masks

from util import assert_represents, gadget_instance, script_doc, universal_representation


def torus_grid():
    """Three disjoint triangles glued into columns: rows and columns of a
    3x3 grid, each wrapping around."""
    edges = []
    for i in range(3):
        row = [3 * i, 3 * i + 1, 3 * i + 2]
        edges += [(row[0], row[1]), (row[1], row[2]), (row[0], row[2])]
    for j in range(3):
        col = [j, j + 3, j + 6]
        edges += [(col[0], col[1]), (col[1], col[2]), (col[0], col[2])]
    return make_graph(9, edges)


def prism():
    return make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                          (0, 3), (1, 4), (2, 5)])


def two_square_blocks():
    """K4 minus a matching on 0..3, disjoint from a plain 4-cycle on 4..7."""
    edges = [(0, 2), (0, 3), (1, 2), (1, 3),
             (4, 5), (5, 6), (6, 7), (4, 7)]
    return make_graph(8, edges)


# ------------------------------------------------------------ assembling


def test_k8_minus_matching_script():
    G = roberts_graph(4)
    script = Sur1Step(
        cover=PairCover(X=(0, 1, 2, 3), pairs=((0, 1), (2, 3))),
        sub=BaseOracleStep(),
    )
    B, report = assemble(G, script)
    assert B.d == 4
    assert_represents(B, G)
    assert report.total_dimension == 4 and report.verified
    assert [s.rule for s in report.steps] == ["sur1", "base_oracle"]
    assert report.steps[0].claimed == 4 and report.steps[0].achieved == 4
    assert report.steps[1].achieved == 2
    assert report.steps[0].path == "root" and report.steps[1].path == "root/sub"


def test_toroidal_grid_script():
    G = torus_grid()
    script = Sur1Step(
        cover=PairCover(X=(0, 1, 2), pairs=()),
        sub=BaseOracleStep(),
    )
    B, report = assemble(G, script)
    box_prism = exact_boxicity(prism()).value
    assert B.d == box_prism + 3
    assert_represents(B, G)
    assert report.steps[1].achieved == box_prism


def test_nested_script_translates_root_ids():
    G = two_square_blocks()
    script = Sur2Step(
        sep=Separation(V1=(4, 5, 6, 7), V2=(0, 1, 2, 3), X=()),
        sub1=Sur1Step(
            cover=PairCover(X=(4, 6), pairs=((4, 6),)),
            sub=BaseOracleStep(),
        ),
        sub2=RobertsStep(),
    )
    B, report = assemble(G, script)
    assert B.d == 5  # (1 + 2 - 1) + 2 + 1
    assert_represents(B, G)
    assert [s.path for s in report.steps] == [
        "root", "root/sub1", "root/sub1/sub", "root/sub2",
    ]
    assert report.steps[3].vertices == 4


def test_figure1_script_without_remainder():
    G, cls = gadget_instance(6)
    script = Figure1Step(cls=cls, sub=BaseOracleStep())
    B, report = assemble(G, script)
    assert B.d == 6  # attachments alone are edgeless: 1 + 5
    assert_represents(B, G)
    assert report.steps[0].rule == "figure1"
    assert report.steps[0].claimed == 6


def test_figure1_script_with_remainder():
    base, cls = gadget_instance(6, classes=("S2", "S3"))
    n = base.n
    edges = sorted(base.edges) + [(6, n), (n, n + 1)]
    G = make_graph(n + 2, edges)
    script = Figure1Step(cls=cls, sub=BaseOracleStep())
    B, report = assemble(G, script)
    assert B.d == 6
    assert_represents(B, G)


def test_acyclic_leaf_script():
    G = cycle(5)
    colors = acyclic_coloring(G, 3)
    B, report = assemble(G, AcyclicStep(coloring=colors))
    assert B.d == 6
    assert_represents(B, G)
    assert report.steps[0].formula == "k(k-1) = 3*2"


def test_girth4_leaf_script():
    G = cycle(7)
    part = ForestStablePartition(F=(0, 2, 3, 4, 5, 6), S=(1,))
    B, report = assemble(G, Girth4Step(part=part))
    assert B.d == 4
    assert_represents(B, G)


def test_roberts_leaf_accepts_any_matched_complement_labeling():
    G = make_graph(4, [(0, 1), (2, 3), (0, 3), (1, 2)])  # pairs (0,2), (1,3)
    B, report = assemble(G, RobertsStep())
    assert B.d == 2
    assert_represents(B, G)


def test_roberts_leaf_relabels_roberts_representation(monkeypatch):
    """The rule moves roberts_representation's pair (2j, 2j+1) onto the
    graph's j-th matched pair and builds no pair gadget of its own."""
    def no_gadget(*args):
        raise AssertionError("pair_gadget called")

    monkeypatch.setattr("boxicity.boxes.pair_gadget", no_gadget)
    monkeypatch.setattr("boxicity.derivation.pair_gadget", no_gadget, raising=False)
    ids = [5, 2, 7, 0, 3, 6, 1, 4]  # old vertex v becomes ids[v]
    G = make_graph(8, [(ids[u], ids[v]) for u, v in roberts_graph(4).edges])
    B, report = assemble(G, RobertsStep())
    assert_represents(B, G)
    pairs = sorted(tuple(sorted((ids[2 * j], ids[2 * j + 1]))) for j in range(4))
    ends = dict(enumerate(v for pair in pairs for v in pair))
    assert B == relabel_box_representation(roberts_representation(4), ends)
    assert report.steps[0].formula == "n = 4"


def test_base_explicit_script():
    G = cycle(5)
    rep = universal_representation(G)
    B, report = assemble(G, BaseExplicitStep(rep=rep))
    assert B.d == 5
    assert_represents(B, G)


def test_sur2bis_script():
    # path 0-1, 1-2 plus the clique on {0, 2} makes a triangle
    G = complete(3)
    script = Sur2bisStep(K=(0, 2), sub=BaseOracleStep())
    B, report = assemble(G, script)
    assert B.d == 2
    assert_represents(B, G)
    assert report.steps[0].formula == "2 * sub = 2 * 1"


def test_notes_are_echoed_unverified():
    G = roberts_graph(2)
    script = RobertsStep(note="cycle assumed noncontractible by the caller")
    _, report = assemble(G, script)
    assert report.steps[0].note == "cycle assumed noncontractible by the caller"


# ---------------------------------------------------------------- formulas


def test_bound_formula_arithmetic():
    cover = PairCover(X=(0, 1, 2, 3, 4), pairs=((0, 2), (1, 3)))
    assert bound_formula(Sur1Step(cover=cover, sub=RobertsStep()), 7) == 10
    sep = Separation(V1=(0,), V2=(1,), X=())
    assert bound_formula(Sur2Step(sep=sep, sub1=RobertsStep(), sub2=RobertsStep()), 2, 3) == 6
    assert bound_formula(Sur2bisStep(K=(), sub=RobertsStep()), 4) == 8
    cls = CycleClassification(cycle=tuple(range(6)), assignments={})
    assert bound_formula(Figure1Step(cls=cls, sub=RobertsStep()), 2) == 7
    assert bound_formula(AcyclicStep(coloring={0: 0, 1: 1, 2: 2}), ) == 6
    assert bound_formula(Girth4Step(part=ForestStablePartition(F=(), S=()))) == 4
    assert bound_formula(RobertsStep(), 8) == 4
    assert bound_formula(BaseOracleStep()) is None


# ------------------------------------------------------------ error paths


def test_separation_with_cross_edge_is_named():
    G = cycle(4)
    script = Sur2Step(
        sep=Separation(V1=(0, 1), V2=(2, 3), X=()),
        sub1=BaseOracleStep(),
        sub2=BaseOracleStep(),
    )
    with pytest.raises(CertificateError, match=r"edge \(0, 3\) joins V1 and V2"):
        assemble(G, script)


def test_certificate_vertex_outside_subgraph():
    G = roberts_graph(4)
    script = Sur1Step(
        cover=PairCover(X=(0, 1, 2, 3), pairs=((0, 1), (2, 3))),
        sub=Girth4Step(part=ForestStablePartition(F=(0, 4, 5), S=(6,))),
    )
    with pytest.raises(CertificateError, match="mentions vertex 0"):
        assemble(G, script)


def test_sur2bis_requires_a_clique():
    G = make_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(CertificateError, match="not a clique"):
        assemble(G, Sur2bisStep(K=(0, 2), sub=BaseOracleStep()))


def test_explicit_rep_must_match():
    G = cycle(4)
    wrong = universal_representation(cycle(5))
    with pytest.raises(CertificateError, match="covers vertices"):
        assemble(G, BaseExplicitStep(rep=wrong))
    close = universal_representation(make_graph(4, [(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(CertificateError, match="disagrees on pair"):
        assemble(G, BaseExplicitStep(rep=close))


def test_roberts_rejects_other_graphs():
    with pytest.raises(CertificateError, match="even vertex count"):
        assemble(cycle(5), RobertsStep())
    with pytest.raises(CertificateError, match="misses"):
        assemble(cycle(6), RobertsStep())


def _under_sur1(n, edges, step):
    """Root graph: two isolated vertices 0 and 1, then a graph on 2..n+1
    given in root ids.  The root sur1 step covers {0, 1} by one pair and
    hands step the rest, whose dense ids are the root ids minus 2."""
    G = make_graph(n + 2, edges)
    return G, Sur1Step(cover=PairCover(X=(0, 1), pairs=((0, 1),)), sub=step)


_HEXAGON = [(2 + i, 2 + (i + 1) % 6) for i in range(6)]


@pytest.mark.parametrize("G, script, message", [
    _under_sur1(4, [(2, 5), (2, 3), (3, 4), (4, 5)],
                Sur2Step(Separation(V1=(2,), V2=(5,), X=(3, 4)), RobertsStep(), RobertsStep()))
    + ("root/sub: separation: edge (2, 5) joins V1 and V2",),
    _under_sur1(3, [(2, 3), (3, 4)],
                Sur1Step(cover=PairCover(X=(2, 3), pairs=((2, 3),)), sub=BaseOracleStep()))
    + ("root/sub: pair cover: pair (2, 3) is an edge of the graph",),
    _under_sur1(3, [(2, 3), (3, 4)],
                Sur1Step(cover=PairCover(X=(3, 3), pairs=()), sub=BaseOracleStep()))
    + ("root/sub: pair cover: vertex set [3, 3] has repeated entries",),
    _under_sur1(7, _HEXAGON + [(8, 2)],
                Figure1Step(cls=CycleClassification(cycle=tuple(range(2, 8)),
                                                    assignments={8: ("S2", 0)}),
                            sub=BaseOracleStep()))
    + ("root/sub: classification: vertex 8 declared S2 at anchor 0 "
       "(cycle neighbors [2, 3]) but has [2]",),
    _under_sur1(3, [(2, 3), (3, 4)],
                Girth4Step(part=ForestStablePartition(F=(3,), S=(2, 4))))
    + ("root/sub: partition: vertices 2 and 4 of S are at distance 2",),
    _under_sur1(3, [(2, 3), (3, 4)], AcyclicStep(coloring={2: 0, 3: 0, 4: 1}))
    + ("root/sub: coloring: edge (2, 3) is monochromatic",),
    _under_sur1(4, [(2, 3), (3, 4), (4, 5), (2, 5)],
                AcyclicStep(coloring={2: 0, 3: 1, 4: 0, 5: 1}))
    + ("root/sub: coloring: classes 0 and 1 contain the cycle [3, 2, 5, 4]",),
    _under_sur1(3, [(2, 3), (3, 4)], Sur2bisStep(K=(2, 4), sub=BaseOracleStep()))
    + ("root/sub: K is not a clique, (2, 4) is a non-edge",),
    _under_sur1(4, [(2, 3), (4, 5)], RobertsStep())
    + ("root/sub: vertex 2 misses 2 partners; the complement must be a perfect matching",),
], ids=["sur2", "sur1", "sur1-repeat", "figure1", "girth4", "acyclic", "acyclic-cycle",
        "sur2bis", "roberts"])
def test_nested_findings_name_the_step_and_root_ids(G, script, message):
    for run in (validate_script, assemble):
        with pytest.raises(CertificateError) as caught:
            run(G, script)
        assert str(caught.value) == message


def test_root_findings_name_the_root_step():
    with pytest.raises(CertificateError) as caught:
        assemble(cycle(4), Girth4Step(part=ForestStablePartition(F=(0, 1, 2, 3), S=())))
    assert str(caught.value) == "root: partition: F contains the cycle [1, 0, 3, 2]"


def test_assembly_verifies_the_result_once(monkeypatch):
    """Each composition checks the child it takes, so the only full
    verification is the root's, however deep the script."""
    G, script = _under_sur1(6, [(u + 4, v + 4) for u, v in roberts_graph(2).edges],
                            Sur1Step(cover=PairCover(X=(2, 3), pairs=((2, 3),)),
                                     sub=RobertsStep()))
    calls = []

    def counted(B, H):
        calls.append(H.n)
        return verify_representation(B, H)

    monkeypatch.setattr("boxicity.derivation.verify_representation", counted)
    B, report = assemble(G, script)
    assert [s.path for s in report.steps] == ["root", "root/sub", "root/sub/sub"]
    assert calls == [G.n]
    assert_represents(B, G)


def test_a_wrong_child_of_a_doubling_cannot_escape(monkeypatch):
    """sur2bis_double takes its child unchecked; the doubled result, here
    at the root, still fails on every pair the child got wrong outside K."""
    G = make_graph(6, [(0, 1)] + [(u + 2, v + 2) for u, v in roberts_graph(2).edges])
    script = Sur2bisStep(K=(0, 1), sub=Sur1Step(
        cover=PairCover(X=(0, 1), pairs=((0, 1),)), sub=RobertsStep()))
    assemble(G, script)

    def overlapping(H, cover, B_sub):
        d = B_sub.d + len(cover.X) - len(cover.pairs)
        return BoxRepresentation([{v: Interval(0, 1) for v in range(H.n)}] * d)

    monkeypatch.setattr("boxicity.derivation.sur1_compose", overlapping)
    with pytest.raises(RuntimeError, match=r"^root: assembled representation disagrees "
                                           r"on pair \(0, 2\)$"):
        assemble(G, script)


def test_assembly_calls_the_kernel_once_per_checked_layer(monkeypatch):
    """One meet_masks call per layer of the child, for sur1's check of it,
    and one per layer of the result, for the root's; lifting the child's
    layers by canonical extension makes none."""
    calls = []

    def counted(layer):
        calls.append(len(layer))
        return meet_masks(layer)

    monkeypatch.setattr("boxicity.boxes.meet_masks", counted)
    monkeypatch.setattr("boxicity.intervals.meet_masks", counted)
    B, _ = assemble(roberts_graph(3), Sur1Step(cover=PairCover(X=(0, 1), pairs=((0, 1),)),
                                               sub=RobertsStep()))
    assert B.d == 3
    assert calls == [4, 4, 6, 6, 6]


@pytest.mark.parametrize("G, step, pair", [
    (path(3), AcyclicStep(coloring={0: 0, 1: 1, 2: 0}), (0, 1)),
    (cycle(7), Girth4Step(part=ForestStablePartition(F=(0, 2, 3, 4, 5, 6), S=(1,))), (0, 6)),
], ids=["acyclic", "girth4"])
def test_a_forest_layout_that_loses_an_edge_fails_at_the_root(monkeypatch, G, step, pair):
    """The pipelines lift their forest layouts unchecked, so a layout that
    loses an edge is a program fault, which the root check reports."""
    assemble(G, step)

    def detached(F):
        """The layout with forest vertex 0 moved off every window of
        dimension 1, so that it loses its forest edges."""
        x, y = forest_two_dim(F).layers
        return BoxRepresentation(({**x, 0: Interval(-2, -1)}, y))

    monkeypatch.setattr("boxicity.boxes.forest_two_dim", detached)
    with pytest.raises(RuntimeError, match=r"^root: assembled representation disagrees "
                                           rf"on pair \({pair[0]}, {pair[1]}\)$"):
        assemble(G, step)


def test_oracle_step_failure_reports_status():
    G = roberts_graph(3)
    script = BaseOracleStep(d_max=2)
    validate_script(G, script)  # limits are well-formed; only a run can tell
    with pytest.raises(CertificateError, match="lower bound 3"):
        assemble(G, script)


def test_oracle_step_budget_failure():
    G = roberts_graph(3)
    script = BaseOracleStep(budget=SearchBudget(max_nodes=10))
    with pytest.raises(BudgetExhausted, match="stopped early"):
        assemble(G, script)


# -------------------------------------------------------- dry-run parity


def agreement_cases():
    G4 = cycle(4)
    yield roberts_graph(4), Sur1Step(
        cover=PairCover(X=(0, 1, 2, 3), pairs=((0, 1), (2, 3))),
        sub=BaseOracleStep(),
    )
    yield torus_grid(), Sur1Step(cover=PairCover(X=(0, 1, 2), pairs=()),
                                 sub=BaseOracleStep())
    yield G4, Sur2Step(sep=Separation(V1=(0, 1), V2=(2, 3), X=()),
                       sub1=BaseOracleStep(), sub2=BaseOracleStep())
    yield G4, Sur2Step(sep=Separation(V1=(0,), V2=(2,), X=(1, 3)),
                       sub1=BaseOracleStep(), sub2=BaseOracleStep())
    yield complete(3), Sur2bisStep(K=(0, 2), sub=BaseOracleStep())
    yield make_graph(3, [(0, 1), (1, 2)]), Sur2bisStep(K=(0, 2), sub=BaseOracleStep())
    yield cycle(5), AcyclicStep(coloring={0: 0, 1: 1, 2: 0, 3: 1, 4: 2})
    yield cycle(5), AcyclicStep(coloring={0: 0, 1: 1, 2: 0, 3: 1, 4: 0})
    yield cycle(7), Girth4Step(part=ForestStablePartition(F=(0, 2, 3, 4, 5, 6), S=(1,)))
    yield cycle(7), Girth4Step(part=ForestStablePartition(F=tuple(range(7)), S=()))
    yield roberts_graph(2), RobertsStep()
    yield cycle(5), RobertsStep()
    yield cycle(5), BaseExplicitStep(rep=universal_representation(cycle(5)))
    yield cycle(4), BaseExplicitStep(rep=universal_representation(cycle(5)))
    yield gadget_instance(6)[0], Figure1Step(cls=gadget_instance(6)[1],
                                             sub=BaseOracleStep())
    yield cycle(6), Figure1Step(
        cls=CycleClassification(cycle=tuple(range(6)), assignments={}),
        sub=BaseOracleStep(),
    )


def test_dry_run_agrees_with_assembly():
    for G, script in agreement_cases():
        try:
            validate_script(G, script)
            dry = True
        except CertificateError:
            dry = False
        try:
            B, _ = assemble(G, script)
            assert_represents(B, G)
            full = True
        except CertificateError:
            full = False
        assert dry == full, f"dry-run and assembly disagree for {script!r}"


# --------------------------------------------------------------- JSON


def full_script():
    return Sur2Step(
        sep=Separation(V1=(4, 5, 6, 7), V2=(0, 1, 2, 3), X=()),
        sub1=Sur1Step(
            cover=PairCover(X=(4, 6), pairs=((4, 6),)),
            sub=BaseOracleStep(d_max=3, budget=SearchBudget(max_nodes=500)),
            note="inner reduction",
        ),
        sub2=RobertsStep(),
    )


def test_script_json_round_trip():
    script = full_script()
    doc = script_doc(script)
    text = json.dumps(doc, sort_keys=True, indent=2)
    again = step_from_dict(json.loads(text))
    assert again == script


def test_script_parsing_rejects_malformed_steps():
    with pytest.raises(ParseError, match="rule"):
        step_from_dict({"cover": {}})
    with pytest.raises(ParseError, match="unknown rule"):
        step_from_dict({"rule": "shrink"})
    with pytest.raises(ParseError, match="missing"):
        step_from_dict({"rule": "sur1", "cover": {"X": [0], "pairs": []}})
    with pytest.raises(ParseError, match="unknown keys"):
        step_from_dict({"rule": "roberts", "K": [1]})
    with pytest.raises(ParseError, match="note"):
        step_from_dict({"rule": "roberts", "note": 7})


def test_script_parsing_caps_the_nesting_depth():
    def nested(depth):
        doc = {"rule": "roberts"}
        for _ in range(depth - 1):
            doc = {"rule": "sur2bis", "K": [0, 1], "sub": doc}
        return doc

    assert step_from_dict(nested(MAX_SCRIPT_DEPTH)).sub.sub.K == (0, 1)
    with pytest.raises(ParseError, match=f"more than {MAX_SCRIPT_DEPTH} steps"):
        step_from_dict(nested(MAX_SCRIPT_DEPTH + 1))


def test_scripts_built_in_python_are_capped_in_depth():
    def chain(depth):
        script = RobertsStep()
        for _ in range(depth - 1):
            script = Sur2bisStep(K=(), sub=script)
        return script

    G = make_graph(2, [])
    # deep enough passes the depth check, but its doublings are refused
    # by the size cap before anything is built
    too_big = "exceed the cap of 1000000 intervals"
    with pytest.raises(CertificateError, match=too_big):
        validate_script(G, chain(MAX_SCRIPT_DEPTH))
    message = f"more than {MAX_SCRIPT_DEPTH} steps"
    for depth in (MAX_SCRIPT_DEPTH + 1, 2000):
        with pytest.raises(CertificateError, match=message):
            validate_script(G, chain(depth))
        with pytest.raises(CertificateError, match=message):
            assemble(G, chain(depth))


def test_predicted_size_is_capped_before_building():
    def chain(doublings, leaf=RobertsStep()):
        script = leaf
        for _ in range(doublings):
            script = Sur2bisStep(K=(), sub=script)
        return script

    G = make_graph(2, [])  # roberts(1): one dimension, doubled per step
    assert MAX_PREDICTED_INTERVALS == 10**6
    B, report = assemble(G, chain(3))
    assert B.d == 8 and report.total_dimension == 8
    validate_script(G, chain(18))  # 2**18 dimensions on 2 vertices fit
    message = ("root/sub: predicted 524288 dimensions on 2 vertices exceed "
               "the cap of 1000000 intervals")
    for run in (validate_script, assemble):
        with pytest.raises(CertificateError) as caught:
            run(G, chain(20))
        assert str(caught.value) == message
    # an oracle leaf counts as its d_max, which defaults to floor(n/2)
    K8 = roberts_graph(4)
    validate_script(K8, chain(15, BaseOracleStep(d_max=1)))
    with pytest.raises(CertificateError, match="^root: predicted 131072 dimensions on 8 "):
        validate_script(K8, chain(15, BaseOracleStep()))


@pytest.mark.parametrize("key", ["02", " 2", "+2", "2_0", "-0"])
def test_certificate_vertex_keys_must_be_canonical(key):
    assert coloring_from_dict({"colors": {"2": 0}}) == {2: 0}
    with pytest.raises(InvalidInput, match="color key"):
        coloring_from_dict({"colors": {key: 0}})
    cls = {"cycle": [0, 1, 2, 3, 4, 5], "assignments": {"7": ["S1", 0]}}
    assert classification_from_dict(cls).assignments == {7: ("S1", 0)}
    with pytest.raises(InvalidInput, match="assignment key"):
        classification_from_dict({**cls, "assignments": {key: ["S1", 0]}})


def test_report_serializes():
    G = roberts_graph(4)
    script = Sur1Step(
        cover=PairCover(X=(0, 1, 2, 3), pairs=((0, 1), (2, 3))),
        sub=BaseOracleStep(),
        note="separator taken from a drawing",
    )
    _, report = assemble(G, script)
    doc = report_to_dict(report)
    text = json.dumps(doc, sort_keys=True, indent=2)
    parsed = json.loads(text)
    assert parsed["total_dimension"] == 4
    assert parsed["steps"][0]["note"] == "separator taken from a drawing"
    assert parsed["steps"][1]["rule"] == "base_oracle"


# ------------------------------------------------------- pinned reports


def _row(path, rule, vertices, formula, dim, note=None):
    return {"path": path, "rule": rule, "vertices": vertices, "formula": formula,
            "claimed": dim, "achieved": dim, "verified": True, "note": note}


def pinned_reports():
    """Nested scripts that together use every rule, with their full reports."""
    yield two_square_blocks(), Sur2Step(
        sep=Separation(V1=(4, 5, 6, 7), V2=(0, 1, 2, 3), X=()),
        sub1=Sur1Step(cover=PairCover(X=(4, 6), pairs=((4, 6),)),
                      sub=BaseOracleStep(d_max=3), note="inner reduction"),
        sub2=RobertsStep(),
    ), [
        _row("root", "sur2", 8, "sub1 + sub2 + 1 = 2 + 2 + 1", 5),
        _row("root/sub1", "sur1", 4, "sub + |X| - k = 1 + 2 - 1", 2, "inner reduction"),
        _row("root/sub1/sub", "base_oracle", 2, "box(G) by search = 1", 1),
        _row("root/sub2", "roberts", 4, "n = 2", 2),
    ]
    base, cls = gadget_instance(6, classes=("S2", "S3"))
    G = make_graph(base.n + 2, sorted(base.edges) + [(6, base.n), (base.n, base.n + 1)])
    rest = tuple(range(6, G.n))
    yield G, Figure1Step(cls=cls, sub=Girth4Step(part=ForestStablePartition(F=rest, S=()))), [
        _row("root", "figure1", 20, "sub + 5 = 4 + 5", 9),
        _row("root/sub", "girth4", 14, "4", 4),
    ]
    yield complete(3), Sur2bisStep(K=(0, 2), sub=AcyclicStep(coloring={0: 0, 1: 1, 2: 0})), [
        _row("root", "sur2bis", 3, "2 * sub = 2 * 2", 4),
        _row("root/sub", "acyclic", 3, "k(k-1) = 2*1", 2),
    ]
    on_path = relabel_box_representation(universal_representation(path(4)),
                                         {i: i + 1 for i in range(4)})
    yield cycle(5), Sur1Step(cover=PairCover(X=(0,), pairs=()),
                             sub=BaseExplicitStep(rep=on_path)), [
        _row("root", "sur1", 5, "sub + |X| - k = 4 + 1 - 0", 5),
        _row("root/sub", "base_explicit", 4, "given (4)", 4),
    ]


def test_pinned_reports_cover_every_rule():
    rules = {row["rule"] for _, _, rows in pinned_reports() for row in rows}
    assert rules == {"sur1", "sur2", "sur2bis", "figure1", "acyclic", "girth4",
                     "roberts", "base_explicit", "base_oracle"}
    for G, script, rows in pinned_reports():
        B, report = assemble(G, script)
        assert_represents(B, G)
        assert report_to_dict(report) == {
            "total_dimension": rows[0]["achieved"], "verified": True, "steps": rows,
        }


# ---------------------------------------------------- JSON properties

_ids = st.integers(-3, 40)
_id_tuples = st.lists(_ids, max_size=5).map(tuple)
_notes = st.none() | st.text(max_size=8)
_intervals = st.tuples(st.fractions(), st.fractions()).map(
    lambda p: Interval(min(p), max(p)))
_box_reps = st.lists(_ids, min_size=1, max_size=4, unique=True).flatmap(lambda dom: st.builds(
    BoxRepresentation,
    st.lists(st.fixed_dictionaries(dict.fromkeys(dom, _intervals)), min_size=1, max_size=3)))
_budgets = st.builds(
    SearchBudget,
    max_nodes=st.integers(1, 10**15),
    time_limit=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
)
_leaves = st.one_of(
    st.builds(AcyclicStep, coloring=st.dictionaries(_ids, st.integers(-2, 9), max_size=5),
              note=_notes),
    st.builds(Girth4Step, part=st.builds(ForestStablePartition, _id_tuples, _id_tuples),
              note=_notes),
    st.builds(RobertsStep, note=_notes),
    st.builds(BaseExplicitStep, rep=_box_reps, note=_notes),
    st.builds(BaseOracleStep, d_max=st.none() | st.integers(-2, 20),
              budget=st.none() | _budgets, note=_notes),
)
scripts = st.recursive(_leaves, lambda sub: st.one_of(
    st.builds(Sur1Step, note=_notes, sub=sub, cover=st.builds(
        PairCover, _id_tuples, st.lists(st.tuples(_ids, _ids), max_size=3).map(tuple))),
    st.builds(Sur2Step, sep=st.builds(Separation, _id_tuples, _id_tuples, _id_tuples),
              sub1=sub, sub2=sub, note=_notes),
    st.builds(Sur2bisStep, K=_id_tuples, sub=sub, note=_notes),
    st.builds(Figure1Step, sub=sub, note=_notes, cls=st.builds(
        CycleClassification, _id_tuples,
        st.dictionaries(_ids, st.tuples(st.text(max_size=3), st.integers(-2, 9)),
                        max_size=4))),
), max_leaves=6)


@settings(deadline=None)
@given(scripts)
def test_step_json_round_trip_property(script):
    text = json.dumps(script_doc(script), sort_keys=True)
    assert step_from_dict(json.loads(text)) == script


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _places(doc):
    """Every (container, key) in a JSON document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in list(items):
        yield doc, key
        yield from _places(value)


# every reader of a JSON document, each through graphs.fields
DECODERS = [graph_from_dict, box_rep_from_dict, pair_cover_from_dict, separation_from_dict,
            classification_from_dict, partition_from_dict, coloring_from_dict,
            step_from_dict, _budget_from_dict]


@pytest.mark.parametrize("decode", DECODERS, ids=lambda decode: decode.__name__)
@settings(deadline=None)
@given(_json)
def test_every_decoder_on_arbitrary_json_raises_only_invalid_input(decode, doc):
    try:
        decode(doc)
    except InvalidInput:
        pass


@settings(deadline=None)
@given(scripts, st.data())
def test_step_from_dict_on_corrupted_scripts_raises_only_invalid_input(script, data):
    doc = script_doc(script)
    places = list(_places(doc))
    container, key = places[data.draw(st.integers(0, len(places) - 1))]
    container[key] = data.draw(_json)
    try:
        step_from_dict(json.loads(json.dumps(doc)))
    except InvalidInput:
        pass


def test_rules_cover_every_step_type_and_every_documented_rule():
    assert {rule.step for rule in RULES} == set(typing.get_args(DerivationStep))
    assert len({rule.name for rule in RULES}) == len(RULES)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = readme.split("Rules:", 1)[1].split(".", 1)[0]
    listed = re.sub(r"\([^)]*\)", "", listed)  # drop each rule's keys
    assert {rule.name for rule in RULES} == set(re.findall(r"`(\w+)`", listed))


def test_step_classes_come_from_the_rules_as_immutable_records():
    assert [rule.step.__name__ for rule in RULES] == [
        "Sur1Step", "Sur2Step", "Sur2bisStep", "Figure1Step", "AcyclicStep",
        "Girth4Step", "RobertsStep", "BaseExplicitStep", "BaseOracleStep"]
    cover = PairCover(X=(0, 1), pairs=((0, 1),))
    step = Sur1Step(cover=cover, sub=RobertsStep())
    assert (step.cover, step.sub, step.note) == (cover, RobertsStep(), None)
    assert step == Sur1Step(cover, RobertsStep(note=None), None)
    assert hash(step) == hash((cover, RobertsStep(), None))
    assert repr(step) == ("Sur1Step(cover=PairCover(X=(0, 1), pairs=((0, 1),)), "
                          "sub=RobertsStep(note=None), note=None)")
    assert repr(BaseOracleStep(d_max=2)) == "BaseOracleStep(d_max=2, budget=None, note=None)"
    with pytest.raises(AttributeError):
        step.note = "changed"


def test_records_hash_as_their_field_tuples():
    """As the frozen dataclasses did, so sets of records iterate as before."""
    assert hash(make_graph(3, [(0, 1)])) == hash((3, frozenset({(0, 1)})))
    assert hash(Interval(0, 1)) == hash((Fraction(0), Fraction(1)))
    assert hash(SearchBudget()) == hash((2_000_000, 60.0))
    assert hash(Separation((0,), (1,), ())) == hash(((0,), (1,), ()))
    assert hash(ForestStablePartition(F=(0,), S=())) == hash(((0,), ()))
