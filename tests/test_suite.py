import json
import sys
from fractions import Fraction

import pytest

from psskit import VecSet, run_property_suite, simplicial, spanset, suite_passed
from psskit.cli import main, vecset_json
from psskit.conical import ConeFrame, enumerate_mns
from psskit.latticemod import LatticeElement, SpanLattice, build_lattice
from psskit.simplicial import Simplex, basis_decomposition, enumerate_simplices
from psskit.suite import _check_lattice, _check_simplex_members
from psskit.genlib import (
    example_x9,
    make_cross,
    make_simplex,
    polygon_example,
    random_positive_basis,
)

from conftest import count_lp_calls


@pytest.mark.parametrize(
    "X",
    [
        make_cross(2),
        make_cross(3),
        make_simplex(3),
        example_x9(),
        polygon_example(3),
        # positively independent basis with overlapping supports: the
        # all-subsets condition fails there, the implication chain holds
        VecSet(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, 0], [0, -1, -1]]),
        # positively dependent spanning set where the spanning-subsets
        # variant stays true
        VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]]),
        # not a spanning set at all: most checks skip, the rest hold
        VecSet(2, [[1, 0], [0, 1]]),
        # not spanning, though it holds a simplex: the simplices miss e2
        VecSet(2, [[1, 0], [-1, 0], [0, 1]]),
    ],
)
def test_suite_passes_on_representative_inputs(X):
    checks = run_property_suite(X)
    assert suite_passed(checks), [
        (c.name, c.detail) for c in checks if c.applicable and not c.passed
    ]


def test_check_names_are_stable():
    names = [c.name for c in run_property_suite(make_cross(2))]
    assert names == [
        "spanning_equivalence",
        "pointed_trichotomy",
        "simplex_member_structure",
        "independence_factorization",
        "cardinality_bounds",
        "lattice_boolean_laws",
        "conic_caratheodory",
        "pointed_cover",
        "overlap_family_bound",
        "frame_full_rank",
        "frame_simplex_intersections",
        "nonnegative_dependency_basis",
        "gale_point_classes",
    ]


def test_inapplicable_checks_marked():
    checks = run_property_suite(VecSet(2, [[1, 0], [0, 1]]))
    by_name = {c.name: c for c in checks}
    assert not by_name["cardinality_bounds"].applicable
    assert not by_name["independence_factorization"].applicable
    assert by_name["pointed_trichotomy"].applicable


def test_suite_lp_count_gate(monkeypatch):
    # Every check reads the input's simplices, frames and flags from one
    # per-set memo, is_pss is one LP, the cover assigns the members of the
    # positive basis without one, and the frame walk takes each separator
    # of a positive basis from its basis decomposition.  The 21 left are
    # is_pss, positively_dependent's 9, the 10 Caratheodory reductions and
    # the trichotomy's separator.  It was 2,151 when each check recomputed
    # its structures, 411 while the frame walk still asked an LP of
    # extensions holding a simplex, and 344 while it asked one of every
    # simplex-free extension its parent's separator did not rescale.
    calls = count_lp_calls(monkeypatch)
    run_property_suite(random_positive_basis(6, 3, 1))
    assert len(calls) <= 21


def test_frame_witness_below_one_fails_the_rank_check(monkeypatch):
    # the suite re-checks every frame witness by multiplication, whichever
    # route built it: halved witnesses give each member a product of 1/2
    X = make_cross(3)
    halved = [ConeFrame(f.members, f.witness.scale("1/2")) for f in enumerate_mns(X)]
    monkeypatch.setattr("psskit.suite.enumerate_mns", lambda Y: halved)
    failed = [c for c in run_property_suite(X) if not c.passed]
    assert [(c.name, c.detail) for c in failed] == [
        ("frame_full_rank", f"frame {halved[0].members}: witness below 1 on 0")
    ]


@pytest.mark.parametrize(
    "build, limit",
    [
        (lambda: make_cross(6), 200),
        (lambda: make_cross(8), 600),
        (example_x9, 47),
        (lambda: random_positive_basis(6, 3, 1), 70),
        (lambda: random_positive_basis(6, 3, 15), 70),
    ],
    ids=["6-200", "8-600", "x9", "rpb631", "rpb6315"],
)
def test_suite_rank_count_gate(build, limit, monkeypatch):
    # Every subset rank is kept in the set's memo under its mask, and the
    # overlap family skips intersections of fewer than d members.  The
    # cross limits sit just above the counts measured then (165 and 561);
    # they were 2,198 and 33,222 while ranks were kept per call or not at
    # all.  The other limits are the counts once the simplex member check
    # read one rank per simplex, not one per member (64, 80 and 82).
    calls = count_lp_calls(monkeypatch, names=("rank",))
    assert suite_passed(run_property_suite(build()))
    assert len(calls) <= limit


@pytest.mark.parametrize("d, limit", [(6, 150), (8, 540)])
def test_simplex_member_check_rank_count_gate(d, limit, monkeypatch):
    # The simplex member check reads each simplex's rank by mask in the
    # set's own memo.  The limits sit just above the counts measured when
    # it read each remainder's (147 and 537); they were 159 and 553 while
    # that check built a set per remainder.
    calls = count_lp_calls(monkeypatch, names=("rank",))
    assert suite_passed(run_property_suite(make_cross(d)))
    assert len(calls) <= limit


def _count_mask_calls(monkeypatch) -> list:
    calls = []
    original = spanset._mask

    def counted(indices):
        calls.append(indices)
        return original(indices)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "psskit" and vars(mod).get("_mask") is original:
            monkeypatch.setattr(mod, "_mask", counted)
    return calls


def test_lattice_check_reads_each_mask_once(monkeypatch):
    # Each element and simplex carries its mask, built once from its tuple:
    # 64 + 6 on make_cross(6), where rebuilding the masks of every pair of
    # elements from their tuples made 37,464 calls.
    X = make_cross(6)
    calls = _count_mask_calls(monkeypatch)
    assert _check_lattice(X) == (True, "64 elements")
    made = len(calls)
    lattice = build_lattice(X)
    assert made <= len(lattice) + len(lattice.all_simplices) == 70


def test_lattice_check_compares_no_elements(monkeypatch):
    # membership is read by mask and meet, join and complement are never
    # called, so no two elements are compared; the complement laws made 192
    # comparisons on make_cross(6), and the membership test before them 16,960
    X = make_cross(6)
    calls = []
    original = LatticeElement.__eq__
    monkeypatch.setattr(
        LatticeElement, "__eq__", lambda a, b: calls.append(1) or original(a, b)
    )
    assert _check_lattice(X) == (True, "64 elements")
    assert len(calls) == 0


class _CountedIndex(dict):
    def __init__(self, index, lookups):
        super().__init__(index)
        self.lookups = lookups

    def __contains__(self, key):
        self.lookups.append(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.lookups.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups.append(key)
        return super().get(key, default)


def test_lattice_check_is_linear_in_the_lattice(monkeypatch):
    # One lookup for the empty set and one per element and simplex: at most
    # L*s + 1 = 512 * 9 + 1 on make_cross(9), where testing meet and join on
    # every pair of elements made 262,144 calls of each
    lookups, operations = [], []

    def counted_build(X):
        lattice = build_lattice(X)
        lattice._by_mask = _CountedIndex(lattice._by_mask, lookups)
        return lattice

    monkeypatch.setattr("psskit.suite.build_lattice", counted_build)
    for name in ("meet", "join", "complement"):
        original = getattr(SpanLattice, name)
        monkeypatch.setattr(
            SpanLattice,
            name,
            lambda self, *args, _op=original: operations.append(_op) or _op(self, *args),
        )
    assert _check_lattice(make_cross(9)) == (True, "512 elements")
    assert operations == []
    assert len(lookups) <= 512 * 9 + 1 == 4609


def _lattice_with(edit):
    """A ``build_lattice`` whose element list is ``edit`` of the real one."""

    def build(X):
        lattice = build_lattice(X)
        return SpanLattice(X, lattice.all_simplices, edit(lattice.elements))

    return build


def _dropped(elements):
    return [e for e in elements if e is not elements[-2]]


def _short_top(elements):
    top = elements[-1]
    return [*elements[:-1], LatticeElement(top.subset, top.simplices[1:])]


@pytest.mark.parametrize(
    "X, target, patch, detail",
    [
        # with (2, 3, 4, 5) dropped, the join (2, 3) | (4, 5) is missing
        (
            make_cross(3),
            "build_lattice",
            _lattice_with(_dropped),
            "join (2, 3, 4, 5) of an element and a simplex is missing",
        ),
        (
            make_cross(3),
            "build_lattice",
            _lattice_with(lambda e: e[1:]),
            "the empty set is not an element",
        ),
        (
            make_cross(3),
            "build_lattice",
            _lattice_with(_short_top),
            "element (0, 1, 2, 3, 4, 5) lists simplices (1, 2), not (0, 1, 2)",
        ),
        # (0,) lists the simplices inside it, none, but is not their union
        (
            make_cross(3),
            "build_lattice",
            _lattice_with(lambda e: [*e, LatticeElement((0,), ())]),
            "element (0,) is not the union of its simplices",
        ),
        # x9 is no positive basis: its 5 simplices make 22 elements, not 32
        (example_x9(), "is_positive_basis", lambda X: True, "positive basis lattice has 22 != 32"),
    ],
    ids=["dropped", "no-empty-set", "short-simplices", "not-a-union", "x9-count"],
)
def test_lattice_check_failing_inputs(X, target, patch, detail, monkeypatch):
    monkeypatch.setattr(f"psskit.suite.{target}", patch)
    check = next(c for c in run_property_suite(X) if c.name == "lattice_boolean_laws")
    assert (check.applicable, check.passed, check.detail) == (True, False, detail)


def test_verify_on_a_corrupted_lattice_exits_one(tmp_path, monkeypatch, capsys):
    # a failing check, not an internal error: x9 is no positive basis, and
    # joining every pair of elements raised KeyError on the missing union
    monkeypatch.setattr("psskit.suite.build_lattice", _lattice_with(_dropped))
    path = tmp_path / "x9.json"
    path.write_text(json.dumps(vecset_json(example_x9())))
    assert main(["verify", str(path)]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["lattice_boolean_laws"] == {
        "name": "lattice_boolean_laws",
        "applicable": True,
        "passed": False,
        "detail": "join (0, 1, 3, 4, 5, 6, 7, 8) of an element and a simplex is missing",
    }


@pytest.mark.parametrize(
    "pick, rebuild",
    [
        (
            lambda X: enumerate_simplices(X)[-1],
            lambda s: Simplex(s.members, s.dependency),
        ),
        (
            lambda X: enumerate_mns(X)[-1],
            lambda f: ConeFrame(f.members, f.witness),
        ),
        (
            lambda X: list(build_lattice(X))[-2],
            lambda e: LatticeElement(e.subset, e.simplices),
        ),
    ],
    ids=["Simplex", "ConeFrame", "LatticeElement"],
)
def test_subset_objects_carry_their_mask(pick, rebuild):
    # the mask is not a field: a hand-built object equals the enumerated
    # one whether or not either has read it, and repr does not show it
    x = pick(example_x9())
    members = x.subset if isinstance(x, LatticeElement) else x.members
    hand = rebuild(x)
    assert hand == x
    assert x.mask == spanset._mask(members) != 0
    assert hand == x and hand.mask == x.mask
    assert "mask" not in repr(x)


def test_simplex_member_check_builds_no_vecset(monkeypatch):
    # each simplex's rank is read by mask in the set's own memo, and the
    # interior claim is re-checked from the simplex's dependency
    X = example_x9()
    built = []
    original = VecSet.__init__
    monkeypatch.setattr(
        VecSet, "__init__", lambda self, *a: built.append(a) or original(self, *a)
    )
    assert _check_simplex_members(X)[0]
    assert built == []


def _scaled_last(factor):
    def patch(X):
        s = enumerate_simplices(X)[0]
        last = s.members[-1]
        return Simplex(s.members, {**s.dependency, last: factor * s.dependency[last]})

    return patch


@pytest.mark.parametrize(
    "X, patch",
    [
        (example_x9(), _scaled_last(-1)),
        (example_x9(), _scaled_last(2)),
        (example_x9(), _scaled_last(0)),
        # a circuit plus one independent member: rank |S| - 1 and every
        # coefficient positive, but e1 - e1 + e2 is not zero
        (make_cross(2), lambda X: Simplex((0, 1, 2), dict.fromkeys((0, 1, 2), Fraction(1)))),
    ],
    ids=["-1", "2", "0", "non-circuit"],
)
def test_simplex_member_check_rechecks_the_dependency(X, patch, monkeypatch):
    # a negated or zero coefficient is not positive, and a doubled one or a
    # non-circuit's no longer weights the members to zero
    patched = patch(X)
    monkeypatch.setattr("psskit.suite.enumerate_simplices", lambda Y: [patched])
    checks = {c.name: c for c in run_property_suite(X)}
    assert not checks["simplex_member_structure"].passed
    assert checks["simplex_member_structure"].detail == (
        f"simplex {patched.members}: {patched.members[0]} not interior over the rest"
    )


def test_suite_builds_the_basis_decomposition_once(monkeypatch):
    # the decomposition is memoized: the chain, bounds and frame checks all
    # read the one build
    builds = []
    original = simplicial.BasisDecomposition
    monkeypatch.setattr(
        simplicial, "BasisDecomposition", lambda *args: builds.append(args) or original(*args)
    )
    assert suite_passed(run_property_suite(make_cross(3)))
    assert len(builds) == 1


def test_suite_builds_no_subset(monkeypatch):
    # every subset is read by mask in the set's own memo; the decomposition
    # re-checked each off-basis element on a sub-VecSet of its support,
    # 8 on make_cross(8)
    X = make_cross(8)
    builds = []
    original = VecSet.__init__
    monkeypatch.setattr(
        VecSet, "__init__", lambda self, *args: builds.append(args) or original(self, *args)
    )
    assert suite_passed(run_property_suite(X))
    assert not builds


def test_suite_builds_the_union_closure_once(monkeypatch):
    # The spanning-only factorization scan and the lattice check share one
    # memoized closure; a build is one read of the simplices from inside it.
    builds = []
    original = simplicial.enumerate_simplices

    def counted(X):
        if sys._getframe(1).f_code.co_name == "positively_spanning_subsets":
            builds.append(X)
        return original(X)

    monkeypatch.setattr(simplicial, "enumerate_simplices", counted)
    checks = {c.name: c for c in run_property_suite(make_cross(3))}
    assert checks["independence_factorization"].applicable
    assert checks["lattice_boolean_laws"].applicable
    assert suite_passed(checks.values())
    assert len(builds) == 1


def _frames_and_simplices(X):
    frames = [frozenset(f.members) for f in enumerate_mns(X)]
    simplices = [frozenset(s.members) for s in enumerate_simplices(X)]
    return frames, simplices


def _meets_all_but_one(frame, simplices):
    return all(len(s - frame) == 1 for s in simplices)


def test_frame_missing_two_members_of_a_simplex_is_pinned(tmp_path, capsys):
    # A valid positive basis on which not every maximal frame meets every
    # simplex in all but one element: the suite must still pass.
    X = random_positive_basis(6, 3, 15)
    frames, simplices = _frames_and_simplices(X)
    frame, simplex = frozenset({0, 1, 2, 4, 6, 7, 8}), frozenset({2, 3, 4, 5, 7})
    assert frame in frames and simplex in simplices
    assert simplex - frame == {3, 5}
    check = next(c for c in run_property_suite(X) if c.name == "frame_simplex_intersections")
    assert check.passed and check.detail != "frames meet every simplex in all but one element"
    path = tmp_path / "rpb_6_3_15.json"
    path.write_text(json.dumps(vecset_json(X)))
    assert main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_frame_detail_on_a_dependent_set_counts_its_misses():
    # x9 is positively dependent: every one of its 18 frames misses two
    # members of some simplex, e.g. frame (0,1,3,4,6,7) and simplex (2,5,6),
    # and the check says so instead of claiming the all-but-one property.
    X = example_x9()
    frames, simplices = _frames_and_simplices(X)
    frame, simplex = frozenset({0, 1, 3, 4, 6, 7}), frozenset({2, 5, 6})
    assert frame in frames and simplex in simplices
    assert simplex - frame == {2, 5}
    assert len(frames) == 18
    assert all(any(len(s - f) > 1 for s in simplices) for f in frames)
    check = next(c for c in run_property_suite(X) if c.name == "frame_simplex_intersections")
    assert check.passed
    assert check.detail == (
        "18 of 18 frames miss two members of an overlapping simplex; "
        "every frame is maximal"
    )


@pytest.mark.parametrize(
    "args",
    [(d, n, seed) for d in (4, 5, 6) for n in (2, 3) for seed in (0, 1)]
    + [(5, 3, 6), (6, 3, 15)],
)
def test_frame_statements_on_seeded_bases(args):
    X = random_positive_basis(*args)
    frames, simplices = _frames_and_simplices(X)
    # (b) maximality by simplex completion
    for f in frames:
        assert not any(s <= f for s in simplices)
        for j in set(X.indices()) - f:
            assert any(j in s and s <= f | {j} for s in simplices)
    # (a) some frame through the decomposition's linear basis
    B = frozenset(basis_decomposition(X).basis)
    assert any(B <= f and _meets_all_but_one(f, simplices) for f in frames)
    # (c) pairwise disjoint simplices: every frame
    if sum(map(len, simplices)) == len(frozenset().union(*simplices)):
        assert all(_meets_all_but_one(f, simplices) for f in frames)
    assert suite_passed(run_property_suite(X))
