import copy
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psskit import (
    FeasWitness,
    QVec,
    conical,
    enumerate_mns,
    example_x9,
    kernel_basis,
    make_cross,
    make_simplex,
    random_positive_basis,
    rank,
    ratlin,
    solve_nonneg,
    strict_separator,
)
from psskit.errors import DimensionMismatchError, PropertyViolation, ZeroVectorError
from psskit.ratlin import _dot, _phase_one, _reduce, _with_combinations, solve_linear

from conftest import (
    brute_force_nonneg_zero_combo,
    oracle_phase_one,
    oracle_rank,
    oracle_rref,
    oracle_strict_separator,
    small_rats,
    vecsets,
)

F = Fraction


class TestRank:
    def test_identity(self):
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_zero(self):
        assert rank([[0, 0], [0, 0]]) == 0

    def test_basis_plus_inside_vector(self):
        M = [QVec([1, 0, 0]), QVec([0, 1, 0]), QVec([0, 0, 1]), QVec([1, 1, -1])]
        assert rank(M) == 3

    @settings(max_examples=40, deadline=None)
    @given(vecsets(max_dim=3, max_size=5))
    def test_rank_matches_minor_oracle(self, X):
        assert rank(X.matrix()) == oracle_rank(X.matrix())


class TestKernel:
    def test_trivial(self):
        assert kernel_basis([[1, 0], [0, 1]]) == []

    def test_opposite_pair(self):
        kern = kernel_basis([[1], [-1]])
        assert kern == [QVec([1, 1])]

    def test_x9_kernel_dimension(self, x9_columns):
        # rank of the nine columns is 5, so the kernel has dimension 4
        # (the four simplex dependencies are linearly independent).
        assert oracle_rank(x9_columns) == 5
        kern = kernel_basis(x9_columns)
        assert len(kern) == 4
        for v in kern:
            assert all(
                sum(F(x9_columns[j][i]) * v[j] for j in range(9)) == 0
                for i in range(6)
            )
            first = next(c for c in v if c != 0)
            assert first == 1

    @settings(max_examples=40, deadline=None)
    @given(vecsets(max_dim=3, max_size=5))
    def test_rank_nullity(self, X):
        M = X.matrix()
        assert rank(M) + len(kernel_basis(M)) == len(M)


# entries with numerators and denominators up to 2^16, plus zeros and small integers
_entries = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.fractions(min_value=-(2**16), max_value=2**16, max_denominator=2**16),
)


@st.composite
def rat_matrices(draw, max_rows=5, max_cols=6):
    """Rational matrices, as their columns, with zero rows, zero columns and
    dependent rows."""
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    rows = []
    for i in range(m):
        kind = draw(st.sampled_from(("free", "zero", "combination")))
        if kind == "zero":
            row = [F(0)] * n
        elif kind == "combination" and i >= 2:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(_entries), draw(_entries)
            row = [a * x + b * y for x, y in zip(rows[j], rows[k])]
        else:
            row = [draw(_entries) for _ in range(n)]
        rows.append([F(0) if c in zero_cols else x for c, x in enumerate(row)])
    return [list(c) for c in zip(*rows)]


def _rows(columns) -> list[list[Fraction]]:
    return [list(r) for r in zip(*columns)]


def _oracle_kernel(columns) -> list[QVec]:
    R, pivots = oracle_rref(_rows(columns))
    n = len(columns)
    out = []
    for f in (j for j in range(n) if j not in pivots):
        v = [F(0)] * n
        v[f] = F(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -R[ri][f]
        first = next(x for x in v if x != 0)
        out.append(QVec(x / first for x in v))
    return out


def _oracle_solve(columns, rhs):
    n = len(columns)
    rows = [[columns[j][i] for j in range(n)] + [rhs[i]] for i in range(len(rhs))]
    R, pivots = oracle_rref(rows)
    if n in pivots:
        return None
    x = [F(0)] * n
    for ri, pc in enumerate(pivots):
        x[pc] = R[ri][n]
    return x


class TestIntegerEliminationOracle:
    """The fraction-free core against the Fraction elimination it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(rat_matrices())
    def test_rank_and_kernel(self, columns):
        assert rank(columns) == len(oracle_rref(_rows(columns))[1])
        assert kernel_basis(columns) == _oracle_kernel(columns)

    @settings(max_examples=150, deadline=None)
    @given(rat_matrices(), st.data())
    def test_solve_linear(self, columns, data):
        if data.draw(st.booleans()):  # a consistent right-hand side
            weights = [data.draw(_entries) for _ in columns]
            rhs = [
                sum((w * c[i] for w, c in zip(weights, columns)), F(0))
                for i in range(len(columns[0]))
            ]
        else:
            rhs = [data.draw(_entries) for _ in columns[0]]
        assert solve_linear(columns, rhs) == _oracle_solve(columns, rhs)

    def test_coefficient_growth_within_hadamard_bound(self):
        # Every reduced row is the primitive part of a Bareiss row, whose
        # entries are minors of order at most 6, so their size is at most
        # Hadamard's bound (sqrt(6) * 2^16)^6 for 6x6 minors of 16-bit
        # entries.  A step that skipped the gcd division would give the
        # same pivots with entries of thousands of bits.
        rng = random.Random(20261018)
        B = 2**16 - 1
        rows = [[rng.randint(-B, B) for _ in range(12)] for _ in range(6)]
        columns = [[row[j] for row in rows] for j in range(12)]
        reduced = _reduce(_with_combinations(columns), 6)
        assert reduced.count(None) == 6
        hadamard = 6**3 * B**6  # (sqrt(6) * B)^6, exactly
        bits = max(abs(a).bit_length() for v in reduced if v for a in v)
        assert bits <= hadamard.bit_length()

    def test_empty_and_zero_shapes(self):
        e = [QVec([1, 0, 0]), QVec([0, 1, 0]), QVec([0, 0, 1])]
        assert kernel_basis([[], [], []]) == e
        assert rank([]) == 0
        assert kernel_basis([[0, 0], [0, 0]]) == [QVec([1, 0]), QVec([0, 1])]
        assert solve_linear([], [0, 0]) == []
        assert solve_linear([], [1, 0]) is None
        assert solve_linear([[0, 0]], [0, 0]) == [0]


class TestSolveNonneg:
    def test_unit_square(self):
        res = solve_nonneg([QVec([1, 0]), QVec([0, 1])], QVec([1, 1]))
        assert res.kind == "coefficients"
        assert res.coeffs == {0: F(1), 1: F(1)}

    def test_negative_orthant_unreachable(self):
        res = solve_nonneg([QVec([1, 0]), QVec([0, 1])], QVec([-1, 0]))
        assert res.kind == "infeasible"

    def test_span_vector_negation_unreachable(self):
        # e1, e2, e3 and z = e1+e2-e3: -z is not a nonnegative combination
        vs = [QVec([1, 0, 0]), QVec([0, 1, 0]), QVec([0, 0, 1]), QVec([1, 1, -1])]
        res = solve_nonneg(vs, QVec([-1, -1, 1]))
        assert res.kind == "infeasible"

    def test_zero_rows_answer_zero_coefficients(self):
        res = solve_nonneg([[], [], []], [])
        assert res.kind == "coefficients"
        assert res.coeffs == {0: F(0), 1: F(0), 2: F(0)}

    @settings(max_examples=40, deadline=None)
    @given(vecsets(max_dim=3, max_size=5), st.data())
    def test_witness_reconstructs(self, X, data):
        weights = data.draw(
            st.lists(
                st.fractions(min_value=0, max_value=3, max_denominator=3),
                min_size=len(X),
                max_size=len(X),
            )
        )
        b = QVec.zero(X.dim)
        for v, w in zip(X, weights):
            b = b + v.scale(w)
        res = solve_nonneg(X.matrix(), b)
        assert res.kind == "coefficients"
        rebuilt = QVec.zero(X.dim)
        for j, c in res.coeffs.items():
            assert c >= 0
            rebuilt = rebuilt + X[j].scale(c)
        assert rebuilt == b

    @settings(max_examples=60, deadline=None)
    @given(vecsets(max_dim=3, max_size=5), st.data())
    def test_basic_solution_has_independent_support(self, X, data):
        # degenerate systems too: parallel columns, a row that is the sum
        # of the others (rank below the row count) and a zero rhs
        columns = [list(v) for v in X]
        for i in data.draw(st.lists(st.integers(0, len(X) - 1), max_size=3)):
            c = data.draw(small_rats.filter(lambda c: c != 0))
            columns.append([c * a for a in columns[i]])
        if data.draw(st.booleans()):
            columns = [col + [sum(col)] for col in columns]
        weights = data.draw(
            st.lists(
                st.fractions(min_value=0, max_value=2, max_denominator=3),
                min_size=len(columns),
                max_size=len(columns),
            )
        )
        if data.draw(st.booleans()):
            weights = [F(0)] * len(columns)
        rhs = [
            sum((w * col[k] for w, col in zip(weights, columns)), F(0))
            for k in range(len(columns[0]))
        ]
        res = solve_nonneg(columns, rhs)
        assert res.kind == "coefficients"
        support = [j for j, c in res.coeffs.items() if c != 0]
        assert all(res.coeffs[j] > 0 for j in support)
        assert oracle_rank([columns[j] for j in support]) == len(support)


class TestPhaseOneOracle:
    """The real-column tableau against the one with an artificial block."""

    def test_same_answer_as_the_artificial_block(self):
        # 3-4 rows over 2-4 columns with entries -2..2 give many degenerate
        # bases, so the oracle re-enters an artificial on both sides: with
        # a positive objective (infeasible) and with a zero one (feasible)
        rng = random.Random(20261018)
        reentries = {True: 0, False: 0}
        for _ in range(4000):
            m, n = rng.randint(3, 4), rng.randint(2, 4)
            rows = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
            rhs = [F(rng.randint(-2, 2)) for _ in range(m)]
            x, reentered = oracle_phase_one([list(c) for c in zip(*rows)], rhs)
            assert _phase_one(rows, rhs, n) == x, (rows, rhs)
            if reentered:
                reentries[x is not None] += 1
        assert reentries[True] >= 3
        assert reentries[False] >= 3

    def test_sparse_separator_tableaux_are_left_unchanged(self):
        # strict_separator's split tableau [x | -x | -I] over sparse x, with
        # m up to 14 rows, and the same rows stored as [x | -I] with the
        # first d columns free: x, indexed by labels, is the same, so u_k
        # and v_k = -u_k take the mirrored block's labels k and d + k.  A
        # negative right-hand side flips its row, a zero or positive one
        # keeps it, and the pivots update rows in place
        rng = random.Random(20261019)
        seen = {"flipped": 0, "kept": 0, "u": 0, "v": 0, True: 0, False: 0}
        for _ in range(300):
            m, d = rng.randint(1, 14), rng.randint(1, 6)
            xs = [
                [F(rng.choice((0, 0, 0, 1, -1, 2))) for _ in range(d)] for _ in range(m)
            ]
            surplus = [[F(-1) if k == i else F(0) for k in range(m)] for i in range(m)]
            split = [x + [-v for v in x] + s for x, s in zip(xs, surplus)]
            rows = [x + s for x, s in zip(xs, surplus)]
            rhs = [F(rng.choice((1, 1, 1, 0, -1))) for _ in range(m)]
            before = copy.deepcopy((split, rows, rhs))
            x = _phase_one(split, rhs, 2 * d + m)
            assert x == oracle_phase_one([list(c) for c in zip(*split)], rhs)[0]
            assert _phase_one(rows, rhs, d + m, free=d) == x
            assert (split, rows, rhs) == before
            seen["flipped"] += sum(b < 0 for b in rhs)
            seen["kept"] += sum(b >= 0 for b in rhs)
            seen[x is not None] += 1
            if x is not None:
                seen["u"] += any(x[:d])
                seen["v"] += any(x[d : 2 * d])
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize(
        "rows, rhs, free",
        [
            (
                [
                    [1, -3, 1, 0, 2, -3, 3, 0],
                    [2, 3, -2, -2, 1, 3, -1, 0],
                    [1, 0, -2, -3, 0, 0, -1, 1],
                ],
                [1, -1, 2],
                5,
            ),
            (
                [
                    [-3, -2, -3, 0, 0, 2, -3],
                    [3, 2, 2, 1, 2, 3, 0],
                    [-3, -2, 1, 1, 2, 0, 0],
                    [-2, -1, 0, 3, -3, 0, 2],
                ],
                [2, -1, 0, 0],
                6,
            ),
            (
                [
                    [-3, 1, -2, 0, 2, 0, -3],
                    [3, 1, 2, 1, 2, 3, 3],
                    [1, 1, 1, -3, 1, 0, 1],
                    [0, 2, -1, -3, 2, -3, -3],
                ],
                [0, -1, -1, -1],
                7,
            ),
        ],
    )
    def test_leaving_ties_compare_labels(self, rows, rhs, free):
        # a ratio tie between the rows of a basic u_k and a basic v_j with
        # j < k: the lower label u_k leaves, and leaving v_j (the lower
        # stored column) ends at another x
        rows = [[F(v) for v in row] for row in rows]
        rhs = [F(b) for b in rhs]
        split = [row[:free] + [-v for v in row[:free]] + row[free:] for row in rows]
        x = _phase_one(rows, rhs, len(rows[0]), free=free)
        assert x == oracle_phase_one([list(c) for c in zip(*split)], rhs)[0]


# the benchmark's verify_bases ladder: random positive bases drawn with
# seed 0, crosses and simplices
_LADDER = [
    *(
        pytest.param(lambda d=d, n=n: random_positive_basis(d, n, 0), id=f"random{d}{n}")
        for d, n in ((4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (6, 1))
    ),
    *(pytest.param(lambda d=d: make_cross(d), id=f"cross{d}") for d in (3, 4)),
    *(pytest.param(lambda d=d: make_simplex(d), id=f"simplex{d}") for d in (5, 6)),
]


class TestFreeCoordinateSeparator:
    """``strict_separator`` on [x | -I] against the split tableau."""

    @settings(max_examples=60, deadline=None)
    @given(vecsets(max_dim=4, max_size=6))
    def test_equals_the_split_tableau(self, X):
        vectors = list(X.vectors)
        assert strict_separator(vectors) == oracle_strict_separator(vectors)

    @pytest.mark.parametrize("build", [*_LADDER, pytest.param(example_x9, id="x9")])
    def test_every_frame_lp_of_the_ladder(self, build, monkeypatch):
        # each LP of the frame walk's LP route: the same kind and separator
        # as the split tableau, from one tableau of d + m stored columns,
        # where the split tableau stores 2d + m.  The ladder's positive
        # bases take their separators from the basis decomposition, so the
        # route is forced: its LPs are the simplex-free subsets where the
        # parent's separator does not rescale.  x9 asks them unforced.
        asked = []

        def recorded(vectors):
            asked.append(vectors)
            return strict_separator(vectors)

        monkeypatch.setattr(conical, "strict_separator", recorded)
        monkeypatch.setattr(conical, "is_positive_basis", lambda X: False)
        X = build()
        enumerate_mns(X)
        assert asked
        exact = ratlin._phase_one
        widths = []

        def wrapped(rows, rhs, n, free=0):
            widths.append((n, free, {len(row) for row in rows}))
            return exact(rows, rhs, n, free=free)

        monkeypatch.setattr(ratlin, "_phase_one", wrapped)
        for vectors in asked:
            widths.clear()
            assert strict_separator(vectors) == oracle_strict_separator(vectors)
            m = len(vectors)
            assert widths == [(X.dim + m, X.dim, {X.dim + m})]


class TestQVecEntries:
    def test_all_fraction_tuple_is_kept(self):
        t = (F(1), F(-1, 2))
        assert QVec(t).entries is t

    @pytest.mark.parametrize("t", [(F(1), 2), (F(1), "1/2"), (1, F(1, 2))])
    def test_other_tuples_convert(self, t):
        v = QVec(t)
        assert v.entries == tuple(F(e) for e in t)
        assert all(type(e) is F for e in v.entries)

    def test_no_instance_dict(self):
        # one slot per vector: sets hold tens of thousands of them
        assert not hasattr(QVec([1]), "__dict__")

    def test_list_is_copied(self):
        entries = [F(1), F(2)]
        v = QVec(entries)
        entries[0] = F(5)
        assert v.entries == (F(1), F(2))

    @pytest.mark.parametrize("entries", ["12", b"12", "1/2"])
    def test_string_is_an_entry_not_a_vector(self, entries):
        with pytest.raises(TypeError):
            QVec(entries)

    @pytest.mark.parametrize("entries", [[True, 2], (F(1), False)])
    def test_bool_is_not_a_rational(self, entries):
        with pytest.raises(TypeError):
            QVec(entries)

    @pytest.mark.parametrize("entry", ["1e3", "1E-3", "1e999999999", " 2e0 "])
    def test_exponent_is_refused(self, entry):
        # before Fraction expands it: "1e999999999" has 10^9 digits
        with pytest.raises(ValueError, match="no exponents"):
            QVec([entry])

    @pytest.mark.parametrize("entry, value", [(" 7 ", 7), ("-0.25", F(-1, 4)), ("3/6", F(1, 2))])
    def test_integer_decimal_and_ratio_strings(self, entry, value):
        assert QVec([entry]).entries == (value,)

    def test_sum_difference_and_negation(self):
        u, v = QVec([1, F(1, 2)]), QVec([3, -1])
        assert u + v == QVec([4, F(-1, 2)])
        assert u - v == QVec([-2, F(3, 2)]) == u + -v


class TestDot:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.one_of(_entries, st.integers(-(2**16), 2**16)), _entries),
            max_size=8,
        )
    )
    @example([])
    @example([(F(1, 4), 1), (F(-1, 6), F(-1))])  # 1/4 + 1/6 = 5/12, over lcm 12
    @example([(F(1, 6), F(3, 2)), (F(1, 3), F(3, 4))])  # 3/12 + 3/12 = 1/2
    @example([(F(1, 2), 2), (F(-1, 3), 3)])  # 1 - 1: a zero sum is the Fraction 0/1
    def test_equals_the_fraction_sum(self, pairs):
        got = _dot([x for x, _ in pairs], [y for _, y in pairs])
        want = sum((x * y for x, y in pairs), F(0))
        assert type(got) is F
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_entries, max_size=6), _entries)
    def test_length_mismatch_raises(self, xs, extra):
        with pytest.raises(ValueError):
            _dot(xs, [*xs, extra])
        with pytest.raises(ValueError):
            _dot([*xs, extra], xs)
        with pytest.raises(ValueError):
            QVec(xs).dot(QVec([*xs, extra]))


class TestCertificateRechecks:
    """A wrong phase-I solution is caught by the re-check by multiplication."""

    @staticmethod
    def _perturb(monkeypatch, delta):
        exact = ratlin._phase_one

        def perturbed(rows, rhs, n, free=0):
            x = exact(rows, rhs, n, free=free)
            return [x[0] + delta, *x[1:]]

        monkeypatch.setattr(ratlin, "_phase_one", perturbed)

    def test_solve_nonneg(self, monkeypatch):
        assert solve_nonneg([[1, 0], [0, 1]], [1, 1]).kind == "coefficients"
        self._perturb(monkeypatch, F(1))
        with pytest.raises(PropertyViolation, match="^simplex returned an invalid certificate$"):
            solve_nonneg([[1, 0], [0, 1]], [1, 1])

    def test_strict_separator(self, monkeypatch):
        assert strict_separator([[1, 0], [0, 1]]).separator == QVec([1, 1])
        self._perturb(monkeypatch, F(-1, 2))
        with pytest.raises(PropertyViolation, match="^simplex returned an invalid separator$"):
            strict_separator([[1, 0], [0, 1]])


class TestFeasWitness:
    def test_both_payloads_are_refused(self):
        with pytest.raises(ValueError, match="not both"):
            FeasWitness(coeffs={0: F(1)}, separator=QVec([1]))

    @pytest.mark.parametrize(
        "witness, kind",
        [
            (FeasWitness(coeffs={}), "coefficients"),
            (FeasWitness(separator=QVec([])), "separator"),
        ],
    )
    def test_empty_payload_is_an_answer(self, witness, kind):
        # read by ``is not None``: an empty payload is not falsy here
        assert witness.feasible
        assert witness.kind == kind


class TestStrictSeparator:
    def test_positive_quadrant(self):
        res = strict_separator([QVec([1, 0]), QVec([0, 1])])
        assert res.kind == "separator"
        assert all(res.separator.dot(v) >= 1 for v in (QVec([1, 0]), QVec([0, 1])))

    def test_antipodal_pair(self):
        assert strict_separator([QVec([1, 0]), QVec([-1, 0])]).kind == "infeasible"

    def test_positively_and_negatively_independent_quadruple(self):
        vs = [QVec([1, 0, 0]), QVec([0, 1, 0]), QVec([0, 0, 1]), QVec([1, 1, -1])]
        res = strict_separator(vs)
        assert res.kind == "separator"
        assert all(res.separator.dot(v) >= 1 for v in vs)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            strict_separator([QVec([1, 0]), QVec([0, 0])])

    def test_no_vectors(self):
        # phase I on no rows is feasible at once: the separator of R^0
        res = strict_separator([])
        assert (res.kind, res.separator) == ("separator", QVec([]))

    @settings(max_examples=50, deadline=None)
    @given(vecsets(max_dim=3, max_size=5))
    def test_infeasible_iff_positive_zero_combination(self, X):
        res = strict_separator(list(X.vectors))
        assert (res.kind == "infeasible") == brute_force_nonneg_zero_combo(X)
        if res.kind == "separator":
            assert all(res.separator.dot(v) >= 1 for v in X)

    @settings(max_examples=20, deadline=None)
    @given(vecsets(max_dim=3, max_size=5))
    def test_determinism(self, X):
        a = strict_separator(list(X.vectors))
        b = strict_separator(list(X.vectors))
        assert a == b
        A = X.matrix()
        target = X[0]
        assert solve_nonneg(A, target) == solve_nonneg(A, target)


# every linear-algebra entry, called on columns and a right-hand side
_ENTRIES = {
    "rank": lambda columns, rhs: rank(columns),
    "kernel_basis": lambda columns, rhs: kernel_basis(columns),
    "solve_linear": solve_linear,
    "solve_nonneg": solve_nonneg,
    "strict_separator": lambda columns, rhs: strict_separator(columns),
}
_BAD_COLUMNS = [
    ("long-last", [[1], [0, 1]], DimensionMismatchError),
    ("short-last", [[1, 0], [1]], DimensionMismatchError),
    ("float", [[1, 0], [0.5, 1]], TypeError),
    ("str", [[1, 0], "11"], TypeError),
    ("bool", [[True, False], [False, True]], TypeError),
]
_BAD_RHS = [
    ("rhs-short", [1], DimensionMismatchError),
    ("rhs-long", [1, 1, 1], DimensionMismatchError),
    ("rhs-str", "11", TypeError),
]


@pytest.mark.parametrize(
    "entry, columns, rhs, error",
    [
        pytest.param(entry, columns, [1, 1], error, id=f"{entry}-{case}")
        for entry in _ENTRIES
        for case, columns, error in _BAD_COLUMNS
    ]
    + [
        pytest.param(entry, [[1, 0], [0, 1]], rhs, error, id=f"{entry}-{case}")
        for entry in ("solve_linear", "solve_nonneg")
        for case, rhs, error in _BAD_RHS
    ],
)
def test_column_check(entry, columns, rhs, error):
    with pytest.raises(error):
        _ENTRIES[entry](columns, rhs)
