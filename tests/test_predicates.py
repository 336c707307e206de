"""Unit tests for the predicate algebra and CACQ decomposition."""

import pytest
from hypothesis import given, strategies as st

from repro.core.tuples import Schema
from repro.errors import QueryError
from repro.query.predicates import (ALWAYS_TRUE, And, ColumnComparison,
                                    Comparison, Not, OPS, Or,
                                    TruePredicate, decompose,
                                    rewrite_columns)

S = Schema.of("S", "a", "b", "name")


def row(a=0, b=0, name="x"):
    return S.make(a, b, name)


class TestComparison:
    @pytest.mark.parametrize("op,value,passing,failing", [
        ("==", 5, 5, 6),
        ("!=", 5, 6, 5),
        ("<", 5, 4, 5),
        ("<=", 5, 5, 6),
        (">", 5, 6, 5),
        (">=", 5, 5, 4),
    ])
    def test_operators(self, op, value, passing, failing):
        pred = Comparison("a", op, value)
        assert pred.matches(row(a=passing))
        assert not pred.matches(row(a=failing))

    def test_sql_style_aliases(self):
        assert Comparison("a", "=", 5).matches(row(a=5))
        assert Comparison("a", "<>", 5).matches(row(a=6))

    def test_unknown_op_rejected(self):
        with pytest.raises(QueryError):
            Comparison("a", "~~", 5)

    def test_missing_column_never_matches(self):
        assert not Comparison("zzz", "==", 5).matches(row())

    def test_type_mismatch_never_matches(self):
        assert not Comparison("name", ">", 5).matches(row(name="abc"))

    def test_negate(self):
        assert Comparison("a", "<", 5).negate() == Comparison("a", ">=", 5)

    def test_evaluate_raw_value(self):
        assert Comparison("a", ">", 5).evaluate(6)
        assert not Comparison("a", ">", 5).evaluate("bad type")

    def test_hash_and_equality(self):
        assert Comparison("a", ">", 5) == Comparison("a", ">", 5)
        assert len({Comparison("a", ">", 5), Comparison("a", ">", 5)}) == 1

    def test_strings_compare(self):
        assert Comparison("name", "==", "x").matches(row(name="x"))
        assert Comparison("name", ">", "a").matches(row(name="x"))


class TestColumnComparison:
    def test_same_tuple_columns(self):
        assert ColumnComparison("a", "<", "b").matches(row(a=1, b=2))
        assert not ColumnComparison("a", ">", "b").matches(row(a=1, b=2))

    def test_is_equijoin_requires_two_sources(self):
        assert ColumnComparison("S.a", "==", "T.a").is_equijoin()
        assert not ColumnComparison("S.a", "==", "S.b").is_equijoin()
        assert not ColumnComparison("S.a", ">", "T.a").is_equijoin()

    def test_sources(self):
        pred = ColumnComparison("S.a", "==", "T.b")
        assert pred.sources() == frozenset({"S", "T"})

    def test_missing_column_never_matches(self):
        assert not ColumnComparison("a", "==", "zzz").matches(row())


class TestCombinators:
    def test_and_flattens(self):
        p = And(And(Comparison("a", ">", 1), Comparison("a", "<", 5)),
                Comparison("b", "==", 0))
        assert len(p.parts) == 3
        assert len(p.conjuncts()) == 3

    def test_and_matches(self):
        p = Comparison("a", ">", 1) & Comparison("b", "<", 5)
        assert p.matches(row(a=2, b=3))
        assert not p.matches(row(a=0, b=3))

    def test_or_matches(self):
        p = Comparison("a", ">", 10) | Comparison("b", "<", 0)
        assert p.matches(row(a=11, b=5))
        assert p.matches(row(a=0, b=-1))
        assert not p.matches(row(a=0, b=0))

    def test_not_comparison_normalises(self):
        p = Not(Comparison("a", "<", 5))
        assert isinstance(p, Comparison)
        assert p.op == ">="

    def test_not_or_demorganish(self):
        p = Not(Comparison("a", ">", 1) | Comparison("b", ">", 1))
        assert not p.matches(row(a=2))
        assert p.matches(row(a=0, b=0))

    def test_double_negation(self):
        inner = Comparison("a", ">", 1) | Comparison("b", ">", 1)
        assert Not(Not(inner)) == inner

    def test_not_pushes_down_to_the_comparisons(self):
        p = Not(And(Comparison("a", ">", 1),
                    Or(ColumnComparison("a", "==", "b"),
                       Comparison("b", "<", 0))))
        assert p == Or(Comparison("a", "<=", 1),
                       And(ColumnComparison("a", "!=", "b"),
                           Comparison("b", ">=", 0)))
        assert Not(ALWAYS_TRUE) == Or() and Not(Or()) == And()

    def test_true_predicate(self):
        assert ALWAYS_TRUE.matches(row())
        assert ALWAYS_TRUE.conjuncts() == []
        assert And(ALWAYS_TRUE, Comparison("a", ">", 0)).parts == \
            (Comparison("a", ">", 0),)

    def test_invert_operator(self):
        p = ~Comparison("a", "==", 1)
        assert p == Comparison("a", "!=", 1)

    def test_columns_aggregation(self):
        p = And(Comparison("a", ">", 1), ColumnComparison("b", "<", "name"))
        assert p.columns() == {"a", "b", "name"}


class TestDecompose:
    def test_splits_factor_classes(self):
        p = And(Comparison("S.a", ">", 1),
                ColumnComparison("S.a", "==", "T.a"),
                ColumnComparison("S.b", ">", "T.b"),
                Or(Comparison("S.a", "==", 0), Comparison("S.b", "==", 0)))
        d = decompose(p)
        assert d.single_variable == [Comparison("S.a", ">", 1)]
        assert d.equijoins == [ColumnComparison("S.a", "==", "T.a")]
        assert len(d.residual) == 2

    def test_residual_predicate_reassembles(self):
        p = Or(Comparison("a", "==", 1), Comparison("b", "==", 1))
        d = decompose(p)
        assert d.residual_predicate() is p

    def test_empty_residual_is_true(self):
        d = decompose(Comparison("a", ">", 1))
        assert d.residual_predicate() is ALWAYS_TRUE

    def test_decompose_true(self):
        d = decompose(ALWAYS_TRUE)
        assert not d.single_variable and not d.equijoins and not d.residual


class TestRewrite:
    def test_rewrites_all_node_types(self):
        p = And(Comparison("a", ">", 1),
                Or(ColumnComparison("a", "==", "b"),
                   Not(Or(Comparison("b", "<", 2)))))
        rewritten = rewrite_columns(p, lambda c: f"S.{c}")
        assert "S.a" in repr(rewritten) and "S.b" in repr(rewritten)
        assert "(a" not in repr(rewritten).replace("S.a", "")

    def test_rewrite_preserves_semantics(self):
        p = Comparison("a", ">", 1)
        q = rewrite_columns(p, lambda c: f"S.{c}")
        # Qualified access falls back on single-source schemas.
        assert q.matches(row(a=2))
        assert not q.matches(row(a=0))

    def test_rewrite_true(self):
        assert rewrite_columns(ALWAYS_TRUE, lambda c: c) is ALWAYS_TRUE


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_negation_is_complement(a_value, threshold):
    pred = Comparison("a", "<", threshold)
    t = row(a=a_value)
    assert pred.matches(t) != pred.negate().matches(t)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
       st.integers(-5, 5))
def test_and_or_duality(thresholds, value):
    t = row(a=value)
    comparisons = [Comparison("a", ">", th) for th in thresholds]
    conj = And(*comparisons)
    disj = Or(*(c.negate() for c in comparisons))
    assert conj.matches(t) != disj.matches(t)


class TestCompiledKernels:
    """compile() must agree with matches() row by row — including the
    awkward cases (missing columns, None values, mixed types)."""

    def _batch(self, rows_):
        from repro.core.tuples import TupleBatch
        return TupleBatch.from_tuples(rows_)

    def _parity(self, pred, rows_):
        got = pred.compile()(self._batch(rows_))
        want = [pred.matches(t) for t in rows_]
        assert got == want
        return got

    @pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
    def test_comparison_parity(self, op):
        rows_ = [row(a=v) for v in (-2, 0, 1, 2, 5)]
        self._parity(Comparison("a", op, 1), rows_)

    def test_none_values_never_match(self):
        rows_ = [row(a=None), row(a=1)]
        assert self._parity(Comparison("a", ">", 0), rows_) == [False, True]

    def test_missing_column_never_matches(self):
        rows_ = [row(), row()]
        assert self._parity(Comparison("zzz", "==", 1), rows_) == \
            [False, False]

    def test_mixed_types_fall_back_per_element(self):
        rows_ = [row(a="text"), row(a=3), row(a="text")]
        assert self._parity(Comparison("a", ">", 1), rows_) == \
            [False, True, False]

    def test_column_comparison_parity(self):
        rows_ = [row(a=1, b=1), row(a=2, b=1), row(a=0, b=5)]
        self._parity(ColumnComparison("a", "==", "b"), rows_)
        self._parity(ColumnComparison("a", ">", "b"), rows_)

    def test_null_equals_nothing_not_even_null(self):
        rows_ = [row(a=None, b=None), row(a=None, b=1), row(a=1, b=1)]
        assert self._parity(ColumnComparison("a", "==", "b"), rows_) == \
            [False, False, True]
        assert self._parity(ColumnComparison("a", "!=", "b"), rows_) == \
            [False, False, False]

    def test_and_or_not_parity(self):
        rows_ = [row(a=v, b=w) for v in range(-2, 3) for w in range(-2, 3)]
        gt = Comparison("a", ">", 0)
        lt = Comparison("b", "<", 1)
        self._parity(And(gt, lt), rows_)
        self._parity(Or(gt, lt), rows_)
        self._parity(Not(gt), rows_)
        self._parity(And(), rows_)
        self._parity(Or(), rows_)

    def test_true_predicate_kernel(self):
        rows_ = [row(), row(), row()]
        assert self._parity(ALWAYS_TRUE, rows_) == [True, True, True]

    def test_kernel_totals_count_evals_and_rows(self):
        from repro.query.predicates import KERNEL_TOTALS
        kernel = Comparison("a", "==", 1).compile()
        before = (KERNEL_TOTALS.evals, KERNEL_TOTALS.rows)
        kernel(self._batch([row(a=1), row(a=2), row(a=3)]))
        kernel(self._batch([row(a=1)]))
        assert KERNEL_TOTALS.evals == before[0] + 2
        assert KERNEL_TOTALS.rows == before[1] + 4

    def test_comparison_fn_resolved_once(self):
        """Operator dispatch happens in __init__, not per evaluate()."""
        import operator
        pred = Comparison("a", "<>", 5)
        assert pred._fn is operator.ne
        assert Comparison("a", "=", 5)._fn is operator.eq


class TestBoundChecks:
    """bind(locate) must agree with matches() on every row — None,
    missing columns and mixed types included — reading each column at
    the position ``locate`` gave it once."""

    ROWS = [row(a=a, b=b) for a in (None, -1, 0, 1, "text")
            for b in (None, 0, 1)]
    PREDICATES = [
        Comparison("S.a", ">", 0), Comparison("a", "==", 1),
        Comparison("zzz", "==", 1),
        ColumnComparison("S.a", "==", "S.b"), ColumnComparison("a", "<", "b"),
        ColumnComparison("a", "==", "zzz"),
        And(Comparison("a", ">", -1), ColumnComparison("a", "!=", "b")),
        Or(Comparison("a", "==", 1), Comparison("b", "==", 1)),
        Not(Or(Comparison("a", "==", 1), Comparison("b", "==", 1))),
        ALWAYS_TRUE, And(), Or(),
    ]

    @pytest.mark.parametrize("pred", PREDICATES, ids=repr)
    def test_bound_check_agrees_with_matches(self, pred):
        check = pred.bind(S.locate)
        assert [check(t.values) for t in self.ROWS] == \
            [pred.matches(t) for t in self.ROWS]

    def test_positions_come_from_locate(self):
        """A check reads wherever ``locate`` says: here a joined row
        whose S columns sit after two others."""
        check = ColumnComparison("S.a", "<", "T.x").bind(
            {"T.x": 0, "S.a": 2}.get)
        assert check((5, "pad", 1)) and not check((1, "pad", 5))


def test_a_used_predicate_pickles_and_binds_afresh():
    """matches() keeps its bound check beside the predicate; the check
    is a closure, so a pickled copy leaves it behind and binds again."""
    import pickle
    pred = And(Comparison("a", ">", 0), ColumnComparison("a", "<", "b"))
    assert pred.matches(row(a=1, b=2))
    copy = pickle.loads(pickle.dumps(pred))
    assert copy == pred
    assert copy.matches(row(a=1, b=2)) and not copy.matches(row(a=3, b=2))
    # A NOT over anything is pushed down to comparisons, and pickles.
    for part in (Or(Comparison("a", ">", 1), Comparison("b", "<", 0)),
                 And(Comparison("a", ">", 1), Comparison("b", "<", 0)),
                 ColumnComparison("a", "<", "b")):
        negated = Not(part)
        assert negated.matches(row(a=1, b=2)) != part.matches(row(a=1, b=2))
        copy = pickle.loads(pickle.dumps(negated))
        assert type(copy) is type(negated) and copy == negated
        for values in ({"a": 1, "b": 2}, {"a": 3, "b": 2}, {"a": 3, "b": -1}):
            assert copy.matches(row(**values)) == \
                negated.matches(row(**values))


def test_column_of_names_the_source_side():
    factor = ColumnComparison("a.k", "==", "ab.k")
    assert factor.column_of("a") == "a.k"
    assert factor.column_of("ab") == "ab.k"


# -- NOT is pushed down: one answer on NULL, NaN and mixed types ---------

_NAN = float("nan")
_VALUES = (None, _NAN, -1, 0, 1, 2.5, "a")
_ORDERING = {"<", "<=", ">", ">="}


def _kleene(tree, values):
    """SQL's three-valued reading of an expression tree: True, False or
    None (UNKNOWN).  A comparison is UNKNOWN on NULL, on values it
    cannot order, and on a NaN it orders; a row passes iff the tree is
    True."""
    kind = tree[0]
    if kind == "not":
        inner = _kleene(tree[1], values)
        return None if inner is None else not inner
    if kind in ("and", "or"):
        parts = [_kleene(t, values) for t in tree[1:]]
        decided = False if kind == "and" else True
        if decided in parts:
            return decided
        return None if None in parts else not decided
    _, left, op, right = tree
    lhs = values[left]
    rhs = values[right] if kind == "cols" else right
    if lhs is None or rhs is None:
        return None
    if op in _ORDERING and (lhs != lhs or rhs != rhs):     # a NaN
        return None
    try:
        return OPS[op](lhs, rhs)
    except TypeError:
        return None


def _build(tree):
    """The tree through the factories the parser calls."""
    kind = tree[0]
    if kind == "not":
        return Not(_build(tree[1]))
    if kind == "and":
        return And(*map(_build, tree[1:]))
    if kind == "or":
        return Or(*map(_build, tree[1:]))
    if kind == "cols":
        return ColumnComparison(tree[1], tree[2], tree[3])
    return Comparison(tree[1], tree[2], tree[3])


_OPS = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])
_COLS = st.sampled_from(["a", "b"])
_LEAVES = st.one_of(
    st.tuples(st.just("cmp"), _COLS, _OPS, st.sampled_from([0, 1, 2.5])),
    st.tuples(st.just("cols"), st.just("a"), _OPS, st.just("b")))
_TREES = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.tuples(st.just("not"), sub),
        st.tuples(st.just("and"), sub, sub),
        st.tuples(st.just("or"), sub, sub)),
    max_leaves=6)


@given(_TREES)
def test_a_predicate_passes_a_row_iff_its_three_valued_reading_is_true(tree):
    """Building pushes every NOT down to the comparisons, so no
    negation node survives and "NULL, NaN or an unorderable value fails
    the factor" holds under any NOT: the built predicate passes exactly
    the rows SQL's three-valued logic reads as TRUE."""
    pred = _build(tree)
    assert "NOT" not in repr(pred)
    for a in _VALUES:
        for b in _VALUES:
            assert pred.matches(row(a=a, b=b)) == \
                (_kleene(tree, {"a": a, "b": b}) is True), (a, b)


def test_not_of_a_disjunction_equals_the_conjunction_of_nots():
    """Through the door: the two spellings deliver the same one row."""
    from repro.client import connect
    rows = [(None, 1), (_NAN, 1), (1, None), ("a", 5), (1, 5), (9, 1)]
    delivered = []
    for where in ("NOT (v > 5 OR w < 3)", "NOT (v > 5) AND NOT (w < 3)"):
        with connect() as conn:
            conn.create_stream("s", "v", "w")
            cursor = conn.submit(f"SELECT * FROM s WHERE {where}")
            conn.push_rows("s", rows)
            delivered.append([r.values for r in cursor.fetch()])
    assert delivered == [[(1, 5)], [(1, 5)]]
