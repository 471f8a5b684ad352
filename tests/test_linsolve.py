"""Exact elimination: the heap-ordered reduction against the scan of every
pivot row, which is kept here as the oracle."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from hopftrees.linsolve import _Pivots, _as_dict, _key_order, exact_rank, span_solver
from hopftrees.lyndon_hall import hall_forests, hall_polynomial, hall_set, pbw_element


def _scan_reduce(vec, combo, pivots, sign):
    """Visit every pivot row in order and apply each whose key is in vec."""
    for key, prow, pcombo in pivots:
        c = vec.get(key)
        if not c:
            continue
        for k, v in prow.items():
            acc = vec.get(k, 0) - c * v
            if acc:
                vec[k] = acc
            else:
                vec.pop(k, None)
        for i, v in pcombo.items():
            acc = combo.get(i, 0) + sign * c * v
            if acc:
                combo[i] = acc
            else:
                combo.pop(i, None)
    return vec


def _scan_insert(vec, combo, pivots):
    if not vec:
        return False
    key = min(vec, key=_key_order)
    inv = Fraction(1) / vec[key]
    pivots.append((key, {k: v * inv for k, v in vec.items()},
                   {i: v * inv for i, v in combo.items()}))
    return True


def _scan_rows(basis):
    """The oracle's pivot rows for the basis, as span_solver builds them."""
    pivots = []
    for i, vec in enumerate(basis):
        _scan_insert(_scan_reduce(_as_dict(vec), combo := {i: 1}, pivots, -1), combo, pivots)
    return pivots


def _scan_rank(vectors):
    pivots = []
    return sum(_scan_insert(_scan_reduce(_as_dict(v), {}, pivots, -1), {}, pivots)
               for v in vectors)


def _scan_solve(basis, target):
    pivots = _scan_rows(basis)
    if _scan_reduce(_as_dict(target), sol := {}, pivots, +1):
        return None
    return [sol.get(i, 0) for i in range(len(basis))]


def _heap_rows(basis):
    pivots = _Pivots()
    for i, vec in enumerate(basis):
        pivots.insert(pivots.reduce(_as_dict(vec), combo := {i: 1}, -1), combo)
    return pivots.rows


def _assert_matches_the_scan(basis, targets):
    assert _heap_rows(basis) == _scan_rows(basis)
    assert exact_rank(basis) == _scan_rank(basis)
    solve = span_solver(basis)
    for target in targets:
        assert solve(target) == _scan_solve(basis, target), target


def _combination(basis, coeffs):
    out = {}
    for vec, a in zip(basis, coeffs):
        for k, v in vec.items():
            out[k] = out.get(k, 0) + a * v
    return out


scalars = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))
sparse_vectors = st.dictionaries(st.integers(0, 7), scalars, max_size=4)


@given(st.lists(sparse_vectors, max_size=8), st.lists(sparse_vectors, max_size=3))
def test_heap_reduction_matches_the_scan_on_sparse_families(basis, targets):
    _assert_matches_the_scan(basis, targets)


@given(st.lists(sparse_vectors, min_size=1, max_size=6),
       st.lists(st.lists(scalars, min_size=6, max_size=6), min_size=1, max_size=3),
       st.lists(sparse_vectors, max_size=2))
def test_heap_reduction_matches_the_scan_with_dependent_vectors(basis, mixes, outside):
    dependent = basis + [_combination(basis, m) for m in mixes]
    targets = [_combination(basis, m) for m in mixes] + outside
    _assert_matches_the_scan(dependent, targets)


def test_heap_reduction_matches_the_scan_on_pbw_and_hall_families():
    for n in range(1, 8):
        pbw = [pbw_element(u) for u in hall_forests(n)]
        lie = [hall_polynomial(t) for t in hall_set(n)]
        _assert_matches_the_scan(pbw + pbw[:2], lie + [pbw[-1]])
        _assert_matches_the_scan(lie, pbw)


def _row_values(rows):
    return [v for _, row, combo in rows for v in (*row.values(), *combo.values())]


def test_rows_from_unit_leads_hold_ints():
    rows = _heap_rows([{0: 1, 1: 2}, {0: 1, 1: 1, 2: 3}, {2: -1, 3: 4}])
    assert rows == [(0, {0: 1, 1: 2}, {0: 1}), (1, {1: 1, 2: -3}, {0: 1, 1: -1}),
                    (2, {2: 1, 3: -4}, {2: -1})]
    assert all(type(v) is int for v in _row_values(rows))
    # every lead of the PBW and Hall families is 1 or -1 through weight 8
    for n in range(1, 9):
        for family in ([pbw_element(u) for u in hall_forests(n)],
                       [hall_polynomial(t) for t in hall_set(n) if t.weight == n]):
            values = _row_values(_heap_rows(family))
            assert values and all(type(v) is int for v in values)


def test_a_lead_of_two_gives_fraction_rows():
    half = Fraction(1, 2)
    rows = _heap_rows([{0: 2, 1: 1}, {1: 2, 2: 4}])
    assert rows == [(0, {0: 1, 1: half}, {0: half}), (1, {1: 1, 2: 2}, {1: half})]
    assert all(type(v) is Fraction for v in _row_values(rows))
    assert span_solver([{0: 2, 1: 1}])({0: 1, 1: half}) == [half]


def test_heap_reduction_matches_the_scan_on_fixed_examples():
    half = Fraction(1, 2)
    _assert_matches_the_scan(
        [{0: 1, 1: 1, 2: 1}, {1: 1, 2: -1}, {2: 2, 3: half}, {0: 1, 3: 1}, {1: 2, 2: 0}],
        [{0: 2, 1: 2, 2: 2}, {3: 1}, {4: 1}, {}, {0: half, 1: -half}])
    # every vector adds the next key, so each reduction walks the whole chain
    chain = [{k: 1, k + 1: -1} for k in range(6)]
    _assert_matches_the_scan(chain + [{0: 1, 6: -1}], [{0: 1, 6: -1}, {0: 1, 6: 1}])

