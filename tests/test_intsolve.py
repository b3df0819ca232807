"""Integer linear systems: solutions replay through check_solution,
refusals come with a replayable functional certificate."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmprobe import intsolve
from qmprobe.intsolve import (
    UnsatCertificate,
    _collapse,
    _eliminate,
    check_solution,
    check_unsat_certificate,
    solve_integer_system,
)


def test_simple_solvable_system():
    columns = [{"x": 1, "y": 1}, {"y": 1}]
    rhs = {"x": 3, "y": 5}
    got = solve_integer_system(columns, rhs)
    assert got == [3, 2]
    assert check_solution(columns, rhs, got)


def test_empty_rhs_solved_by_zeros():
    columns = [{"x": 2}, {"y": 7}]
    got = solve_integer_system(columns, {})
    assert got == [0, 0]
    assert check_solution(columns, {}, got)


def test_no_columns_nonzero_rhs_unsat():
    got = solve_integer_system([], {"x": 1})
    assert isinstance(got, UnsatCertificate)
    assert got.modulus == 0
    assert check_unsat_certificate([], {"x": 1}, got)


def test_divisibility_failure_gets_positive_modulus():
    # 2 y = 1 has no integer solution; the witness works mod 2
    columns = [{"x": 2}]
    rhs = {"x": 1}
    got = solve_integer_system(columns, rhs)
    assert isinstance(got, UnsatCertificate)
    assert got.modulus == 2
    assert check_unsat_certificate(columns, rhs, got)


def test_rational_inconsistency_gets_modulus_zero():
    # y = 1 and y = 2 cannot both hold
    columns = [{"x": 1, "z": 1}]
    rhs = {"x": 1, "z": 2}
    got = solve_integer_system(columns, rhs)
    assert isinstance(got, UnsatCertificate)
    assert got.modulus == 0
    assert check_unsat_certificate(columns, rhs, got)


def test_negative_coefficients():
    columns = [{"x": 2, "y": -1}, {"x": -3, "y": 2}]
    rhs = {"x": 1, "y": 1}
    got = solve_integer_system(columns, rhs)
    assert isinstance(got, list)
    assert check_solution(columns, rhs, got)


def test_redundant_columns_are_fine():
    columns = [{"x": 1}, {"x": 1}, {"x": 1}]
    rhs = {"x": 4}
    got = solve_integer_system(columns, rhs)
    assert isinstance(got, list)
    assert check_solution(columns, rhs, got)


def test_check_solution_rejects_wrong_answers():
    columns = [{"x": 1, "y": 1}, {"y": 1}]
    rhs = {"x": 3, "y": 5}
    assert not check_solution(columns, rhs, [3, 3])
    assert not check_solution(columns, rhs, [3])  # wrong arity
    # leftover support outside the rhs keys must vanish
    assert not check_solution([{"x": 1, "w": 1}], {"x": 1}, [1])


def test_check_unsat_rejects_bogus_certificates():
    columns = [{"x": 2}]
    rhs = {"x": 1}
    assert not check_unsat_certificate(columns, rhs, UnsatCertificate({"x": 2}, 0))
    assert not check_unsat_certificate(columns, rhs, UnsatCertificate({"x": 1}, -2))
    # a functional that kills the rhs as well proves nothing
    assert not check_unsat_certificate(columns, rhs, UnsatCertificate({}, 0))


def test_determinism_on_identical_input():
    columns = [{"x": 2, "y": 4}, {"x": 4, "y": 2}]
    rhs = {"x": 1, "y": 1}
    first = solve_integer_system(columns, rhs)
    second = solve_integer_system(columns, rhs)
    assert isinstance(first, UnsatCertificate)
    assert first == second


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    nrows=st.integers(1, 5),
    ncols=st.integers(0, 6),
)
def test_random_systems_always_certified(seed, nrows, ncols):
    rng = random.Random(seed)
    keys = [f"r{i}" for i in range(nrows)]
    columns = [
        {k: rng.randint(-4, 4) for k in keys if rng.random() < 0.7}
        for _ in range(ncols)
    ]
    rhs = {k: rng.randint(-6, 6) for k in keys if rng.random() < 0.8}
    got = solve_integer_system(columns, rhs)
    if isinstance(got, list):
        assert check_solution(columns, rhs, got)
    else:
        assert check_unsat_certificate(columns, rhs, got)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    nrows=st.integers(1, 4),
    ncols=st.integers(1, 5),
)
def test_planted_solutions_are_found(seed, nrows, ncols):
    rng = random.Random(seed)
    keys = [f"r{i}" for i in range(nrows)]
    columns = [
        {k: rng.randint(-3, 3) for k in keys} for _ in range(ncols)
    ]
    planted = [rng.randint(-5, 5) for _ in range(ncols)]
    rhs = {
        k: sum(col.get(k, 0) * y for col, y in zip(columns, planted))
        for k in keys
    }
    rhs = {k: v for k, v in rhs.items() if v}
    got = solve_integer_system(columns, rhs)
    assert isinstance(got, list), "a planted solution exists"
    assert check_solution(columns, rhs, got)


def test_failed_solution_replay_raises(monkeypatch):
    # the final replay is an explicit check, not an assert that -O strips
    monkeypatch.setattr(intsolve, "check_solution", lambda *args: False)
    with pytest.raises(RuntimeError):
        _eliminate([{"x": 1}], {"x": 2})


# -- the heap-served pivot against the full-scan rule --------------------


def _full_scan_solve(columns, rhs):
    """The elimination with its pivot found by rescanning every active
    row for the least (|a|, row, col); the solver must agree with it on
    every solution and every certificate."""
    order = {}
    for k in rhs:
        order.setdefault(k, len(order))
    for col in columns:
        for k in col:
            order.setdefault(k, len(order))
    keys = list(order)
    nrows, ncols = len(keys), len(columns)
    rows = {i: {} for i in range(nrows)}
    colrows = {j: set() for j in range(ncols)}
    for j, col in enumerate(columns):
        for k, v in col.items():
            if v:
                rows[order[k]][j] = v
                colrows[j].add(order[k])
    b = [0] * nrows
    for k, v in rhs.items():
        b[order[k]] = v
    U = {i: {i: 1} for i in range(nrows)}
    V = [{j: 1} for j in range(ncols)]
    active_rows, active_cols = set(range(nrows)), set(range(ncols))
    pivots = []

    def write(i, j, v):
        if v:
            rows[i][j] = v
            colrows[j].add(i)
        else:
            rows[i].pop(j, None)
            colrows[j].discard(i)

    def combine(target, source, q):
        for k, v in source.items():
            nv = target.get(k, 0) - q * v
            if nv:
                target[k] = nv
            else:
                target.pop(k, None)

    def find_pivot():
        best, best_abs = None, 0
        for i in sorted(active_rows):
            for j in sorted(rows[i]):
                if j in active_cols and (best is None or abs(rows[i][j]) < best_abs):
                    best, best_abs = (i, j), abs(rows[i][j])
        return best

    while (found := find_pivot()) is not None:
        i, j = found
        d = rows[i][j]
        off_col = [r for r in sorted(colrows[j]) if r != i and r in active_rows]
        off_row = [c for c in sorted(rows[i]) if c != j and c in active_cols]
        if off_col:
            for r in off_col:
                q = rows[r][j] // d
                if q:
                    for c, v in list(rows[i].items()):
                        write(r, c, rows[r].get(c, 0) - q * v)
                    b[r] -= q * b[i]
                    combine(U[r], U[i], q)
        elif off_row:
            for c in off_row:
                q = rows[i][c] // d
                if q:
                    for r in sorted(colrows[j]):
                        write(r, c, rows[r].get(c, 0) - q * rows[r][j])
                    combine(V[c], V[j], q)
        else:
            pivots.append((i, j))
            active_rows.discard(i)
            active_cols.discard(j)

    for i in sorted(active_rows):
        if b[i]:
            return UnsatCertificate({keys[k]: v for k, v in sorted(U[i].items())}, 0)
    for i, j in pivots:
        if b[i] % rows[i][j]:
            return UnsatCertificate(
                {keys[k]: v for k, v in sorted(U[i].items())}, abs(rows[i][j])
            )
    y = [0] * ncols
    for i, j in pivots:
        x = b[i] // rows[i][j]
        for orig, coeff in V[j].items():
            y[orig] += coeff * x
    return y


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    nrows=st.integers(1, 30),
    ncols=st.integers(0, 30),
    planted=st.booleans(),
)
def test_heap_pivots_match_the_full_scan(seed, nrows, ncols, planted):
    rng = random.Random(seed)
    columns = [
        {rng.randrange(nrows): rng.choice((-9, -4, -2, -1, 1, 1, 2, 3, 6))
         for _ in range(rng.randint(0, 4))}
        for _ in range(ncols)
    ]
    if planted:
        rhs = {}
        for col in columns:
            y = rng.randint(-4, 4)
            for k, v in col.items():
                rhs[k] = rhs.get(k, 0) + y * v
        rhs = {k: v for k, v in rhs.items() if v}
    else:
        rhs = {rng.randrange(nrows): rng.randint(-7, 7) for _ in range(3)}
    got = _eliminate(columns, rhs)
    assert got == _full_scan_solve(columns, rhs)
    if planted:
        assert isinstance(got, list)


def test_heap_pivots_match_on_both_verdicts():
    rng = random.Random(7)
    verdicts = set()
    for _ in range(200):
        nrows = rng.randint(1, 40)
        columns = [
            {rng.randrange(nrows): rng.choice((-5, -2, -1, 1, 2, 3))
             for _ in range(rng.randint(1, 5))}
            for _ in range(rng.randint(1, 40))
        ]
        rhs = {rng.randrange(nrows): rng.randint(-5, 5) for _ in range(2)}
        got = _eliminate(columns, rhs)
        assert got == _full_scan_solve(columns, rhs)
        verdicts.add(isinstance(got, list))
    assert verdicts == {True, False}


# -- the collapse solve -------------------------------------------------


def _empties(columns):
    """Whether removing, one at a time, a column that holds a row no
    other remaining column holds, with entry +-1, removes every column:
    the collapse's rule, rescanned from scratch after each removal."""
    live = set(range(len(columns)))
    while live:
        for j in sorted(live):
            others = [columns[c] for c in live if c != j]
            if any(v in (1, -1) and all(not col.get(k) for col in others)
                   for k, v in columns[j].items()):
                live.remove(j)
                break
        else:
            return False
    return True


def _sparse_system(rng, nrows, ncols, planted):
    """Columns of one to four entries from +-1 and +-2 over `nrows` rows,
    and a right-hand side that is planted (a random combination of the
    columns) or random."""
    columns = [
        {rng.randrange(nrows): rng.choice((-2, -1, -1, -1, 1, 1, 1, 2))
         for _ in range(rng.randint(1, 4))}
        for _ in range(ncols)
    ]
    if planted:
        rhs = {}
        for col in columns:
            y = rng.randint(-3, 3)
            for k, v in col.items():
                rhs[k] = rhs.get(k, 0) + y * v
    else:
        rhs = {rng.randrange(nrows): rng.randint(-3, 3) for _ in range(2)}
    return columns, {k: v for k, v in rhs.items() if v}


def _certifies(columns, rhs, got):
    """Whether the collapse's answer is a modulus-0 certificate that
    replays on every column."""
    return (
        isinstance(got, UnsatCertificate)
        and got.modulus == 0
        and check_unsat_certificate(columns, rhs, got)
    )


def _agrees_with_the_elimination(columns, rhs):
    """The collapse answers exactly when it empties the system, and
    then with the elimination's verdict: the same list, or its own
    certificate, which replays on every column; the solver gives the
    collapse's answer then and the elimination's otherwise.  Returns
    the collapse's verdict."""
    got, want = _collapse(columns, rhs), _eliminate(columns, rhs)
    assert (got is not None) == _empties(columns)
    assert solve_integer_system(columns, rhs) == (want if got is None else got)
    if got is None:
        return "core"
    if isinstance(want, UnsatCertificate):
        assert _certifies(columns, rhs, got)
        return "unsat"
    assert got == want
    return "sat"


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    nrows=st.integers(1, 30),
    ncols=st.integers(0, 12),
    planted=st.booleans(),
)
# an unsat system the collapse empties and certifies by {0: 1}, where
# the elimination's certificate is {2: 1, 1: -2}
@example(seed=5, nrows=3, ncols=1, planted=False)
def test_the_collapse_answers_exactly_when_it_empties_the_system(seed, nrows, ncols, planted):
    columns, rhs = _sparse_system(random.Random(seed), nrows, ncols, planted)
    verdict = _agrees_with_the_elimination(columns, rhs)
    if planted:
        assert verdict != "unsat"


def test_the_collapse_meets_every_verdict():
    rng = random.Random(11)
    verdicts = Counter(
        _agrees_with_the_elimination(
            *_sparse_system(rng, rng.randint(1, 30), rng.randint(0, 12), rng.random() < 0.5)
        )
        for _ in range(300)
    )
    assert set(verdicts) == {"sat", "unsat", "core"}, verdicts


def test_coefficients_are_forced_in_collapse_order():
    # row x frees the first column; that leaves y free in the second,
    # whose coefficient is what remains at y after the first: 3 - 1
    columns = [{"x": 1, "y": 1}, {"y": 1, "z": 1}]
    assert _collapse(columns, {"x": 1, "y": 3, "z": 2}) == [1, 2]
    # the residual ends at 1 on z; e_z is lifted back through y, which
    # freed the second column, and then through x, which freed the
    # first: lifted in forward order, x would be read before y is set
    rhs = {"x": 1, "y": 3, "z": 3}
    got = _collapse(columns, rhs)
    assert got == UnsatCertificate({"z": 1, "y": -1, "x": 1}, 0)
    assert _certifies(columns, rhs, got)
    assert _collapse([{"x": -1}], {"x": 4}) == [-4]


def test_a_row_in_no_column_is_the_whole_certificate():
    # x frees the column with coefficient 0, and the residual is 1 at y
    # and at w; w lies in no column, so e_w alone certifies, where the
    # lift of e_y would take x as well
    columns, rhs = [{"x": 1, "y": 1}], {"y": 1, "w": 1}
    assert _collapse(columns, rhs) == UnsatCertificate({"w": 1}, 0)
    # with no such row, the first one of rhs where the residual is not 0
    assert _collapse(columns, {"y": 1}) == UnsatCertificate({"y": 1, "x": -1}, 0)


def test_a_row_with_entry_two_is_not_free():
    # 2 y = 2 is solvable and 2 y = 1 is not; neither is a collapse
    assert _collapse([{"x": 2}], {"x": 2}) is None
    assert _collapse([{"x": 2}], {"x": 1}) is None
    assert _collapse([{"x": 2, "y": 1}], {"x": 2, "y": 1}) == [1]


def test_an_empty_system_needs_a_zero_right_hand_side():
    assert _collapse([], {}) == []
    assert _collapse([], {"x": 1}) == UnsatCertificate({"x": 1}, 0)
    # a row no column reaches must be 0 in the right-hand side
    got = _collapse([{"x": 1}], {"x": 1, "w": 1})
    assert got == UnsatCertificate({"w": 1}, 0)
    assert _certifies([{"x": 1}], {"x": 1, "w": 1}, got)
