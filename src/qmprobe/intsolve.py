"""Exact linear algebra over the integers for sparse column systems.

`solve_integer_system`, the one solver, decides solvability of
sum_j y_j col_j = rhs with integer y.  Solvable instances return the
coefficient vector; unsolvable ones return a row functional u and a
modulus m such that u . col_j == 0 (mod m) for every column while
u . rhs != 0 (mod m), which any reader can replay with integer dot
products.  Modulus 0 stands for exact equality, covering rational
inconsistency; a positive modulus witnesses a divisibility failure.

It first runs `_collapse`, which removes columns through free rows, as
an elementary collapse removes a face through a free edge, and decides
every system it empties, with a modulus-0 certificate when there is no
solution; its docstring holds the proof.  A system the collapse cannot
empty, one with a core, goes whole to `_eliminate`, over every column.

The elimination is a diagonalization by unimodular row and column
operations, reducing with floored division until the pivot's row and
column are clean.  Row operations accumulate into the functional
candidates, column operations into the back-substitution map.

Pivot rule: the nonzero entry (i, j) in an active row and an active
column that minimizes (|a_ij|, i, j).  It is served from a heap of
(|a|, i, j) keys, each packed into one integer to keep the heap small,
pushed on every nonzero write.  Keys are invalidated lazily: one is
live only while its row and column are active and the matrix still
holds that absolute value there, and stale keys are dropped when they
reach the top.  Every live entry was pushed by its latest write, so
the first live key on top is exactly the rule's minimum.  The heap is
rebuilt from the live entries whenever stale keys outnumber them,
which bounds its size by twice the active nonzeros.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Hashable, Mapping, NamedTuple, Optional, Sequence


class UnsatCertificate(NamedTuple):
    """u . col == 0 (mod modulus) for all columns, u . rhs != 0."""

    functional: dict[Hashable, int]
    modulus: int


def _dot(functional: Mapping[Hashable, int], column: Mapping[Hashable, int]) -> int:
    if len(functional) > len(column):
        functional, column = column, functional
    return sum(v * column.get(k, 0) for k, v in functional.items())


def _congruent_zero(value: int, modulus: int) -> bool:
    return value == 0 if modulus == 0 else value % modulus == 0


def check_solution(
    columns: Sequence[Mapping[Hashable, int]],
    rhs: Mapping[Hashable, int],
    coefficients: Sequence[int],
) -> bool:
    if len(coefficients) != len(columns):
        return False
    acc: dict[Hashable, int] = {}
    for y, col in zip(coefficients, columns):
        if not y:
            continue
        for k, v in col.items():
            acc[k] = acc.get(k, 0) + y * v
    for k, v in rhs.items():
        if acc.get(k, 0) != v:
            return False
    return all(v == 0 for k, v in acc.items() if k not in rhs)


def check_unsat_certificate(
    columns: Sequence[Mapping[Hashable, int]],
    rhs: Mapping[Hashable, int],
    certificate: UnsatCertificate,
) -> bool:
    u, m = certificate.functional, certificate.modulus
    if m < 0:
        return False
    for col in columns:
        if not _congruent_zero(_dot(u, col), m):
            return False
    return not _congruent_zero(_dot(u, rhs), m)


def solve_integer_system(
    columns: Sequence[Mapping[Hashable, int]],
    rhs: Mapping[Hashable, int],
) -> list[int] | UnsatCertificate:
    """Solve sum_j y_j col_j = rhs over the integers: by `_collapse`
    when it empties the system, by `_eliminate` over every column
    otherwise."""
    solution = _collapse(columns, rhs)
    return _eliminate(columns, rhs) if solution is None else solution


def _collapse(
    columns: Sequence[Mapping[Hashable, int]],
    rhs: Mapping[Hashable, int],
) -> Optional[list[int] | UnsatCertificate]:
    """Solve sum_j y_j col_j = rhs by collapses alone: the coefficient
    list, a modulus-0 certificate when there is no solution, or None
    when the collapse cannot empty the system.

    A row is free when it lies in exactly one remaining column and its
    entry there is +-1.  Rows are visited from a stack, seeded with the
    rows in first appearance order, and each free row removes its column
    c_t through its row r_t; a row becomes a candidate again when a
    removal leaves it in one column.  Removals only shrink a row's
    columns, so a free row stays free until its column goes, and the
    set of removed columns, hence whether a core is left, does not
    depend on the order.

    Soundness, once every column is removed in the order c_1, ..., c_n:
    - forced coefficients: row r_t lies in no later column c_s, s > t,
      so its equation reads sum_{s<t} y_s a(r_t, c_s) + a(r_t, c_t) y_t
      = rhs(r_t).  With y_1, ..., y_{t-1} known, y_t is the residual at
      r_t times a(r_t, c_t) = +-1, its own inverse; so the coefficients
      are forced in collapse order, and the residual, rhs less the
      columns already used, must end at 0 on every row.  The reverse
      order would read r_t before the earlier columns are subtracted.
    - independence: on the rows r_1, ..., r_n the columns form a
      triangular matrix with unit diagonal, so the columns are linearly
      independent.
    - uniqueness: so at most one rational solution exists, and it is
      the forced one; if the residual is not 0 the system has no
      rational solution, let alone an integer one.  Either way the
      verdict is the one any exact solver gives, `_eliminate` among
      them, and a solution is the same list.

    The certificate, when the residual is non-zero at some row r:
    - lift: start from f = e_r and, for t = n, ..., 1, set f(r_t) so
      that f . c_t = 0, that is f(r_t) = -a(r_t, c_t) (f . c_t) taken
      before the step, where f(r_t) is still 0.  Row r_t lies in no
      later column c_s, s > t, so the step leaves f . c_s = 0 for
      every column already annihilated, and at the end f annihilates
      every column.  Lifting in forward order would set f(r_s), s > t,
      after c_t is annihilated, and r_s may lie in c_t.
    - value: f . rhs = f . residual, since rhs less the residual is a
      combination of the columns.  The residual is 0 at every r_t, and
      f is supported on r and the r_t, so f . rhs is the residual at r,
      not 0, and (f, 0) is a certificate.
    - which r: the first row of rhs, in its order, that lies in no
      column and is not 0 there, if there is one; then f = e_r, a
      single cell.  Otherwise the first row, in rhs's order and then in
      the order the collapse touched them, where the residual is not
      0."""
    # row -> the remaining columns it lies in with a non-zero entry
    where: dict[Hashable, set[int]] = {}
    for j, col in enumerate(columns):
        for k, v in col.items():
            if v:
                if k in where:
                    where[k].add(j)
                else:
                    where[k] = {j}
    stack = [k for k, js in where.items() if len(js) == 1]
    stack.reverse()
    collapses: list[tuple[Hashable, int]] = []
    while stack:
        k = stack.pop()
        if len(where[k]) != 1:
            continue
        (j,) = where[k]
        col = columns[j]
        if col[k] not in (1, -1):
            continue
        collapses.append((k, j))
        for r, v in col.items():
            if v:
                js = where[r]
                js.discard(j)
                if len(js) == 1:
                    stack.append(r)
    if len(collapses) < len(columns):
        return None
    residual = dict(rhs)
    y = [0] * len(columns)
    for k, j in collapses:
        col = columns[j]
        x = residual.get(k, 0) * col[k]
        if x:
            y[j] = x
            for r, v in col.items():
                residual[r] = residual.get(r, 0) - x * v
    unsolved = [k for k, v in residual.items() if v]
    if not unsolved:
        return y
    # a row no column touches keeps rhs's entry, so it is one of rhs's
    r = next((k for k in unsolved if k not in where), unsolved[0])
    f = {r: 1}
    for k, j in reversed(collapses):
        col = columns[j]
        x = _dot(f, col)
        if x:
            f[k] = -x * col[k]
    return UnsatCertificate(f, 0)


def _eliminate(
    columns: Sequence[Mapping[Hashable, int]],
    rhs: Mapping[Hashable, int],
) -> list[int] | UnsatCertificate:
    """Solve sum_j y_j col_j = rhs over the integers by elimination.

    Row keys may be any hashable values; the row order is fixed by
    first appearance in rhs, then in the columns, so identical input
    produces an identical certificate.
    """
    order: dict[Hashable, int] = {}
    for k in rhs:
        order.setdefault(k, len(order))
    for col in columns:
        for k in col:
            order.setdefault(k, len(order))
    keys = list(order)
    nrows, ncols = len(keys), len(columns)

    rows: list[dict[int, int]] = [{} for _ in range(nrows)]
    colrows: list[set[int]] = [set() for _ in range(ncols)]
    for j, col in enumerate(columns):
        for k, v in col.items():
            if v:
                i = order[k]
                rows[i][j] = v
                colrows[j].add(i)
    b = [0] * nrows
    for k, v in rhs.items():
        b[order[k]] = v
    # row i of the cumulated unimodular row transform, sparse over
    # original row indices
    U: list[dict[int, int]] = [{i: 1} for i in range(nrows)]
    # column j of the cumulated column transform: original index -> coeff
    V: list[dict[int, int]] = [{j: 1} for j in range(ncols)]

    active_rows = set(range(nrows))
    active_cols = set(range(ncols))
    pivots: list[tuple[int, int]] = []

    def entry(a: int, i: int, j: int) -> int:
        # orders like the tuple (a, i, j), since i < nrows and j < ncols
        return (a * nrows + i) * ncols + j

    heap = [entry(abs(v), i, j) for i, row in enumerate(rows) for j, v in row.items()]
    heapify(heap)
    # nonzeros in the matrix; all but the finished pivots lie in active
    # rows and columns, since a finished pivot's row and column are clean
    nnz = len(heap)

    def write(i: int, j: int, v: int) -> None:
        nonlocal nnz, heap
        row = rows[i]
        if v:
            if j not in row:
                nnz += 1
                colrows[j].add(i)
            row[j] = v
            heappush(heap, entry(abs(v), i, j))
            if len(heap) > 2 * (nnz - len(pivots)):
                heap = [
                    entry(abs(a), r, c)
                    for r in active_rows
                    for c, a in rows[r].items()
                    if c in active_cols
                ]
                heapify(heap)
        elif row.pop(j, None) is not None:
            nnz -= 1
            colrows[j].discard(i)

    def row_op(target: int, source: int, q: int) -> None:
        # row target -= q * row source
        for j, v in list(rows[source].items()):
            write(target, j, rows[target].get(j, 0) - q * v)
        b[target] -= q * b[source]
        ut, us = U[target], U[source]
        for k, v in us.items():
            nv = ut.get(k, 0) - q * v
            if nv:
                ut[k] = nv
            else:
                ut.pop(k, None)

    def col_op(target: int, source: int, q: int) -> None:
        # column target -= q * column source
        for i in sorted(colrows[source]):
            write(i, target, rows[i].get(target, 0) - q * rows[i][source])
        vt, vs = V[target], V[source]
        for k, v in vs.items():
            nv = vt.get(k, 0) - q * v
            if nv:
                vt[k] = nv
            else:
                vt.pop(k, None)

    def find_pivot() -> tuple[int, int] | None:
        while heap:
            rest, j = divmod(heap[0], ncols)
            a, i = divmod(rest, nrows)
            if i in active_rows and j in active_cols and abs(rows[i].get(j, 0)) == a:
                return i, j
            heappop(heap)
        return None

    while True:
        found = find_pivot()
        if found is None:
            break
        i, j = found
        d = rows[i][j]
        off_col = [r for r in sorted(colrows[j]) if r != i and r in active_rows]
        if off_col:
            for r in off_col:
                q = rows[r][j] // d
                if q:
                    row_op(r, i, q)
            continue
        off_row = [c for c in sorted(rows[i]) if c != j and c in active_cols]
        if off_row:
            for c in off_row:
                q = rows[i][c] // d
                if q:
                    col_op(c, j, q)
            continue
        pivots.append((i, j))
        active_rows.discard(i)
        active_cols.discard(j)

    for i in sorted(active_rows):
        if b[i]:
            return UnsatCertificate({keys[k]: v for k, v in sorted(U[i].items())}, 0)
    for i, j in pivots:
        d = rows[i][j]
        if b[i] % d:
            return UnsatCertificate(
                {keys[k]: v for k, v in sorted(U[i].items())}, abs(d)
            )

    y = [0] * ncols
    for i, j in pivots:
        x = b[i] // rows[i][j]
        if x:
            for orig, coeff in V[j].items():
                y[orig] += coeff * x
    if not check_solution(columns, rhs, y):
        raise RuntimeError("integer solution failed its replay")
    return y
