"""Dense rectangular linear assignment kernel (shortest augmenting path)."""

from __future__ import annotations

from typing import List, Sequence

_INF = float("inf")


def solve_lap(cost: Sequence[Sequence[float]]) -> List[int]:
    """Minimum-cost assignment of every row to a distinct column.

    Classic O(rows^2 * cols) potentials/augmenting-path formulation for a
    dense matrix with rows <= cols. An entry may be ``+inf``, a pair that is
    never made, as long as every row can be given a distinct column of
    finite cost: then each augmentation stops at a finite column and every
    potential stays finite. Deterministic: when several columns tie, the
    lowest column index is explored first.

    Leading rows whose first minimum lies in a free column are placed
    directly, as Jonker and Volgenant's initialisation does, in exactly the
    state one pass of the augmenting loop leaves: with every column
    potential at 0 a row's reduced costs are the row itself, so the loop
    takes its first minimum, raises the row's potential from 0 by it,
    lowers the root column's potential by it and stops at the free column.
    Only the root column's potential moves, so this holds up to the first
    row whose minimum column is taken. From there each row runs the loop,
    which scans the columns not yet on its tree in ascending order with the
    same arithmetic per entry: the same assignment results, ties included.

    Returns the assigned column index for each row.
    """
    n = len(cost)
    if n == 0:
        return []
    m = len(cost[0])
    if n > m:
        raise ValueError(f"need rows <= cols, got {n} rows x {m} cols")

    # 1-based arrays; p[j] holds the row matched to column j (0 = free).
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)

    first = 1
    while first <= n:
        row = cost[first - 1]
        low = min(row)
        j = row.index(low) + 1
        if p[j]:
            break
        p[j] = first
        u[first] = 0.0 + low
        v[0] -= low
        first += 1

    for i in range(first, n + 1):
        p[0] = i
        j0 = 0
        minv = [_INF] * (m + 1)
        free = list(range(1, m + 1))  # columns not yet on the tree, ascending
        tree = [0]
        while True:
            i0 = p[j0]
            delta = _INF
            j1 = 0
            row = cost[i0 - 1]
            u_i0 = u[i0]
            for j in free:
                cur = row[j - 1] - u_i0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in tree:
                u[p[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
            tree.append(j0)
            free.remove(j0)
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    result = [0] * n
    for j in range(1, m + 1):
        if p[j]:
            result[p[j] - 1] = j - 1
    return result
