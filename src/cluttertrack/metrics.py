"""Tracking performance metrics: OSPA distance and identity switches."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ._lap import solve_lap
from .domain import CLUTTER, Assignment, ContractViolation, Scan


@dataclass(frozen=True)
class OspaParams:
    """Cutoff distance c (m) and order p of the OSPA metric. Both and
    ``c ** p``, the largest cost the assignment solver sees, are finite."""

    c: float = 10.0
    p: float = 2.0

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ContractViolation(f"c must be finite and > 0, got {self.c}")
        if not 1 <= self.p < math.inf:
            raise ContractViolation(f"p must be finite and >= 1, got {self.p}")
        try:
            self.c**self.p
        except OverflowError:
            raise ContractViolation(f"c ** p overflows a float for c={self.c}, p={self.p}") from None


def ospa(
    truth_positions: Sequence[Sequence[float]],
    est_positions: Sequence[Sequence[float]],
    params: OspaParams,
) -> float:
    """Optimal sub-pattern assignment distance between two 2-D point sets.

    With m <= n points: [(1/n)(min over injections of sum d_c^p + (n-m)c^p)]^(1/p)
    where d_c = min(c, euclidean distance); arguments swap when m > n. The
    inner minimization is the m x n assignment problem itself, solved exactly
    without miss columns, as every point of the smaller set is matched. Tied
    matchings give the same distance up to the order of the summed terms.
    Raises :class:`ContractViolation` when n * c^p, the largest sum, is not
    a finite float.
    """
    a = np.asarray(truth_positions, dtype=float).reshape(-1, 2)
    b = np.asarray(est_positions, dtype=float).reshape(-1, 2)
    if a.shape[0] > b.shape[0]:
        a, b = b, a
    m, n = a.shape[0], b.shape[0]
    if n == 0:
        return 0.0
    c_p = params.c**params.p
    if not math.isfinite(n * c_p):
        raise ContractViolation(
            f"OSPA of {n} points overflows a float: n * c ** p is not finite "
            f"for c={params.c}, p={params.p}"
        )
    if m == 0:
        return params.c
    diff = a[:, None, :] - b[None, :, :]
    dists = np.sqrt(np.add.reduce(diff * diff, axis=2))  # np.linalg.norm's own sum, without its wrapper
    rows = (np.minimum(dists, params.c) ** params.p).tolist()
    # A numpy start keeps sum() from compensating the float terms, as Python 3.12 on does.
    match_cost = sum((row[i] for row, i in zip(rows, solve_lap(rows))), np.float64(0.0))
    return float(((match_cost + (n - m) * c_p) / n) ** (1.0 / params.p))


def stti(assignment_history: Sequence[Assignment], scans: Sequence[Scan]) -> int:
    """Switch count of claimed track identities over an episode.

    For each ground-truth target, a switch is counted whenever the claiming
    track id differs between the two nearest scans where one is defined;
    scans where the target is undetected or unassigned are skipped. The
    total over all targets is returned. Raises :class:`ContractViolation`
    for an assignment count unlike the scan count or a scan without origin
    labels, before any counting.
    """
    if len(assignment_history) != len(scans):
        raise ContractViolation(
            f"{len(assignment_history)} assignments for {len(scans)} scans"
        )
    for scan in scans:
        if scan.origins is None:
            raise ContractViolation(f"scan {scan.k} carries no origin labels")

    last: Dict[int, int] = {}  # target -> the track that claimed it last
    switches = 0
    for assignment, scan in zip(assignment_history, scans):
        track_of = {i: j for j, i in assignment.pairs.items()}
        for i, g in enumerate(scan.origins):
            j = track_of.get(i)
            if g != CLUTTER and j is not None:
                switches += last.setdefault(g, j) != j
                last[g] = j
    return switches

