"""Composite Gauss-Legendre quadrature: the one integration rule of the oracles.

``integrate_rows`` computes one integral per row of panel edges. It
applies the n-point Gauss-Legendre rule on every panel of every row, then
the 2n-point rule, calling the integrand once per rule on all rows' nodes,
and returns each row's 2n-point value. |I_n - I_2n| estimates the error of
I_n; for the smooth integrands here the 2n-point value is many orders
closer. Further edge arrays add variables shared by every row, integrated
over the tensor product. ``integrate`` is the one-row case.

A panel must not contain a feature much narrower than itself: both rules
can miss it alike, and then the estimate misses it too. Put the edges at
the breakpoints of the integrand and grade them geometrically away from
its narrowest feature (``graded_edges``): a pole at distance ~a from a
panel of length ~a then converges at the same rate on every panel, as
the ratio 2 fixes the panel's Bernstein ellipse.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np

from .errors import ConvergenceError

# nodes n per panel of the coarse rule; the fine rule has 2n. On the
# oracles' panels the two agree to rounding (<= 1.8e-15 relative).
NODES = 16


@functools.lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _panels(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint and half-width of every panel of every row, row after row."""
    lower = np.concatenate([row[:-1] for row in rows])
    upper = np.concatenate([row[1:] for row in rows])
    return (upper + lower) / 2.0, (upper - lower) / 2.0


def integrate_rows(integrand: Callable[..., np.ndarray], rows, *edges, what: str,
                   rel_tol: float) -> np.ndarray:
    """One integral per row of ``rows`` over the panels between its edges
    (two or more); rows may differ in panel count.

    The integrand takes the rows' nodes, shaped (panels, n), one node array
    per array of ``edges`` on an axis of its own after those two, and each
    panel's row index, shaped (panels, 1, ...). Returns each row's 2n-node
    value, n = ``NODES``; raises ``ConvergenceError`` naming ``what`` and
    the first row whose n-node value is off it by more than ``rel_tol``
    times its size.
    """
    rows = [np.asarray(row, dtype=float) for row in rows]
    panels = np.array([len(row) - 1 for row in rows])
    if (panels < 1).any():
        raise ValueError(f"{what}: every row needs at least two edges")
    middle, half = _panels(rows)
    shared = [_panels([np.asarray(e, dtype=float)]) for e in edges]
    trailing = (1,) * len(edges)
    row = np.repeat(np.arange(len(rows)), panels).reshape(-1, 1, *trailing)
    first_panels = np.cumsum(panels) - panels
    estimates = []
    for n in (NODES, 2 * NODES):
        nodes, weights = _legendre_rule(n)
        grid = np.ix_(*((m[:, None] + h[:, None] * nodes).ravel() for m, h in shared))
        values = integrand((middle[:, None] + half[:, None] * nodes).reshape(-1, n, *trailing),
                           *(x[None, None] for x in grid), row)
        for _, h in reversed(shared):
            values = values @ (h[:, None] * weights).ravel()
        estimates.append(np.add.reduceat(values @ weights * half, first_panels))
    coarse, fine = estimates
    error = np.abs(fine - coarse)
    converged = error <= rel_tol * np.abs(fine)
    if not converged.all():
        failed = int(np.argmin(converged))
        raise ConvergenceError(f"{what}, row {failed}", float(error[failed]))
    return fine


def integrate(integrand: Callable[..., np.ndarray], *edges, what: str,
              rel_tol: float) -> float:
    """Integral over the panels between each array of ``edges``: the one-row
    case of ``integrate_rows``, with an integrand that takes no row index."""
    return float(integrate_rows(lambda *nodes: integrand(*nodes[:-1]), edges[:1],
                                *edges[1:], what=what, rel_tol=rel_tol)[0])


def graded_edges(scale: float, stop: float, breakpoints=()) -> np.ndarray:
    """Panel edges on [0, stop]: 0, scale * 2**k below stop, the breakpoints, stop.

    ``scale`` is the width of the narrowest feature at 0.
    """
    count = max(0, math.ceil(math.log2(stop / scale)))
    inside = (x for x in (*(scale * 2.0 ** k for k in range(count)), *breakpoints)
              if 0.0 < x < stop)
    return np.array(sorted({0.0, stop, *inside}))
