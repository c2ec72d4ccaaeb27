"""Composite Gauss-Legendre quadrature: the one integration rule of the oracles.

``integrate`` applies the n-point Gauss-Legendre rule on every panel
between the given edges, then the 2n-point rule on the same panels, and
returns the 2n-point value. |I_n - I_2n| estimates the error of I_n; for
the smooth integrands here the 2n-point value is many orders closer.
Several edge arrays integrate over their tensor product, the same rule
in each variable.

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
from typing import Callable

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


def _panel_rule(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on every panel between ``edges``."""
    nodes, weights = _legendre_rule(n)
    half = (edges[1:] - edges[:-1])[:, None] / 2.0
    middle = (edges[1:] + edges[:-1])[:, None] / 2.0
    return (middle + half * nodes).ravel(), (half * weights).ravel()


def integrate(integrand: Callable[..., np.ndarray], *edges, what: str,
              rel_tol: float) -> float:
    """Integral of ``integrand`` over the panels between each array of ``edges``.

    The integrand takes one node array per edge array, shaped to broadcast
    against each other as ``np.ix_`` shapes them, and returns the values on
    that grid. Returns the 2n-node value, n = ``NODES``; raises
    ``ConvergenceError`` naming ``what`` when the n-node value differs from
    it by more than ``rel_tol`` times its size.
    """
    edges = [np.asarray(e, dtype=float) for e in edges]
    estimates = []
    for n in (NODES, 2 * NODES):
        rules = [_panel_rule(e, n) for e in edges]
        values = integrand(*np.ix_(*(x for x, _ in rules)))
        for _, weights in reversed(rules):
            values = values @ weights
        estimates.append(float(values))
    coarse, fine = estimates
    error = abs(fine - coarse)
    if not error <= rel_tol * abs(fine):
        raise ConvergenceError(what, error)
    return fine


def graded_edges(scale: float, stop: float, breakpoints=()) -> np.ndarray:
    """Panel edges on [0, stop]: 0, scale * 2**k below stop, the breakpoints, stop.

    ``scale`` is the width of the narrowest feature at 0.
    """
    count = max(0, math.ceil(math.log2(stop / scale)))
    geometric = scale * 2.0 ** np.arange(count)
    return np.unique(np.concatenate(([0.0, stop], geometric[geometric < stop],
                                     [b for b in breakpoints if 0.0 < b < stop])))
