"""Reference: second-order central-difference jets of a scalar graph function.

The ``mixed_cone_type`` catalog entry computes its jet in closed form; this is
the finite-difference jet it replaced, kept to check it against.
"""
from typing import Callable

import numpy as np

from zmcgraph.lorentz import GraphJet

_EPS = float(np.finfo(float).eps)


def fd_graph_jet(
    psi: Callable[[float, float], float], x: float, y: float, scale: float | None = None
) -> GraphJet:
    """Second-order central-difference jet of a scalar graph function.

    Step sizes follow the usual truncation/roundoff balance: eps^(1/3) for
    first derivatives and eps^(1/4) for second derivatives, times a length
    scale.  x and y may be floats or arrays; ``psi`` is then called on whole
    arrays, and each point gets the steps and sums of its own scalar call.
    """
    if scale is None:  # fmax passes over NaN as max() does
        scale = np.fmax(np.fmax(1.0, np.abs(x)), np.abs(y))
        # a Python float keeps a scalar jet in floats, whose division by zero raises
        scale = float(scale) if scale.ndim == 0 else scale
    h1 = _EPS ** (1.0 / 3.0) * scale
    h2 = _EPS**0.25 * scale
    f0 = psi(x, y)
    px = (psi(x + h1, y) - psi(x - h1, y)) / (2.0 * h1)
    py = (psi(x, y + h1) - psi(x, y - h1)) / (2.0 * h1)
    pxx = (psi(x + h2, y) - 2.0 * f0 + psi(x - h2, y)) / (h2 * h2)
    pyy = (psi(x, y + h2) - 2.0 * f0 + psi(x, y - h2)) / (h2 * h2)
    pxy = (
        psi(x + h2, y + h2)
        - psi(x + h2, y - h2)
        - psi(x - h2, y + h2)
        + psi(x - h2, y - h2)
    ) / (4.0 * h2 * h2)
    return GraphJet(f0, px, py, pxx, pxy, pyy)
