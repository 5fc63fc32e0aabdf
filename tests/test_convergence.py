"""Observed order of the grid residuals against the oscillator, by systematic grid refinement.

The oscillator's W solves every equation exactly, so each grid residual is
stencil error alone. From 32^2 on a +-4 sqrt(2) box to 64^2 on a +-8 box every
step shrinks by sqrt(2): x and v, and both dual axes, whose step is
pi hbar2 / (box width). The observed order is log(r32 / r64) / log(sqrt(2)).
"""

import math

import numpy as np
import pytest

from phasechain import (
    PhysParams,
    StencilScheme,
    chain_residual,
    make_axis,
    max_abs,
    moyal_residual_slabs,
    psi12,
    sample_complex,
    u12_polynomial,
    wigner4,
)

P = PhysParams()
U = u12_polynomial(P)
RUNGS = ((32, 4.0 * math.sqrt(2.0)), (64, 8.0))
MASK_THRESHOLD = 1e-3
# the least observed order for each stencil order; the least measured over the four residuals is 1.66, 3.28, 4.64
MIN_ORDER = {2: 1.5, 4: 3.0, 6: 4.3}


@pytest.fixture(scope="module")
def rungs():
    """W on each rung, coarse first."""
    out = []
    for n, box in RUNGS:
        axes = (make_axis("x", -box, box, n), make_axis("v", -box, box, n))
        out.append(wigner4(sample_complex(lambda x, v: psi12(x, v, 0.0, P), axes), P))
    return out


def residuals(w4, order):
    """max |residual| of psi-moyal (every node) and of each chain member (its valid points)."""
    scheme = StencilScheme(order=order)
    out = {"psi-moyal": max(max_abs(block) for _, block in moyal_residual_slabs(w4, U, P, scheme))}
    for member in ("w123", "w124", "w12"):
        res, _, valid = chain_residual(member, w4, U, P, scheme, MASK_THRESHOLD)
        out[member] = float(np.abs(res.data[valid]).max())
    return out


@pytest.mark.parametrize("order", sorted(MIN_ORDER))
def test_every_grid_residual_converges_at_its_stencil_order(rungs, order):
    coarse, fine = (residuals(w4, order) for w4 in rungs)
    observed = {mode: math.log(coarse[mode] / fine[mode]) / math.log(math.sqrt(2.0)) for mode in coarse}
    assert min(observed.values()) >= MIN_ORDER[order], (observed, coarse, fine)
