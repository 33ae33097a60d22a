"""An independent single-point reference for ``FacilityPartition.locate``.

These are the regime-diagram rules as they read before the locator was written
once for points and grids: every level edge and every band constant is tested
with a scalar ``on_boundary``, and "some crossed edge" is a loop over the edges.
It shares with the package only the bracket, the band constants and the
curve value ``cd_tilde``, and serves the tests that check ``locate``, ``locate_grid``
and ``regime_sweep`` cell by cell.
"""

import math

import numpy as np

from facsec.model import BOUNDARY_TOL, FacilityPartition, Location


def on_boundary(x: float, line: float) -> bool:
    """True when ``x`` is within BOUNDARY_TOL (relative) of the regime line ``line``;
    never at an infinite distance."""
    d = abs(x - line)
    return d < math.inf and d <= BOUNDARY_TOL * max(1.0, abs(x), abs(line))


def _not_above(x: float, line: float) -> bool:
    """x below ``line`` or on it."""
    return x < line or on_boundary(x, line)


def _count_above(values: np.ndarray, x):
    """How many of the non-increasing ``values`` exceed ``x``, a number or an array."""
    return len(values) - values[::-1].searchsorted(x, side="right")


def reference_locate(self: FacilityPartition, ca: float, cd: float) -> Location:
    """Place (ca, cd) among the level edges C(k)-C0, the band constants 1/S_k
    and the threshold curve.

    Edge 1 separates everything. Across edge k >= 2 the bracket drops to
    k-1: the NE regime changes below band k-1, the SPE regime below the
    curve, and the region between bands k and k-1, where its L/M line
    jumps. Band k separates NE regimes for k <= i, SPE regimes above the
    curve, and the region for k = i."""
    edges, bands, i = self.edges, self.bands, self.bracket(ca)
    j = 1 + int(_count_above(bands, cd))
    if on_boundary(ca, edges[0]):
        return Location(i, j, True, "boundary", True, True)
    crossed = [k for k in range(2, self.K + 1) if on_boundary(ca, edges[k - 1])]
    on_ne = any(_not_above(cd, bands[k - 2]) for k in crossed)
    on_spe = any(_not_above(cd, self.cd_tilde(edges[k - 1])) for k in crossed)
    on_region = any(
        _not_above(bands[k - 1], cd) and _not_above(cd, bands[k - 2]) for k in crossed
    )
    below, on_curve = True, False  # the curve is infinite from C(1)-C0 on
    if i:
        curve = self.cd_tilde(ca)
        below, on_curve = cd < curve, on_boundary(cd, curve)
    band_hits = [k for k, band in enumerate(bands, start=1) if on_boundary(cd, band)]
    on_ne = on_ne or any(k <= i for k in band_hits)
    # above the curve yet below every band (j > K) happens only by rounding
    on_spe = on_spe or on_curve or (not below and (bool(band_hits) or j > self.K))
    if on_region or on_curve or i in band_hits:
        region = "boundary"
    else:
        region = "none" if i == 0 else "L" if j > i else "M" if below else "H"
    return Location(i, j, below, region, on_ne, on_spe)
