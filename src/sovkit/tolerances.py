"""Central tolerance configuration.

A ``Tolerances`` record carries the three thresholds that a caller may move:
``root_residual``, ``ode`` and ``divisor``.  ``Tolerances.scaled`` multiplies
all three.  The other thresholds hold one value on every code path and are
module constants here.
"""

from dataclasses import dataclass, fields

ROOT_CLUSTER = 1e-7        # root clustering radius, relative to root scale
ZERO_TRIM = 1e-13          # trailing-coefficient trim, relative to max |coeff|
# Quadrature error per panel, relative to its integral of |f|.  Not scaled:
# the moment quadrature only seeds Newton, and below about 1e-12 it stalls
# on rounding.
QUAD = 1e-10
DISC_GAP = 1e-3            # minimum branch-point separation of a generic curve
BRANCH_AVOID = 1e-2        # path avoidance radius around branch points
PUNCTURE_RADIUS = 1e-3     # no theta evaluation, path node or row crossing this near a puncture
CLUSTER_MERGE = 1e-7       # duplicate-point merge radius
LAX_PERIODICITY = 1e-8     # assembled elliptic Lax quasi-periodicity, relative
BASIS_MULTIPLIER = 1e-10   # elliptic basis character multipliers, relative
BASIS_RANK = 1e-8          # elliptic basis span: smallest/largest singular value
CASIMIR = 1e-8             # Casimir field norm, relative; also the rank cut of G . Pi
CLUSTER_DERIVATIVE = 1e-7  # derivative residual of a validated multiple root


@dataclass(frozen=True)
class Tolerances:
    root_residual: float = 1e-12   # |p(root)| <= root_residual * evaluation scale
    ode: float = 1e-10             # ODE per-step relative tolerance
    divisor: float = 1e-9          # divisor-point residual bound, relative to scale

    def scaled(self, factor: float) -> "Tolerances":
        """A copy with every field times ``factor``."""
        return Tolerances(*(getattr(self, f.name) * factor for f in fields(self)))


DEFAULT = Tolerances()
