"""Central tolerance configuration.

Every numeric routine takes an optional ``Tolerances`` record, so that a
caller can set any threshold on its own.  ``Tolerances.scaled`` tightens or
loosens three of them together: ``root_residual``, ``ode`` and ``divisor``.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    root_residual: float = 1e-12   # |p(root)| <= root_residual * evaluation scale
    root_cluster: float = 1e-7     # root clustering radius, relative to root scale
    zero_trim: float = 1e-13       # trailing-coefficient trim, relative to max |coeff|
    quad: float = 1e-10            # quadrature error per panel, relative to its integral of |f|
    ode: float = 1e-10             # ODE per-step relative tolerance
    divisor: float = 1e-9          # divisor-point residual bound, relative to scale
    disc_gap: float = 1e-3         # minimum branch-point separation of a generic curve
    branch_avoid: float = 1e-2     # path avoidance radius around branch points
    puncture_radius: float = 1e-3  # evaluation exclusion radius around theta punctures
    cluster_merge: float = 1e-7    # duplicate-point merge radius
    lax_periodicity: float = 1e-8  # assembled elliptic Lax quasi-periodicity, relative
    basis_multiplier: float = 1e-10  # elliptic basis character multipliers, relative
    basis_rank: float = 1e-8       # elliptic basis span: smallest/largest singular value
    casimir: float = 1e-8          # Casimir field norm, relative; also the rank cut of G . Pi
    cluster_derivative: float = 1e-7  # derivative residual of a validated multiple root

    def scaled(self, factor: float) -> "Tolerances":
        """A copy with ``root_residual``, ``ode`` and ``divisor`` times
        ``factor``; the other twelve fields are unchanged.

        ``quad`` is left alone: the moment quadrature only seeds Newton, and
        below about 1e-12 it stalls on rounding."""
        return replace(
            self,
            root_residual=self.root_residual * factor,
            ode=self.ode * factor,
            divisor=self.divisor * factor,
        )


DEFAULT = Tolerances()
