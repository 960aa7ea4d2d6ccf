"""Time-domain log-sensitivity analysis of error signals.

Computes e(t) = c @ expm(A0 t) @ v, its derivative with respect to a
structured uncertain parameter, and the log-sensitivity
s(xi0, t) = xi0 * (de/dxi) / e, then classifies how |s| diverges as the
error decays.  Ships builders for classical step-tracking loops
(spring-mass, RLC) and quantum Bloch-space models (open two-qubit system,
perfect-state-transfer spin chains), plus a scenario CLI.
"""

__version__ = "0.1.0"

from . import classical, matexp, quantum, sensan
from .matexp import *  # noqa: F401,F403
from .sensan import *  # noqa: F401,F403
from .classical import *  # noqa: F401,F403
from .quantum import *  # noqa: F401,F403

__all__ = [*matexp.__all__, *sensan.__all__, *classical.__all__, *quantum.__all__]
