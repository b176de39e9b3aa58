"""Secrecy outage analysis for dual-hop decode-and-forward relay selection.

Closed-form outage probabilities for six relay-selection policies over
Rayleigh fading, a seeded Monte Carlo channel simulator that validates them,
high-SNR expansions with outage floors and diversity-order fitting, and a
sweep/CSV experiment harness.
"""

from .asymptotics import *
from .closedform import *
from .montecarlo import *
from .params import *
from .subsets import *
from .sweep import *

__version__ = "0.1.0"

__all__ = (
    asymptotics.__all__
    + closedform.__all__
    + montecarlo.__all__
    + params.__all__
    + subsets.__all__
    + sweep.__all__
)
