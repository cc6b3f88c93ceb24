"""tauspec: temporal functions of scattering processes.

Given a complex frequency response S(omega), the logarithmic derivative

    tau(omega) = -i d ln S / d omega = tau1 + i tau2

splits into a delay time tau1 (phase slope) and a formation time tau2
(minus the log-modulus slope).  This package extracts both from sampled
data, evaluates them for closed-form models, and checks the dispersion
and balance identities they satisfy.
"""

from .core import *
from .dispersion import *
from .extract import *
from .physics import *
from .scatter1d import *

__version__ = "0.1.0"
