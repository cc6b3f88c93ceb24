"""tauspec: temporal functions of scattering processes.

Given a complex frequency response S(omega), the logarithmic derivative

    tau(omega) = -i d ln S / d omega = tau1 + i tau2

splits into a delay time tau1 (phase slope) and a formation time tau2
(minus the log-modulus slope).  This package extracts both from sampled
data, evaluates them for closed-form models, and checks the dispersion
and balance identities they satisfy.
"""

import sys

__version__ = "0.1.0"

_LIBRARY = ("core", "dispersion", "extract", "physics", "scatter1d")


def __getattr__(name):
    """``tauspec.<module>`` imports that module alone.  Any other name, and
    ``__all__``, imports the library modules and binds their ``__all__`` here."""
    if name.isidentifier():
        try:
            # -X importtime times imports through __import__, not import_module
            __import__(f"{__name__}.{name}")
            return sys.modules[f"{__name__}.{name}"]
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    modules = [__getattr__(m) for m in _LIBRARY]
    names = {n: getattr(m, n) for m in modules for n in m.__all__}
    globals().update(names, __all__=list(names))
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]
