"""serialsum: closed-form limits of cyclic geometric lattice sums arising
in AR(k) moment calculations, with independent brute-force oracles.

Each submodule, and each name below, is loaded on first access (PEP 562),
so ``import serialsum`` runs none of them: a command pays only for the
modules it uses.
"""

import importlib

_NAMES = {
    "numerics": ("DegenerateJetError", "Jet"),
    "lambda_sums": (
        "BudgetExceededError", "ConjectureReport", "FiniteSumSpec",
        "LimitValue", "RootMultiset", "ShiftSpec",
        "conjecture_probe", "f_distinct", "f_general", "finite_sum",
        "linear_coefficient", "series_oracle",
    ),
    "ar_model": (
        "AcfModel", "ARModel", "BadLagError", "CharRoots",
        "DegenerateSampleError", "NotStationaryError", "SeriesSample", "acf",
        "char_roots", "empirical_acf", "simulate",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted([*_NAMES, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _NAMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
