"""serialsum: closed-form limits of cyclic geometric lattice sums arising
in AR(k) moment calculations, with independent brute-force oracles."""

from .numerics import DegenerateJetError, Jet
from .lambda_sums import (
    BudgetExceededError,
    CollisionError,
    ConjectureReport,
    FiniteSumSpec,
    LimitValue,
    RootMultiset,
    ShiftSpec,
    conjecture_probe,
    f2_equal_reference,
    f3_triple_reference,
    f_distinct,
    f_general,
    finite_sum,
    finite_sum_direct,
    linear_coefficient,
    series_oracle,
)
from .ar_model import (
    AcfModel,
    ARModel,
    BadLagError,
    CharRoots,
    DegenerateSampleError,
    NotStationaryError,
    SeriesSample,
    acf,
    char_roots,
    empirical_acf,
    simulate,
    sum_stats,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
