"""Random-case generators shared by the property and acceptance tests."""

from serialsum import RootMultiset
from serialsum.lambda_sums import draw_roots


def draw_multiset(rng, ell, rmax):
    return RootMultiset.from_lambdas(draw_roots(rng, ell, rmax))
