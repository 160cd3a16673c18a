"""The logarithm of zero.

Results are reported as natural logarithms: probabilities in the dynamic
program get as small as exp(-1e5), far below the smallest positive
binary64.  The sweep itself runs in linear arithmetic on levels scaled by
their largest entry, with one log scale per level (see
``bpdp.chain.engine``); ``NEG_INF`` is log 0, what a log hit probability
is when the probability is exactly 0 (``numpy.logaddexp`` treats it as
the identity).
"""

NEG_INF = float("-inf")

__all__ = ["NEG_INF"]
