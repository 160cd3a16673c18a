"""The log-domain zero.

Probabilities in the dynamic program get as small as exp(-1e5), far below
the smallest positive binary64, so every probability is stored as its
natural logarithm.  ``NEG_INF`` is log 0, the exact-zero sentinel; sums of
logs are folded with ``numpy.logaddexp``, for which it is the identity.
"""

NEG_INF = float("-inf")

__all__ = ["NEG_INF"]
