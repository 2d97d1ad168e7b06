"""Validating reference for the phase-space map.

``shift`` rebuilds the shifted strategy through the public ``Strategy``
constructor, which copies and re-validates every remaining term, as the
map did before strategies shared their terms.  It is quadratic over an
orbit and serves only as the oracle that the sharing map must match bit
for bit.
"""

import numpy as np

from chaosmark import PhasePoint, Strategy


def shift(s):
    if s.prefix:
        return Strategy(s.dim, s.prefix[1:], s.tail)
    if s.tail:
        return Strategy(s.dim, (), s.tail[1:] + s.tail[:1])
    return s


def apply_g(x):
    return PhasePoint(shift(x.strategy), x.strategy.term(0) + x.media)


def iterate_g(x, n):
    for _ in range(n):
        x = apply_g(x)
    return x


def same_point(x, y):
    """Bitwise equality of media and of every stored strategy term."""
    def terms_equal(a, b):
        return len(a) == len(b) and all(
            u.tobytes() == v.tobytes() for u, v in zip(a, b))
    return (x.dim == y.dim and x.media.tobytes() == y.media.tobytes()
            and terms_equal(x.strategy.prefix, y.strategy.prefix)
            and terms_equal(x.strategy.tail, y.strategy.tail))


def assert_valid_terms(s):
    """Every term is what the validating constructor would have stored."""
    for t in s.prefix + s.tail + (s.term(len(s.prefix) + len(s.tail)),):
        assert t.dtype == np.float64 and t.shape == (s.dim,)
        assert not t.flags.writeable
        assert np.all(np.isfinite(t))
