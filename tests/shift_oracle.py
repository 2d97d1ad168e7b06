"""Validating reference for the phase-space map.

``shift`` drops one term at a time and rebuilds the shifted strategy
through the public ``Strategy`` constructor, which re-validates every
remaining term on each step.  The rule is the one the map implements:
drop the prefix head, else rotate the periodic tail by one (one
``np.concatenate`` of the period), else keep the zero strategy.  It is
quadratic over an orbit and serves only as the oracle that the map,
which drops n terms at once, must match bit for bit.
"""

import numpy as np

from chaosmark import PhasePoint, Strategy


def shift(s):
    if len(s.prefix):
        return Strategy(s.dim, s.prefix[1:], s.tail)
    if len(s.tail):
        return Strategy(s.dim, (), np.concatenate([s.tail[1:], s.tail[:1]]))
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
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return (x.dim == y.dim and x.media.tobytes() == y.media.tobytes()
            and terms_equal(x.strategy.prefix, y.strategy.prefix)
            and terms_equal(x.strategy.tail, y.strategy.tail))


def assert_valid_terms(s):
    """Both blocks are what the validating constructor would have stored."""
    for block in (s.prefix, s.tail):
        assert block.dtype == np.float64 and block.ndim == 2
        assert block.shape[1] == s.dim
        assert not block.flags.writeable
        assert np.all(np.isfinite(block))
    t = s.term(len(s.prefix) + len(s.tail))
    assert t.dtype == np.float64 and t.shape == (s.dim,)
    assert not t.flags.writeable
    assert np.all(np.isfinite(t))
