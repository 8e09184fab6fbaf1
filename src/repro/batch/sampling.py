"""Bulk draw primitives over a shared ``random.Random`` stream.

The monitor's shared per-vantage stream must be consumed in exactly the
legacy order for digests to stay bit-identical, so these helpers do not
reorder anything — they hoist the per-draw call overhead (method
dispatch, attribute lookups, ``gauss`` state bookkeeping) out of the
loop while producing the identical float sequence.  :class:`GaussTape`
applies them to a whole round: the Gaussians the round is sure to use
are drawn as one block, and consumers read them off in stream order.
"""

from __future__ import annotations

import itertools
import math
import random

#: the constant CPython's ``random.gauss`` uses (``2.0 * pi``).
_TWOPI = 2.0 * math.pi


def uniform_block(rng: random.Random, n: int) -> list[float]:
    """``n`` sequential ``rng.random()`` draws, as one list."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rand = rng.random
    return [rand() for _ in range(n)]


def gauss_block(
    rng: random.Random, n: int, mu: float = 0.0, sigma: float = 1.0
) -> list[float]:
    """``n`` sequential ``rng.gauss(mu, sigma)`` draws, as one list.

    Replicates CPython's Box-Muller implementation bit-for-bit,
    including the cached ``gauss_next`` partner: a block may start by
    consuming a partner left over from an earlier scalar ``gauss`` call
    and may leave one behind for the next, so mixing block and scalar
    draws on the same stream yields the identical sequence.  The
    underlying uniforms are drawn as one bulk block up front.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return []
    z = rng.gauss_next
    rng.gauss_next = None
    pending = n if z is None else n - 1
    pairs = (pending + 1) // 2
    uniforms = uniform_block(rng, 2 * pairs)
    cos, sin, log, sqrt = math.cos, math.sin, math.log, math.sqrt
    out: list[float] = []
    append = out.append
    idx = 0
    for _ in range(n):
        if z is None:
            x2pi = uniforms[idx] * _TWOPI
            g2rad = sqrt(-2.0 * log(1.0 - uniforms[idx + 1]))
            idx += 2
            z = cos(x2pi) * g2rad
            partner = sin(x2pi) * g2rad
        else:
            partner = None
        append(mu + z * sigma)
        z = partner
    rng.gauss_next = z
    return out


class GaussTape:
    """One round's measurement Gaussians, read off a shared stream in order.

    ``reserved`` Gaussians (of ``gauss(0, sigma)``) are drawn up front
    as one :func:`gauss_block`; :meth:`one` hands them out in stream
    order and, once they are used up, draws each further one from the
    stream on demand.  The reservation must never exceed what the round
    consumes: then the tape is never over-drawn, and the stream ends the
    round exactly where sequential ``rng.gauss(0, sigma)`` calls leave
    it, the cached ``gauss_next`` partner included.  With ``sigma <= 0``
    the noise is off: every draw is exactly 0.0 and the stream is never
    touched.
    """

    __slots__ = ("_rng", "_sigma", "_ahead")

    def __init__(self, rng: random.Random, sigma: float, reserved: int = 0) -> None:
        self._rng = rng
        self._sigma = sigma
        if sigma > 0:
            self._ahead = iter(gauss_block(rng, reserved, 0.0, sigma))
        else:
            self._ahead = itertools.repeat(0.0)

    def one(self) -> float:
        """The next Gaussian of the stream."""
        draw = next(self._ahead, None)
        if draw is None:
            return self._rng.gauss(0.0, self._sigma)
        return draw
