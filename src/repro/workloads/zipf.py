"""Zipf distribution helpers.

``numpy.random.zipf`` has an unbounded support and is undefined for
exponent <= 1, but the paper sweeps Zipf factors from 0.0 (uniform) to
1.0 over a *finite* universe (GPUs, or key values).  These helpers
implement the standard finite Zipf: ``P(rank k) ∝ 1 / k^z``.
"""

from __future__ import annotations

import numpy as np

#: Uniforms drawn, and CDF entries binned, per block: the temporaries of
#: :class:`ZipfTable` are this many elements, whatever the sample size.
BLOCK = 1 << 16


def zipf_weights(num_items: int, z: float) -> np.ndarray:
    """Normalized finite-Zipf probabilities for ranks ``1..num_items``.

    ``z = 0`` degenerates to the uniform distribution.
    """
    if num_items < 1:
        raise ValueError("num_items must be positive")
    if z < 0:
        raise ValueError(f"Zipf factor must be non-negative, got {z}")
    # In place: ``ranks ** -z / sum`` with no second full-size array.
    weights = np.arange(1, num_items + 1, dtype=np.float64)
    weights **= -z
    weights /= weights.sum()
    return weights


class ZipfTable:
    """A finite-Zipf CDF with a guide table, built once and drawn from often.

    Draws are what ``rng.choice(num_items, size, p=weights)`` returns:
    renormalized CDF, ``size`` uniforms, right-bisection.  The
    bisection is replaced by Chen and Asau's indexed search.  The unit
    interval is cut into ``scale`` equal cells, ``scale`` a power of
    two no smaller than ``num_items``, and ``guide[j]`` counts the CDF
    entries ``<= j/scale``.  A uniform ``u`` in cell ``j`` starts at
    rank ``guide[j]`` and steps up while ``cdf[rank] <= u``; on average
    that is about one compare.  Above ``z = 1`` the tail's cells hold
    many entries each, so after :attr:`MAX_STEPS` steps the few draws
    still walking are bisected.

    The draw is exact.  ``u * scale`` and ``cdf * scale`` are exact
    because ``scale`` is a power of two, so ``j = floor(u * scale)``
    has ``j/scale <= u`` and every rank below ``guide[j]`` has
    ``cdf <= u``.  The walk stops at the first ``cdf[rank] > u``, which
    is the right-bisection index, and it stops inside the table since
    ``cdf[-1] == 1.0 > u``.
    """

    #: Walk steps before the draws still short of their rank are
    #: finished by bisection.
    MAX_STEPS = 4

    def __init__(self, num_items: int, z: float) -> None:
        # Keep only the CDF, built in the weights' array: the weights
        # would otherwise sit beside the table.
        cdf = zipf_weights(num_items, z)
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        self.cdf = cdf
        self.scale = scale = 2 ** max(1, (num_items - 1).bit_length())
        # guide[j] = #{i : cdf[i] <= j/scale} = #{i : ceil(cdf[i]*scale) <= j}.
        # The cells are non-decreasing, so a cell's count is one past the
        # last entry in it, and a cell no entry falls in inherits the
        # count of the cell below: a running maximum fills those in.
        guide = np.zeros(scale + 1, dtype=np.int32 if num_items < 2**31 else np.int64)
        for start in range(0, num_items, BLOCK):
            cells = np.ceil(cdf[start : start + BLOCK] * scale).astype(np.intp)
            last = np.flatnonzero(cells[1:] != cells[:-1])
            guide[cells[last]] = start + 1 + last
            guide[cells[-1]] = start + len(cells)
        np.maximum.accumulate(guide, out=guide)
        self.guide = guide[:scale]

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` ranks in ``[0, num_items)``, as int64."""
        if size < 0:
            raise ValueError("size must be non-negative")
        return self.fill(np.empty(size, dtype=np.int64), rng)

    def fill(self, out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw ``len(out)`` ranks into ``out`` and return it.

        The uniforms are drawn :data:`BLOCK` at a time, which consumes
        the generator exactly as one ``rng.random(len(out))`` does, and
        each block's ranks are written straight into ``out``.
        """
        uniforms = np.empty(min(len(out), BLOCK))
        for start in range(0, len(out), BLOCK):
            block = rng.random(out=uniforms[: len(out) - start])
            out[start : start + len(block)] = self._ranks(block)
        return out

    def _ranks(self, uniforms: np.ndarray) -> np.ndarray:
        """The right-bisection index of each uniform in :attr:`cdf`."""
        cdf = self.cdf
        ranks = self.guide[(uniforms * self.scale).astype(np.intp)]
        behind = np.flatnonzero(cdf[ranks] <= uniforms)
        for _ in range(self.MAX_STEPS):
            if not behind.size:
                return ranks
            ranks[behind] += 1
            behind = behind[cdf[ranks[behind]] <= uniforms[behind]]
        # Cells holding many CDF entries (the flat tail of z > 1) would
        # take one Python-level pass per entry; bisect the few draws
        # still walking instead.  Same right-bisection index either way.
        ranks[behind] = np.searchsorted(cdf, uniforms[behind], side="right")
        return ranks


def zipf_sample(
    num_items: int, size: int, z: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` ranks in ``[0, num_items)`` from a finite Zipf law.

    Returns exactly what ``rng.choice(num_items, size, p=weights)``
    does, as int64, consuming the identical RNG stream.  The lookup is
    a :class:`ZipfTable` guide-table search, not a binary search; build
    the table once to draw more than one sample from the same law.
    """
    return ZipfTable(num_items, z).sample(size, rng)


def zipf_partition_counts(
    num_items: int, total: int, z: float
) -> np.ndarray:
    """Deterministically split ``total`` into finite-Zipf proportions.

    Used to decide how many tuples each GPU holds under placement skew;
    deterministic so experiment configurations are exactly reproducible.
    Rounding residue goes to the largest shares first.
    """
    weights = zipf_weights(num_items, z)
    counts = np.floor(weights * total).astype(np.int64)
    shortfall = total - int(counts.sum())
    order = np.argsort(-weights)
    for index in range(shortfall):
        counts[order[index % num_items]] += 1
    return counts
