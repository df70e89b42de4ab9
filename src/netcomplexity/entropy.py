"""Excess-entropy estimation over channel lattices.

Conditional entropies h(M) = H(X | M context cells) are estimated with the
plug-in estimator over counts pooled across every cell of every sample
lattice (toroidal wrap, so every cell has a full context).  The context
grows one cell at a time along a fixed spiral: Chebyshev rings outward,
each ring clockwise from north, so the depth-M context is a prefix of every
deeper one.  A depth fits a lattice only if its M offsets, wrapped on the
torus, are M distinct cells other than the cell itself; a deeper context
would count some cell twice.  The excess is the accumulated gap between
h(M) and the entropy-rate estimate h_hat (the deepest h(M)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import ChannelLattice


def context_offsets(depth: int) -> tuple[tuple[int, int], ...]:
    """The first depth context offsets (row delta, col delta) of the spiral:
    Chebyshev rings outward, each ring clockwise from north (up, then
    up-right, right, ...)."""
    rings = 1
    while (2 * rings + 1) ** 2 - 1 < depth:
        rings += 1
    offsets = [
        (dr, dc)
        for dr in range(-rings, rings + 1)
        for dc in range(-rings, rings + 1)
        if (dr, dc) != (0, 0)
    ]
    offsets.sort(key=lambda o: (
        max(abs(o[0]), abs(o[1])), math.atan2(o[1], -o[0]) % (2 * math.pi),
    ))
    return tuple(offsets[:depth])


def _entropy_of_count_vector(counts: np.ndarray) -> float:
    """Plug-in Shannon entropy (bits) of an array of positive counts."""
    if len(counts) == 1:
        return 0.0  # the formula leaves a rounding residue, even a negative one
    total = counts.sum().item()
    acc = float((counts * np.log2(counts)).sum())
    return math.log2(total) - acc / total


def conditional_entropy_profile(
    samples: Sequence[ChannelLattice],
    max_context: int = 4,
) -> tuple[float, ...]:
    """h(M) for M = 1..max_context, pooled over all cells of all samples.

    Counts always wrap toroidally, so every cell contributes a full context
    regardless of the lattice's own boundary flag.  Conditioning on a prefix
    of the fixed spiral makes h exactly non-increasing in M.
    """
    if not samples:
        raise ValueError("need at least one sample lattice")
    if max_context < 1:
        raise ValueError("max_context must be >= 1")
    first = samples[0]
    for s in samples:
        if (s.width, s.height, s.channel_count) != (
            first.width, first.height, first.channel_count,
        ):
            raise ValueError(
                "all sample lattices must share dimensions and alphabet"
            )
    # a lattice has width * height - 1 other cells, so a deeper context
    # cannot fit; its offsets are not built
    cells = first.width * first.height
    offsets = context_offsets(max_context) if max_context < cells else ()
    wrapped = {(dr % first.height, dc % first.width) for dr, dc in offsets}
    if len(wrapped) < max_context or (0, 0) in wrapped:
        raise ValueError(
            f"context depth {max_context} does not fit on a "
            f"{first.width}x{first.height} lattice: its offsets wrap onto "
            "the cell itself or onto each other"
        )
    f_count = first.channel_count
    if f_count ** (max_context + 1) > 2 ** 62:
        raise ValueError(
            f"alphabet {f_count} with context depth {max_context} overflows "
            "the dense code space"
        )
    stack = np.stack([s.cells for s in samples]).astype(np.int64, copy=False)
    h: list[float] = []
    # depth M's code extends depth M-1's by one rolled plane (toroidal wrap)
    ctx = 0
    for dr, dc in offsets:
        ctx = ctx * f_count + np.roll(stack, (-dr, -dc), axis=(1, 2))
        _, joint_counts = np.unique(ctx * f_count + stack, return_counts=True)
        _, ctx_counts = np.unique(ctx, return_counts=True)
        h.append(
            _entropy_of_count_vector(joint_counts)
            - _entropy_of_count_vector(ctx_counts)
        )
    return tuple(h)


@dataclass(frozen=True)
class EntropyProfile:
    """Excess-entropy evaluation record."""

    conditional_entropies: tuple[float, ...]
    entropy_rate: float
    excess: float
    converged: bool


def excess_entropy(
    conditional_entropies: Sequence[float],
    tolerance: float = 0.01,
) -> tuple[float, float, bool]:
    """(excess, entropy_rate, converged) from an h(M) table.

    The deepest h(M) is the entropy-rate estimate; the convergence flag
    reports whether the last two h values agree within tolerance (a
    single-entry table cannot be assessed and reports False).
    """
    h = [float(x) for x in conditional_entropies]
    if not h:
        raise ValueError("empty conditional-entropy table")
    rate = h[-1]
    excess = sum(v - rate for v in h)
    converged = len(h) >= 2 and abs(h[-1] - h[-2]) <= tolerance
    return excess, rate, converged


def estimate_excess_entropy(
    samples: Sequence[ChannelLattice],
    max_context: int = 4,
    tolerance: float = 0.01,
) -> EntropyProfile:
    """One-stop pooled estimate over a set of sample lattices."""
    h = conditional_entropy_profile(samples, max_context)
    excess, rate, converged = excess_entropy(h, tolerance)
    return EntropyProfile(
        conditional_entropies=h, entropy_rate=rate, excess=excess, converged=converged,
    )
