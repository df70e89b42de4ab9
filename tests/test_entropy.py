"""Spatial entropy rate and excess entropy over channel lattices."""

import decimal
import math

import numpy as np
import pytest

from netcomplexity import entropy
from netcomplexity.entropy import (
    conditional_entropy_profile,
    context_offsets,
    estimate_excess_entropy,
    excess_entropy,
)
from netcomplexity.lattice import ChannelLattice

from oracles import (
    oracle_conditional_profile,
    oracle_entropy_bits,
    oracle_stripe_h1,
)


def random_lattice(width, height, channels, seed, count=1):
    rng = np.random.default_rng(seed)
    return [
        ChannelLattice(width, height, channels,
                       rng.integers(0, channels, size=(height, width)))
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# context order


def test_chebyshev_ring_one_is_clockwise_from_north():
    assert context_offsets(8) == (
        (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1),
    )


def test_chebyshev_two_has_inner_ring_first():
    offsets = context_offsets(24)
    assert offsets[8:11] == ((-2, 0), (-2, 1), (-2, 2))
    assert max(max(abs(r), abs(c)) for r, c in offsets[8:]) == 2
    assert len(set(offsets)) == 24
    assert (0, 0) not in offsets


def test_shallower_contexts_are_prefixes_of_deeper_ones():
    for n in range(49):
        deep = context_offsets(n)
        assert len(deep) == n
        for k in range(n + 1):
            assert context_offsets(k) == deep[:k]


# ---------------------------------------------------------------------------
# plug-in entropy


def plug_in(counts):
    """The module's plug-in entropy (bits) of a list of positive counts."""
    return entropy._entropy_of_count_vector(np.array(counts))


def test_empirical_entropy_anchors():
    assert plug_in([1, 1]) == pytest.approx(1.0, abs=1e-12)
    assert plug_in([5] * 4) == pytest.approx(2.0, abs=1e-12)
    assert plug_in([17]) == 0.0


def test_single_symbol_entropy_is_exactly_zero():
    for c in range(1, 2000):
        assert plug_in([c]) == 0.0


def test_empirical_entropy_matches_closed_form():
    counts = [3, 5, 7, 11]
    n = 26
    expect = math.log2(n) - sum(c * math.log2(c) for c in counts) / n
    assert plug_in(counts) == pytest.approx(expect, abs=1e-12)
    assert plug_in(counts) == pytest.approx(oracle_entropy_bits(counts), abs=1e-12)


def test_empirical_entropy_high_precision_cross_check():
    counts = [3, 5, 7, 11, 13]
    total = sum(counts)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        acc = decimal.Decimal(0)
        for c in counts:
            p = decimal.Decimal(c) / total
            acc -= p * p.ln() / decimal.Decimal(2).ln()
    assert abs(plug_in(counts) - float(acc)) < 1e-12


# ---------------------------------------------------------------------------
# conditional entropy profile


def test_stripe_pattern_is_fully_determined_by_north_neighbor():
    # Horizontal 2-stripes, both phases pooled: the north cell fixes the value.
    samples = [
        ChannelLattice(6, 6, 2, np.fromfunction(
            lambda r, c: (r + phase) % 2, (6, 6), dtype=np.int64))
        for phase in (0, 1)
    ]
    (h1,) = conditional_entropy_profile(samples, 1)
    assert h1 == pytest.approx(oracle_stripe_h1(), abs=1e-12)
    assert h1 == pytest.approx(0.0, abs=1e-12)


def test_profile_matches_literal_counting_oracle():
    offsets = ((-1, 0), (-1, 1), (0, 1), (1, 1))
    for seed in range(4):
        samples = random_lattice(6, 5, 3, seed, count=2)
        got = conditional_entropy_profile(samples, 4)
        want = oracle_conditional_profile(samples, 4, offsets)
        assert got == pytest.approx(want, abs=1e-10)


def test_profile_is_monotone_nonincreasing():
    for seed in range(6):
        samples = random_lattice(8, 8, 4, seed, count=3)
        h = conditional_entropy_profile(samples, 6)
        for a, b in zip(h, h[1:]):
            assert b <= a + 1e-9


def test_constant_lattice_has_zero_profile():
    samples = [ChannelLattice(5, 5, 3, np.full((5, 5), 2))]
    h = conditional_entropy_profile(samples, 4)
    assert h == pytest.approx((0.0,) * 4, abs=1e-12)


def test_profile_invariant_under_channel_relabeling():
    samples = random_lattice(7, 6, 4, 11, count=2)
    perm = np.array([2, 0, 3, 1])
    relabeled = [
        ChannelLattice(s.width, s.height, s.channel_count, perm[s.cells])
        for s in samples
    ]
    assert conditional_entropy_profile(samples, 3) == pytest.approx(
        conditional_entropy_profile(relabeled, 3), abs=1e-12
    )


def test_duplicated_sample_does_not_move_the_estimate():
    samples = random_lattice(6, 6, 3, 23)
    once = conditional_entropy_profile(samples, 3)
    twice = conditional_entropy_profile(samples * 2, 3)
    assert once == pytest.approx(twice, abs=1e-12)


def test_iid_lattice_profile_is_near_log2_alphabet():
    samples = random_lattice(300, 300, 2, 5)
    h = conditional_entropy_profile(samples, 3)
    for v in h:
        assert abs(v - 1.0) < 0.01
    excess, _, _ = excess_entropy(h)
    assert abs(excess) < 0.02


def test_profile_validation():
    samples = random_lattice(5, 5, 3, 0)
    with pytest.raises(ValueError):
        conditional_entropy_profile([], 2)
    with pytest.raises(ValueError):
        conditional_entropy_profile(samples, 0)
    with pytest.raises(ValueError):
        conditional_entropy_profile(samples, 25)  # a 5x5 torus has 24 other cells
    mixed = samples + random_lattice(6, 5, 3, 1)
    with pytest.raises(ValueError):
        conditional_entropy_profile(mixed, 2)
    wide = [ChannelLattice(2, 2, 2 ** 16, np.zeros((2, 2), dtype=np.int64))]
    with pytest.raises(ValueError):
        conditional_entropy_profile(wide, 4)


def bounded_offsets(monkeypatch, limit):
    """Make context_offsets fail when asked for more than limit offsets."""
    build = entropy.context_offsets

    def bounded(depth):
        assert depth <= limit, f"built {depth} context offsets"
        return build(depth)

    monkeypatch.setattr(entropy, "context_offsets", bounded)


def test_a_depth_past_the_lattice_builds_no_offsets(monkeypatch):
    # a 5x5 torus has 24 other cells; a deeper context is rejected before
    # its offsets are built, and before the alphabet's code-space check
    bounded_offsets(monkeypatch, 24)
    samples = random_lattice(5, 5, 4, 1)
    assert len(conditional_entropy_profile(samples, 24)) == 24
    wide = [ChannelLattice(5, 5, 2 ** 16, np.zeros((5, 5), dtype=np.int64))]
    for lattices, depth in ((samples, 25), (samples, 10 ** 6), (wide, 25)):
        with pytest.raises(ValueError, match=f"^context depth {depth} does not fit on a 5x5"):
            conditional_entropy_profile(lattices, depth)


@pytest.mark.parametrize("side,depth,fits", [
    (2, 3, True), (2, 4, False), (2, 9, False), (3, 8, True), (3, 9, False),
])
def test_context_must_fit_on_the_torus(side, depth, fits):
    # past the fit, the spiral wraps onto the cell itself or a cell it has
    samples = random_lattice(side, side, 4, 1, count=3)
    if fits:
        assert len(conditional_entropy_profile(samples, depth)) == depth
    else:
        with pytest.raises(ValueError, match=f"depth {depth} .* {side}x{side}"):
            conditional_entropy_profile(samples, depth)


# ---------------------------------------------------------------------------
# excess entropy


def test_excess_entropy_partial_sum_anchor():
    excess, rate, converged = excess_entropy([1.0, 0.6, 0.5, 0.5])
    assert excess == pytest.approx(0.6, abs=1e-12)
    assert rate == 0.5
    assert converged


def test_excess_entropy_edge_cases():
    excess, rate, converged = excess_entropy([0.7])
    assert excess == 0.0 and rate == 0.7 and not converged
    _, _, converged = excess_entropy([1.0, 0.6])
    assert not converged  # last two h values differ by 0.4 > tolerance
    with pytest.raises(ValueError):
        excess_entropy([])


def test_estimate_wrapper_populates_record():
    samples = random_lattice(10, 10, 3, 2, count=2)
    profile = estimate_excess_entropy(samples, max_context=3)
    assert len(profile.conditional_entropies) == 3
    assert profile.entropy_rate == profile.conditional_entropies[-1]
    assert profile.excess == pytest.approx(
        sum(v - profile.entropy_rate for v in profile.conditional_entropies),
        abs=1e-12,
    )


def test_constant_lattice_has_zero_excess():
    samples = [ChannelLattice(8, 8, 4, np.full((8, 8), 1))]
    profile = estimate_excess_entropy(samples)
    assert profile.excess == pytest.approx(0.0, abs=1e-12)
    assert profile.entropy_rate == pytest.approx(0.0, abs=1e-12)
    assert profile.converged
