"""Dual feasible functions (DFFs) for packing lower bounds: the reference.

A function ``f : [0,1] → [0,1]`` is *dual feasible* if for every finite set
``S`` of non-negative reals with ``Σ S ≤ 1`` also ``Σ f(S) ≤ 1``.  The
Fekete–Schepers bound family ([8, 10] in the paper) rests on the fact that
applying a DFF per axis to the normalized box widths preserves packability:
if the boxes fit the container, then for any DFFs ``f_1, …, f_d``

    Σ_boxes  Π_axes  f_axis( w_axis(box) / x_axis )  ≤  1 .

Any combination exceeding 1 *disproves* the packing without any search —
stage 1 of the paper's three-stage framework.

This module states the family as exact :class:`fractions.Fraction`
closures, the way the theory defines it.  It is off the hot path: the
bounds in :mod:`repro.core.bounds` evaluate :func:`default_family` in
closed form on integers, and ``tests/test_core_bounds.py`` holds those
closed forms to the closures here, member by member and name by name.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Sequence

DFF = Callable[[Fraction], Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(x: Fraction) -> Fraction:
    """The trivial DFF: plain volume."""
    return x


def make_u_k(k: int) -> DFF:
    """The Fekete–Schepers staircase DFF ``u^{(k)}``.

    ``u^{(k)}(x) = x`` when ``x (k+1)`` is integral, else
    ``⌊x (k+1)⌋ / k``.  Rounds widths to the grid of ``1/(k+1)`` fractions,
    amplifying items just over a breakpoint.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def u_k(x: Fraction) -> Fraction:
        scaled = x * (k + 1)
        if scaled.denominator == 1:
            return x
        return Fraction(int(scaled), k)  # int() floors positive fractions

    u_k.__name__ = f"u_{k}"
    return u_k


def make_f0(epsilon: Fraction) -> DFF:
    """The threshold DFF ``f_0^{(ε)}`` for ``0 < ε ≤ 1/2``.

    Items larger than ``1 − ε`` count as the whole container, items smaller
    than ``ε`` count as nothing, everything between keeps its size.
    """
    if not 0 < epsilon <= Fraction(1, 2):
        raise ValueError("epsilon must be in (0, 1/2]")

    def f0(x: Fraction) -> Fraction:
        if x > ONE - epsilon:
            return ONE
        if x < epsilon:
            return ZERO
        return x

    f0.__name__ = f"f0_{epsilon}"
    return f0


def compose(outer: DFF, inner: DFF) -> DFF:
    """The composition of two DFFs is a DFF.

    If ``Σ x_i ≤ 1`` then ``Σ inner(x_i) ≤ 1`` (inner is dual feasible),
    and applying the same argument to the transformed multiset gives
    ``Σ outer(inner(x_i)) ≤ 1``.
    """

    def composed(x: Fraction) -> Fraction:
        return outer(inner(x))

    composed.__name__ = f"{getattr(outer, '__name__', 'f')}∘{getattr(inner, '__name__', 'g')}"
    return composed


def blend(f: DFF, g: DFF, weight: Fraction) -> DFF:
    """A convex combination ``w·f + (1−w)·g`` of two DFFs is a DFF
    (sums of the images mix linearly, so the bound 1 is preserved)."""
    if not 0 <= weight <= 1:
        raise ValueError("blend weight must be in [0, 1]")

    def blended(x: Fraction) -> Fraction:
        return weight * f(x) + (1 - weight) * g(x)

    blended.__name__ = (
        f"{weight}*{getattr(f, '__name__', 'f')}+"
        f"{1 - weight}*{getattr(g, '__name__', 'g')}"
    )
    return blended


def default_family(normalized_widths: Sequence[Fraction]) -> List[DFF]:
    """A small, instance-adapted family of DFFs for one axis.

    Contains the identity, the staircases ``u^{(1)} … u^{(4)}``, and the
    thresholds ``f_0^{(ε)}`` for every distinct normalized width ``ε ≤ 1/2``
    occurring on the axis (the values where thresholds can matter).
    """
    family: List[DFF] = [identity]
    family.extend(make_u_k(k) for k in range(1, 5))
    thresholds = []
    seen = set()
    for w in normalized_widths:
        if ZERO < w <= Fraction(1, 2) and w not in seen:
            seen.add(w)
            thresholds.append(make_f0(w))
    family.extend(thresholds)
    # A few compositions: thresholding before the coarsest staircases picks
    # up instances where neither member alone exceeds the volume bound.
    u1, u2 = make_u_k(1), make_u_k(2)
    for threshold in thresholds[:3]:
        family.append(compose(u1, threshold))
        family.append(compose(u2, threshold))
    return family


def is_dual_feasible_on_samples(f: DFF, denominator: int = 24) -> bool:
    """Test helper: check the DFF property on every multiset of fractions
    ``i/denominator`` whose sum is at most 1 (sound sampling, not a proof of
    dual feasibility for arbitrary reals)."""
    values = [Fraction(i, denominator) for i in range(denominator + 1)]
    images = [f(v) for v in values]

    def check(start: int, budget: Fraction, image_sum: Fraction) -> bool:
        if image_sum > ONE:
            return False
        for i in range(start, denominator + 1):
            if values[i] > budget:
                break
            if not check(i, budget - values[i], image_sum + images[i]):
                return False
        return True

    return check(1, ONE, ZERO)
