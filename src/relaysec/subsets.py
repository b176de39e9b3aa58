"""Signed subset sums over relay-index subsets.

The CDF of the maximum of independent exponentials expands, by inclusion and
exclusion, into an alternating sum of exponentials whose rates are subset
aggregates of the per-relay rates:

    prod_i (1 - e^(-w_i x)) = 1 + sum_{A != {}} (-1)^|A| e^(-x * sum_{i in A} w_i)

Every multi-relay closed form consumes these terms, either over all indices
or with one index (the candidate relay) excluded.  Enumeration is in binary
counter order over the index bitmask, so a given weight vector always yields
the same term sequence and bit-for-bit reproducible sums.

Each aggregate is summed in ascending index order, left to right, exactly as
a loop over the mask's bits would, but the sums are shared rather than redone:
the masks whose highest set bit is i are the lower masks plus w_i, so one
list pass per index doubles a table of totals over the low indices (at most
2^10 of them), one addition per term.  Masks with higher bits set reuse that
table one block of 2^10 at a time, adding the block's high weights in
ascending order, one more addition per term for each high index the mask
holds.  An enumeration holds at most a few blocks in memory however many
weights it ranges over.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple

__all__ = ["SignedSubsetTerm", "subset_terms", "signed_sum", "DEFAULT_MAX_WEIGHTS"]

# Beyond ~20 indices the 2^n term count explodes and alternating-sign
# cancellation destroys accuracy; callers must opt in explicitly.
DEFAULT_MAX_WEIGHTS = 20

# Low indices whose aggregates are tabulated; higher ones extend the table
# block by block.
_TABLE_BITS = 10
# Cardinality and sign of each mask below 2^_TABLE_BITS in counter order; a
# table over fewer low indices is a prefix of these.
_CARDS = [mask.bit_count() for mask in range(1 << _TABLE_BITS)]
_SIGNS = [-1 if c & 1 else 1 for c in _CARDS]
_FLIPPED = [-s for s in _SIGNS]


class SubsetSizeError(ValueError):
    """Weight vector larger than the configured enumeration cap."""


class EvaluationError(ArithmeticError):
    """A term evaluated to a non-finite value."""


class SignedSubsetTerm(NamedTuple):
    """One subset's contribution: sign (-1)^|A|, aggregate weight, and |A|."""

    sign: int
    beta_prime: float
    cardinality: int


def subset_terms(
    weights: Iterable[float],
    exclude: int | None = None,
    max_weights: int = DEFAULT_MAX_WEIGHTS,
) -> Iterator[SignedSubsetTerm]:
    """Yield one term per non-empty subset of the (possibly reduced) index set.

    `exclude`, when given, is a 1-based index removed before enumeration, so
    the stream ranges over subsets of the remaining indices.  Exactly
    2^n - 1 terms are produced for n effective indices; excluding the only
    index yields an empty stream (the max over nothing is degenerate at 0).
    """
    w = [float(x) for x in weights]
    n_all = len(w)
    if n_all < 1:
        raise ValueError("weights must be non-empty")
    for x in w:
        if not math.isfinite(x) or x <= 0.0:
            raise ValueError(f"weights must be positive finite reals, got {x!r}")
    if exclude is not None:
        if not 1 <= exclude <= n_all:
            raise ValueError(f"exclude index {exclude} out of range 1..{n_all}")
        w = w[: exclude - 1] + w[exclude:]
    n = len(w)
    if n > max_weights:
        raise SubsetSizeError(
            f"{n} effective weights exceed the cap of {max_weights} "
            f"(2^{n} - 1 subset terms); raise max_weights to override"
        )
    low = min(n, _TABLE_BITS)
    # totals[mask] for mask < 2^low, by doubling (see the module docstring).
    totals = [0.0]
    for x in w[:low]:
        totals += [t + x for t in totals]
    high = w[low:]
    for hi in range(1 << len(high)):
        # Masks hi * 2^low + lo, lo ascending: hi's weights follow the low
        # ones, so they are added to each low total in ascending order.
        block = totals
        for j, x in enumerate(high):
            if hi >> j & 1:
                block = [t + x for t in block]
        extra = hi.bit_count()
        rows = zip(
            _FLIPPED if extra & 1 else _SIGNS,
            block,
            map(add, _CARDS, repeat(extra)) if extra else _CARDS,
        )
        if not hi:
            next(rows)  # the empty subset
        # tuple.__new__ skips the keyword-handling constructor.
        yield from map(tuple.__new__, repeat(SignedSubsetTerm), rows)


def signed_sum(
    terms: Iterable[SignedSubsetTerm],
    f: Callable[[SignedSubsetTerm], float],
) -> float:
    """Compensated (Neumaier) accumulation of sign * f(term) over the stream.

    Deterministic for a deterministic stream order.  Raises EvaluationError
    if f produces a non-finite value.
    """
    total = 0.0
    comp = 0.0
    for term in terms:
        value = f(term)
        if not math.isfinite(value):
            raise EvaluationError(f"term {term} evaluated to non-finite {value!r}")
        addend = term.sign * value
        fresh = total + addend
        if abs(total) >= abs(addend):
            comp += (total - fresh) + addend
        else:
            comp += (addend - fresh) + total
        total = fresh
    return total + comp
