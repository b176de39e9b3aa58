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
list pass per index doubles a table of totals, one addition per term.

An enumeration takes at most 10 weights (1,023 terms).  The closed forms
sum over subsets only up to 5 relays, so they never ask for more than 4;
larger relay counts are integrated in product form instead, since 2^n terms
cost too much and cancel too deeply in float64.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple

from .params import CancellationError, ConfigError

__all__ = ["SignedSubsetTerm", "subset_terms", "signed_sum"]

# Most effective weights one enumeration takes (see the module docstring).
_MAX_WEIGHTS = 10
# Cardinality and sign of each mask in counter order; an enumeration over
# fewer weights reads a prefix of these.
_CARDS = [mask.bit_count() for mask in range(1 << _MAX_WEIGHTS)]
_SIGNS = [-1 if c & 1 else 1 for c in _CARDS]


class SignedSubsetTerm(NamedTuple):
    """One subset's contribution: sign (-1)^|A|, aggregate weight, and |A|."""

    sign: int
    beta_prime: float
    cardinality: int


def subset_terms(
    weights: Iterable[float],
    exclude: int | None = None,
) -> Iterator[SignedSubsetTerm]:
    """Yield one term per non-empty subset of the (possibly reduced) index set.

    `exclude`, when given, is a 1-based index removed before enumeration, so
    the stream ranges over subsets of the remaining indices.  Exactly
    2^n - 1 terms are produced for n effective indices; excluding the only
    index yields an empty stream (the max over nothing is degenerate at 0).
    Bad weights, a bad `exclude` and more than 10 effective indices raise
    ConfigError.
    """
    w = [float(x) for x in weights]
    n_all = len(w)
    if n_all < 1:
        raise ConfigError("weights must be non-empty")
    for x in w:
        if not math.isfinite(x) or x <= 0.0:
            raise ConfigError(f"weights must be positive finite reals, got {x!r}")
    if exclude is not None:
        if not 1 <= exclude <= n_all:
            raise ConfigError(f"exclude index {exclude} out of range 1..{n_all}")
        w = w[: exclude - 1] + w[exclude:]
    n = len(w)
    if n > _MAX_WEIGHTS:
        raise ConfigError(
            f"{n} effective weights exceed the cap of {_MAX_WEIGHTS} "
            f"(2^{n} - 1 subset terms)"
        )
    # totals[mask] by doubling (see the module docstring).
    totals = [0.0]
    for x in w:
        totals += [t + x for t in totals]
    rows = zip(_SIGNS, totals, _CARDS)
    next(rows)  # the empty subset
    # tuple.__new__ skips the keyword-handling constructor.
    yield from map(tuple.__new__, repeat(SignedSubsetTerm), rows)


def signed_sum(
    terms: Iterable[SignedSubsetTerm],
    f: Callable[[SignedSubsetTerm], float],
) -> float:
    """Compensated (Neumaier) accumulation of sign * f(term) over the stream.

    Deterministic for a deterministic stream order.  Raises
    CancellationError if f produces a non-finite value.
    """
    total = 0.0
    comp = 0.0
    for term in terms:
        value = f(term)
        if not math.isfinite(value):
            raise CancellationError(f"term {term} evaluated to non-finite {value!r}")
        addend = term.sign * value
        fresh = total + addend
        if abs(total) >= abs(addend):
            comp += (total - fresh) + addend
        else:
            comp += (addend - fresh) + total
        total = fresh
    return total + comp
