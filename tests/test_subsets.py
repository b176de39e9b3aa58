import math

import numpy as np
import pytest

from conftest import product_cdf
from relaysec import CancellationError, ConfigError, closedform, signed_sum, subset_terms, subsets
from relaysec.subsets import SignedSubsetTerm


def terms_list(weights, exclude=None):
    return list(subset_terms(weights, exclude=exclude))


class TestEnumeration:
    def test_exclusion_example(self):
        a, b, c = 0.3, 0.7, 1.9
        got = [(t.sign, t.beta_prime, t.cardinality) for t in terms_list([a, b, c], exclude=2)]
        assert got == [(-1, a, 1), (-1, c, 1), (1, a + c, 2)]

    def test_excluding_the_only_index_is_empty(self):
        assert terms_list([1.0], exclude=1) == []

    def test_pair_without_exclusion(self):
        a, b = 0.4, 1.1
        got = [(t.sign, t.beta_prime, t.cardinality) for t in terms_list([a, b])]
        assert got == [(-1, a, 1), (-1, b, 1), (1, a + b, 2)]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_term_count_and_uniqueness(self, n):
        rng = np.random.default_rng(n)
        weights = rng.uniform(0.1, 5.0, size=n).tolist()
        terms = terms_list(weights)
        assert len(terms) == 2**n - 1
        # every subset appears once: cardinalities follow binomial counts
        for m in range(1, n + 1):
            assert sum(1 for t in terms if t.cardinality == m) == math.comb(n, m)
        for t in terms:
            assert t.sign == (-1) ** t.cardinality

    def test_exclusion_matches_removed_list(self):
        rng = np.random.default_rng(9)
        weights = rng.uniform(0.1, 3.0, size=6).tolist()
        for k in range(1, 7):
            with_excl = [(t.sign, t.beta_prime, t.cardinality) for t in terms_list(weights, exclude=k)]
            removed = weights[: k - 1] + weights[k:]
            plain = [(t.sign, t.beta_prime, t.cardinality) for t in terms_list(removed)]
            assert with_excl == plain

    def test_more_than_ten_effective_weights_are_refused(self):
        with pytest.raises(ConfigError, match="cap of 10"):
            terms_list([1.0] * 11)

    def test_cap_counts_effective_weights_after_exclusion(self):
        assert len(terms_list([1.0 + i for i in range(11)], exclude=4)) == 1023

    def test_closed_forms_stay_within_the_cap(self):
        # A relay's subset sum ranges over the other N - 1 relays.
        assert closedform._SUM_MAX_RELAYS - 1 <= subsets._MAX_WEIGHTS

    def test_rejects_bad_weights(self):
        for weights, exclude in [([], None), ([1.0, -2.0], None), ([1.0, math.nan], None),
                                 ([1.0], 3), ([1.0, 2.0], 0)]:
            with pytest.raises(ConfigError):
                terms_list(weights, exclude=exclude)


def reference_terms(weights, exclude=None):
    """The per-mask loop form of the enumeration: each mask's bits summed in
    ascending index order, masks in binary counter order."""
    w = [float(x) for x in weights]
    if exclude is not None:
        w = w[: exclude - 1] + w[exclude:]
    n = len(w)
    for mask in range(1, 1 << n):
        total = 0.0
        card = 0
        for i in range(n):
            if mask & (1 << i):
                total += w[i]
                card += 1
        yield (-1 if card & 1 else 1, total, card)


class TestEnumerationReference:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_terms_match_the_per_mask_loop_bit_for_bit(self, n):
        # Weights over six decades, so a different association of the same
        # additions would round differently.
        rng = np.random.default_rng(100 + n)
        weights = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=n)).tolist()
        for exclude in [None, *range(1, n + 1)]:
            got = [(t.sign, t.beta_prime, t.cardinality) for t in terms_list(weights, exclude)]
            assert got == list(reference_terms(weights, exclude)), exclude

    def test_term_is_an_immutable_named_record(self):
        term = terms_list([0.5])[0]
        assert type(term) is SignedSubsetTerm
        assert term == SignedSubsetTerm(sign=-1, beta_prime=0.5, cardinality=1)
        assert SignedSubsetTerm._fields == ("sign", "beta_prime", "cardinality")
        with pytest.raises(AttributeError):
            term.sign = 1


class TestSignedSum:
    def test_counting_with_signs(self):
        assert signed_sum(subset_terms([0.4, 1.1]), lambda t: 1.0) == -1.0

    def test_exp_at_zero_matches_counting(self):
        total = signed_sum(subset_terms([0.4, 1.1]), lambda t: math.exp(-0.0 * t.beta_prime))
        assert total == -1.0

    def test_cdf_reconstruction_pair(self):
        # max of two unit-rate exponentials at x = ln 2: CDF is (1 - 1/2)^2
        x = math.log(2.0)
        total = 1.0 + signed_sum(subset_terms([1.0, 1.0]), lambda t: math.exp(-x * t.beta_prime))
        assert total == pytest.approx(0.25, rel=1e-12, abs=0.0)

    def test_cdf_reconstruction_fuzz(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            weights = rng.uniform(0.5, 2.0, size=n).tolist()
            x = float(rng.uniform(1.5, 4.0))
            rebuilt = 1.0 + signed_sum(
                subset_terms(weights), lambda t: math.exp(-x * t.beta_prime)
            )
            assert rebuilt == pytest.approx(product_cdf(weights, x), rel=1e-10, abs=0.0)

    def test_propagates_nonfinite_values(self):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(CancellationError, match="non-finite"):
                signed_sum(subset_terms([1.0, 2.0]), lambda t: value)
