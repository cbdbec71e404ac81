"""Chain construction, stationary solves and the collapse identity."""

import math
import random

import numpy as np
import pytest

from mpslink import (
    collapse,
    collapsed_chain,
    full_chain,
    mps_rate,
    rate_from_stationary,
    stationary,
    stationary_as_dict,
    stationary_closed_prob,
    stationary_open_prob,
)

P_GRID = (0.01, 0.1, 0.3, 0.5, 0.9, 0.99)


def dense(chain):
    """The chain's transition matrix as a dense array, summed from its CSR arrays."""
    rows = np.repeat(np.arange(chain.num_states), np.diff(chain.indptr))
    matrix = np.zeros((chain.num_states, chain.num_states))
    np.add.at(matrix, (rows, chain.indices), chain.data)
    return matrix


def assert_csr_structure(chain, nnz):
    """The CSR arrays are well formed: ``nnz`` stored entries, rows in order,
    each row's columns strictly increasing and inside the state space."""
    indptr, indices = chain.indptr, chain.indices
    assert len(chain.data) == len(indices) == nnz
    assert indptr[0] == 0 and indptr[-1] == nnz
    assert np.all(np.diff(indptr) >= 0)
    for row in range(chain.num_states):
        cols = indices[indptr[row] : indptr[row + 1]]
        assert np.all((0 <= cols) & (cols < chain.num_states))
        assert np.all(np.diff(cols) > 0)


def stationary_power(chain, tol=1e-13, max_iter=1_000_000):
    """Independent oracle: power iteration on the half-lazy chain ``(I + T) / 2``.

    The lazy mixture shares the stationary vector of ``T`` but is aperiodic
    for every ``0 < p < 1``, so the iteration converges even near the
    periodic end.
    """
    pi = np.full(chain.num_states, 1.0 / chain.num_states)
    for _ in range(max_iter):
        nxt = 0.5 * (pi + chain.step(pi))
        nxt /= nxt.sum()
        if np.max(np.abs(chain.step(nxt) - nxt)) <= tol:
            return nxt
        pi = nxt
    raise ArithmeticError(f"power iteration did not reach residual {tol:.1e}")


def transition_rule_matrices(n, p):
    """Dense full and collapsed matrices, built one state at a time from the
    rule in the ``full_chain`` docstring."""
    q = 1.0 - p

    def idx(i, j):
        if i == 0 and j == 0:
            return 0
        if j == 0:
            return i
        if i == 0:
            return n + j
        return 2 * n + i

    full = np.zeros((3 * n + 1, 3 * n + 1))
    full[0, idx(0, 0)] = q * q
    full[0, idx(n, 0)] = p * q
    full[0, idx(0, n)] = p * q
    full[0, idx(n, n)] = p * p
    for state in ((1, 0), (0, 1), (1, 1)):
        full[idx(*state), 0] = 1.0
    for i in range(2, n + 1):
        full[idx(i, 0), idx(i - 1, 0)] = q
        full[idx(0, i), idx(0, i - 1)] = q
        full[idx(i, 0), idx(i - 1, i - 1)] = p
        full[idx(0, i), idx(i - 1, i - 1)] = p
        full[idx(i, i), idx(i - 1, i - 1)] = 1.0

    small = np.zeros((n + 1, n + 1))
    small[0, 0] = q * q
    small[0, n] = 2.0 * p - p * p
    for i in range(1, n + 1):
        small[i, i - 1] = 1.0
    return full, small


class TestChainConstruction:
    def test_state_count(self):
        for n in (1, 2, 5, 17):
            assert full_chain(n, 0.5).num_states == 3 * n + 1
            assert collapsed_chain(n, 0.5).num_states == n + 1

    def test_n1_half_row(self):
        chain = full_chain(1, 0.5)
        row = dense(chain)[0]
        by_label = dict(zip(chain.labels, row))
        assert by_label == {"(0,0)": 0.25, "(1,0)": 0.25, "(0,1)": 0.25, "(1,1)": 0.25}

    def test_n2_quarter_matrix_pinned(self):
        """Every entry of the n=2, p=1/4 chain, written out from the rule in
        the ``full_chain`` docstring (q = 3/4)."""
        chain = full_chain(2, 0.25)
        assert chain.labels == ("(0,0)", "(1,0)", "(2,0)", "(0,1)", "(0,2)", "(1,1)", "(2,2)")
        expected = np.array([
            # (0,0)  (1,0)  (2,0)   (0,1)  (0,2)   (1,1)  (2,2)
            [0.5625, 0.0, 0.1875, 0.0, 0.1875, 0.0, 0.0625],  # (0,0): q², pq, pq, p²
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # (1,0): reopen, herald discarded
            [0.0, 0.75, 0.0, 0.0, 0.0, 0.25, 0.0],  # (2,0): wait q, joined p
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # (0,1)
            [0.0, 0.0, 0.0, 0.75, 0.0, 0.25, 0.0],  # (0,2)
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # (1,1)
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],  # (2,2)
        ])
        assert np.array_equal(dense(chain), expected)
        assert len(chain.data) == np.count_nonzero(expected)
        assert chain.labels.index("(2,2)") == 6

    def test_rows_stochastic(self):
        for n in (1, 3, 10, 40):
            for p in P_GRID:
                sums = dense(full_chain(n, p)).sum(axis=1)
                assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_p_zero_open_state_absorbing(self):
        chain = full_chain(3, 0.0)
        row = dense(chain)[0]
        assert row[0] == 1.0
        assert row[1:].sum() == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            full_chain(0, 0.5)
        with pytest.raises(ValueError):
            full_chain(3, 1.5)
        # the rule SimConfig applies to n as well: an int, and not a bool
        for bad_n in (True, 2.0, 2.5):
            for build in (full_chain, collapsed_chain):
                with pytest.raises(ValueError, match="n must be an integer"):
                    build(bad_n, 0.5)

    def test_builders_match_transition_rule_loop(self):
        """The vectorised builders equal the rule applied one state at a time,
        and store every entry the rule writes (zeros too at p in {0, 1})."""
        for n in (1, 2, 3, 7, 20):
            for p in (0.0, *P_GRID, 1.0):
                full, small = transition_rule_matrices(n, p)
                for chain, expected, nnz in (
                    (full_chain(n, p), full, 5 * n + 2),
                    (collapsed_chain(n, p), small, n + 2),
                ):
                    assert np.array_equal(dense(chain), expected)
                    assert_csr_structure(chain, nnz)
                    pi = np.linspace(1.0, 2.0, chain.num_states)
                    assert np.allclose(chain.step(pi), pi @ expected, rtol=1e-14, atol=0.0)

    def test_transition_level_collapse(self):
        """Summing full-chain rows over each waiting class reproduces the
        collapsed chain exactly, for every source state (strong lumping)."""
        for n in (2, 5):
            for p in (0.2, 0.5, 0.77):
                full = dense(full_chain(n, p))
                small = dense(collapsed_chain(n, p))

                def row_class(index):
                    if index == 0:
                        return 0
                    return (index - 1) % n + 1

                for src in range(3 * n + 1):
                    collapsed_row = np.zeros(n + 1)
                    for dst in range(3 * n + 1):
                        collapsed_row[row_class(dst)] += full[src, dst]
                    assert np.allclose(collapsed_row, small[row_class(src)], atol=1e-12)


class TestStationary:
    def test_pinned_value_n2_half(self):
        pi = stationary(full_chain(2, 0.5))
        assert pi[0] == pytest.approx(0.4, abs=1e-12)

    def test_degenerate_p_one_alternation(self):
        pi = stationary(full_chain(1, 1.0))
        assert pi[0] == 0.5

    def test_degenerate_p_zero(self):
        pi = stationary(full_chain(4, 0.0))
        assert pi[0] == 1.0
        assert pi[1:].sum() == 0.0

    def test_large_chain_cross_check(self):
        # closed-form route: 1 / (1 + 500 * 0.0199) = 0.0913242...
        pi = stationary(full_chain(500, 0.01))
        assert pi[0] == pytest.approx(0.091324200913242, abs=1e-5)

    def test_residual_small(self):
        for n in (1, 7, 30):
            for p in (0.05, 0.5, 0.95):
                chain = full_chain(n, p)
                pi = stationary(chain)
                residual = np.max(np.abs(chain.step(pi) - pi))
                assert residual <= 1e-12

    def test_sizes_where_dense_lu_failed(self):
        # A dense LU solve of this chain returned negative probabilities here.
        for n in (1000, 1333):
            pi = stationary(full_chain(n, 0.3))
            assert pi.min() >= 0.0
            assert abs(pi[0] - stationary_open_prob(n, 0.3)) <= 1e-12

    def test_large_n_residual(self):
        for p in (0.01, 0.3):
            chain = full_chain(100_000, p)
            pi = stationary(chain)
            assert np.max(np.abs(chain.step(pi) - pi)) <= 1e-12
            assert abs(pi[0] - stationary_open_prob(100_000, p)) <= 1e-12

    def test_power_iteration_agrees(self):
        for n in (1, 5, 20):
            for p in (0.05, 0.5, 0.99):
                chain = full_chain(n, p)
                direct = stationary(chain)
                iterated = stationary_power(chain)
                assert np.max(np.abs(direct - iterated)) <= 1e-10


class TestClosedForms:
    def test_pinned_values(self):
        assert stationary_open_prob(1, 1.0) == 0.5
        assert stationary_open_prob(2, 0.5) == pytest.approx(0.4, abs=1e-15)
        assert stationary_open_prob(500, 0.01) == pytest.approx(0.091324200913242, rel=1e-12)

    def test_tail_probability(self):
        pi0 = stationary_open_prob(2, 0.5)
        assert stationary_closed_prob(2, 0.5) == pytest.approx((1 - pi0) / 2, rel=1e-12)

    def test_matches_numeric_on_grid(self):
        for n in range(1, 21):
            for p in P_GRID:
                pi = stationary(full_chain(n, p))
                assert abs(pi[0] - stationary_open_prob(n, p)) <= 1e-10


class TestCollapse:
    def test_stationary_collapse_pinned(self):
        pi = stationary(full_chain(2, 0.5))
        assert np.allclose(collapse(pi, 2), [0.4, 0.3, 0.3], atol=1e-12)

    def test_uniform_vector(self):
        n = 3
        uniform = np.full(3 * n + 1, 1.0 / (3 * n + 1))
        collapsed = collapse(uniform, n)
        assert collapsed[0] == pytest.approx(1.0 / (3 * n + 1), rel=1e-12)
        assert np.allclose(collapsed[1:], 3.0 / (3 * n + 1), atol=1e-15)

    def test_p_zero_limit(self):
        collapsed = collapse(stationary(full_chain(5, 0.0)), 5)
        assert collapsed[0] == 1.0
        assert collapsed[1:].sum() == 0.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            collapse(np.ones(5), 2)

    def test_matches_waiting_state_closed_form(self):
        for n in (1, 4, 12, 33):
            for p in P_GRID:
                collapsed = collapse(stationary(full_chain(n, p)), n)
                expected = stationary_closed_prob(n, p)
                assert np.max(np.abs(collapsed[1:] - expected)) <= 1e-10

    def test_direct_collapsed_chain_has_same_stationary(self):
        for n in (1, 6, 25):
            for p in (0.0, *P_GRID, 1.0):
                via_full = collapse(stationary(full_chain(n, p)), n)
                direct = stationary(collapsed_chain(n, p))
                assert np.max(np.abs(via_full - direct)) <= 1e-10


class TestRateFromStationary:
    def test_pinned_value(self):
        rate = rate_from_stationary(stationary_open_prob(500, 0.01), 1e-4, 500e-9)
        assert rate == pytest.approx(18.26, abs=0.01)

    def test_unit_case(self):
        assert rate_from_stationary(1.0, 1.0, 1.0) == 1.0

    def test_numeric_route_matches_closed_form_route(self):
        pi = stationary(full_chain(500, 0.01))
        numeric = rate_from_stationary(float(pi[0]), 1e-4, 500e-9)
        closed = rate_from_stationary(stationary_open_prob(500, 0.01), 1e-4, 500e-9)
        assert numeric == pytest.approx(closed, rel=1e-10)

    def test_matches_rate_formula(self):
        for n in (1, 10, 50):
            for p in (0.01, 0.3, 0.9):
                beta_2 = p * p
                tau_c = 500e-9
                via_chain = rate_from_stationary(stationary_open_prob(n, p), beta_2, tau_c)
                assert mps_rate(beta_2, n * tau_c, n) == pytest.approx(via_chain, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rate_from_stationary(0.5, 1e-4, 0.0)
        with pytest.raises(ValueError):
            rate_from_stationary(1.5, 1e-4, 1.0)


class TestRandomWalkFlux:
    def test_flux_matches_transition_frequency(self):
        """Long-run frequency of the pair-producing transition equals
        p**2 * pi(0,0) within 3 standard errors (block estimate)."""
        n, p, steps = 4, 0.3, 1_000_000
        chain = full_chain(n, p)
        matrix = dense(chain)
        cumulative = np.cumsum(matrix, axis=1)
        target = chain.labels.index(f"({n},{n})")

        rng = random.Random(20240601)
        state = 0
        block_rates = []
        hits = 0
        block_size = 20_000
        for step in range(steps):
            nxt = int(np.searchsorted(cumulative[state], rng.random(), side="right"))
            if state == 0 and nxt == target:
                hits += 1
            state = nxt
            if (step + 1) % block_size == 0:
                block_rates.append(hits / block_size)
                hits = 0

        block_rates = np.array(block_rates)
        mean = block_rates.mean()
        stderr = block_rates.std(ddof=1) / math.sqrt(len(block_rates))
        expected = p * p * stationary_open_prob(n, p)
        assert abs(mean - expected) <= 3.0 * stderr


class TestJsonExport:
    def test_stationary_labels(self):
        chain = full_chain(2, 0.5)
        mapping = stationary_as_dict(chain, stationary(chain))
        assert mapping["(0,0)"] == pytest.approx(0.4, abs=1e-12)
        assert sum(mapping.values()) == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch_rejected(self):
        chain = full_chain(2, 0.5)
        with pytest.raises(ValueError):
            stationary_as_dict(chain, np.ones(3))
