"""Markov-chain model of the two-receiver control protocol.

The state of the link is the pair of remaining closed cycles at the left
and right receiver.  With timeout length ``n`` the reachable labels are
``(0,0)`` (both open), ``(i,0)`` and ``(0,i)`` (one side holding a herald
for ``i`` more cycles) and ``(i,i)`` (both closed), giving ``3n + 1``
states.  ``p`` is the per-side herald probability per clock cycle.

Transitions encode the protocol with an omniscient observer: a lone herald
times out after ``n`` cycles unless the other side heralds meanwhile, in
which case both sides reopen together at the earlier deadline.  Collapsing
each row ``i`` into a single state yields an equivalent ``n + 1``-state
chain whose equilibrium is available in closed form.

Every state but ``(0,0)`` moves one cycle closer to reopening, so the chain
is a ring with a single branch point.  ``stationary`` walks that ring in
O(n) time and memory instead of solving a linear system.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Largest accepted max |pi T - pi| of a stationary vector.
_RESIDUAL_TOL = 1e-12


def _check_n(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")


def _check_p(p: float) -> None:
    if not math.isfinite(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")


@dataclass(frozen=True, eq=False)
class Chain:
    """Immutable chain: row-stochastic transitions as CSR arrays, labelled on demand.

    Row ``i`` holds ``data[indptr[i]:indptr[i+1]]`` at columns
    ``indices[indptr[i]:indptr[i+1]]``; entries may be explicit zeros.
    """

    n: int
    p: float
    kind: str  # "full" or "collapsed"
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def num_states(self) -> int:
        return len(self.indptr) - 1

    def step(self, pi: np.ndarray) -> np.ndarray:
        """One step of the chain: the row vector ``pi @ T``."""
        weights = np.repeat(pi, np.diff(self.indptr)) * self.data
        return np.bincount(self.indices, weights, minlength=self.num_states)

    @property
    def labels(self) -> tuple[str, ...]:
        rows = range(1, self.n + 1)
        if self.kind == "collapsed":
            return ("[0]", *(f"[{i}]" for i in rows))
        return (
            "(0,0)",
            *(f"({i},0)" for i in rows),
            *(f"(0,{i})" for i in rows),
            *(f"({i},{i})" for i in rows),
        )


def full_chain(n: int, p: float) -> Chain:
    """Build the ``3n + 1``-state chain of the two-receiver protocol.

    States are indexed ``(0,0)`` = 0, ``(i,0)`` = i, ``(0,i)`` = n + i and
    ``(i,i)`` = 2n + i.  From ``(0,0)`` a cycle yields two heralds with
    probability ``p**2`` (both close for ``n`` cycles), one herald with
    ``p(1-p)`` each side, or none.  While one side is closed the open side's
    herald drags both onto the diagonal; a herald during the final closed
    cycle is discarded so the pair of receivers still reopens together.

    The CSR arrays are filled in place, row by row with sorted columns:
    ``(0,0)`` has four entries, every row-1 state one (it reopens),
    ``(i,0)`` and ``(0,i)`` two for ``i > 1``, and ``(i,i)`` one.
    """
    _check_n(n)
    _check_p(p)
    q = 1.0 - p
    size, nnz = 3 * n + 1, 5 * n + 2
    counts = np.ones(size, dtype=np.intp)
    counts[0] = 4
    counts[2 : n + 1] = counts[n + 2 : 2 * n + 1] = 2
    indptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    indices, data = np.empty(nnz, dtype=np.intp), np.empty(nnz)
    indices[:4], data[:4] = (0, n, 2 * n, 3 * n), (q * q, p * q, p * q, p * p)
    i = np.arange(2, n + 1)
    for start, offset in ((4, 0), (2 * n + 3, n)):  # (i,0) rows, then (0,i) rows
        indices[start], data[start] = 0, 1.0  # row 1 reopens
        pairs = indices[start + 1 : start + 2 * n - 1].reshape(-1, 2)
        pairs[:, 0], pairs[:, 1] = offset + i - 1, 2 * n + i - 1  # one step down, diagonal
        data[start + 1 : start + 2 * n - 1].reshape(-1, 2)[:] = (q, p)
    indices[4 * n + 2], indices[4 * n + 3 :] = 0, 2 * n + i - 1  # (i,i) -> (i-1,i-1)
    data[4 * n + 2 :] = 1.0
    return Chain(n=n, p=p, kind="full", indptr=indptr, indices=indices, data=data)


def collapsed_chain(n: int, p: float) -> Chain:
    """Build the ``n + 1``-state chain over the time until both sides are open."""
    _check_n(n)
    _check_p(p)
    indptr = np.concatenate(([0], np.arange(2, n + 3)))
    indices = np.concatenate(([0, n], np.arange(n)))  # [i] -> [i-1]
    data = np.ones(n + 2)
    data[:2] = (1.0 - p) ** 2, 2.0 * p - p * p
    return Chain(n=n, p=p, kind="collapsed", indptr=indptr, indices=indices, data=data)


def stationary(chain: Chain) -> np.ndarray:
    """Stationary distribution by the ring recurrence, checked on ``pi T = pi``.

    With ``pi(0,0) = 1`` and ``q = 1 - p``, the states that wait on one side
    hold ``pi(i,0) = pi(0,i) = p q**(n-i+1)``; the diagonal starts at
    ``pi(n,n) = p**2`` and gains ``2p pi(i+1,0)`` per row on its way down.
    In the collapsed chain every waiting state holds ``2p - p**2``.  Only
    sums of non-negative terms occur, so ``p in {0, 1}`` (absorbing or
    periodic chain) come out exactly.  The vector is normalised last.
    """
    n, p = chain.n, chain.p
    if chain.kind == "collapsed":
        pi = np.full(n + 1, 2.0 * p - p * p)
        pi[0] = 1.0
    else:
        side = p * (1.0 - p) ** np.arange(n, 0, -1)
        both = np.cumsum(np.concatenate(([p * p], 2.0 * p * side[:0:-1])))[::-1]
        pi = np.concatenate(([1.0], side, side, both))
    pi /= pi.sum()
    residual = np.max(np.abs(chain.step(pi) - pi))
    if residual > _RESIDUAL_TOL:
        raise ArithmeticError(f"stationary residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e}")
    return pi


def stationary_open_prob(n: int, p: float) -> float:
    """Closed-form equilibrium probability of the both-open state."""
    _check_n(n)
    _check_p(p)
    return 1.0 / (1.0 + n * (2.0 * p - p * p))


def stationary_closed_prob(n: int, p: float) -> float:
    """Closed-form equilibrium probability of each waiting state ``[i]``, i > 0."""
    return (1.0 - stationary_open_prob(n, p)) / n


def collapse(full_distribution: np.ndarray, n: int) -> np.ndarray:
    """Sum a full-chain distribution row-wise onto the collapsed state space."""
    _check_n(n)
    vec = np.asarray(full_distribution, dtype=float)
    if vec.shape != (3 * n + 1,):
        raise ValueError(f"expected a vector of length {3 * n + 1}, got shape {vec.shape}")
    return np.concatenate((vec[:1], vec[1:].reshape(3, n).sum(axis=0)))


def rate_from_stationary(pi00: float, beta_2: float, tau_c_s: float) -> float:
    """Pairs per second from the equilibrium flux out of the both-open state."""
    if not 0.0 <= pi00 <= 1.0:
        raise ValueError(f"pi00 must lie in [0, 1], got {pi00!r}")
    if not 0.0 <= beta_2 <= 1.0:
        raise ValueError(f"beta_2 must lie in [0, 1], got {beta_2!r}")
    if not tau_c_s > 0.0:
        raise ValueError(f"tau_c_s must be positive, got {tau_c_s!r}")
    return beta_2 * pi00 / tau_c_s


def stationary_as_dict(chain: Chain, pi: np.ndarray) -> dict[str, float]:
    """Map state labels to probabilities, e.g. for JSON debugging dumps."""
    if len(pi) != chain.num_states:
        raise ValueError("distribution length does not match the chain")
    return {label: float(value) for label, value in zip(chain.labels, pi)}
