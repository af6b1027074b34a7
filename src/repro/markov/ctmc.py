"""Continuous-time Markov chains: steady state and transient analysis.

The Markov side of the paper's comparison.  Provides:

* :class:`CTMC` — wraps a generator matrix ``Q`` with validation;
* :meth:`CTMC.steady_state` — exact stationary distribution via a
  replaced-normalisation linear solve (with an eigenvector fallback for
  reducible chains);
* :meth:`CTMC.transient` — transient distribution by uniformization
  (Jensen's method) with adaptive truncation;
* :meth:`CTMC.mean_first_passage` — expected hitting times;
* :meth:`CTMC.embedded_dtmc` — the jump chain.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["CTMC"]


class CTMC:
    """A finite continuous-time Markov chain.

    Parameters
    ----------
    Q:
        Generator matrix: off-diagonal ≥ 0, rows sum to 0.
    labels:
        Optional state labels (any hashables), index-aligned.
    atol:
        Validation tolerance.
    """

    def __init__(
        self,
        Q: np.ndarray,
        labels: list | None = None,
        atol: float = 1e-9,
    ) -> None:
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        off = Q.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < -atol):
            raise ValueError("off-diagonal generator entries must be >= 0")
        if np.any(np.abs(Q.sum(axis=1)) > max(atol, atol * np.abs(Q).max())):
            raise ValueError("generator rows must sum to zero")
        self.Q = Q
        self.n = Q.shape[0]
        if labels is not None and len(labels) != self.n:
            raise ValueError(
                f"labels length {len(labels)} != number of states {self.n}"
            )
        self.labels = list(labels) if labels is not None else list(range(self.n))
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rates(
        cls, rates: dict[tuple, float], labels: list | None = None
    ) -> "CTMC":
        """Build from a ``{(from_label, to_label): rate}`` dict."""
        if labels is None:
            seen: list = []
            for (a, b) in rates:
                for lab in (a, b):
                    if lab not in seen:
                        seen.append(lab)
            labels = seen
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        Q = np.zeros((n, n))
        for (a, b), rate in rates.items():
            if rate < 0:
                raise ValueError(f"rate {a}->{b} must be >= 0, got {rate}")
            if a == b:
                continue
            Q[index[a], index[b]] += rate
        np.fill_diagonal(Q, -Q.sum(axis=1))
        return cls(Q, labels)

    def index_of(self, label) -> int:
        """State index of ``label``."""
        return self._index[label]

    # ------------------------------------------------------------------
    # Steady state
    # ------------------------------------------------------------------
    def steady_state(self) -> np.ndarray:
        """Stationary distribution π with πQ = 0, Σπ = 1.

        Solves the linear system with one balance equation replaced by
        the normalisation; falls back to the null-space eigenvector for
        singular systems (reducible chains pick the terminal class
        reachable mass — callers with reducible chains should restrict
        to a recurrent class first).
        """
        A = self.Q.T.copy()
        A[-1, :] = 1.0
        b = np.zeros(self.n)
        b[-1] = 1.0
        try:
            pi = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            pi = self._nullspace_pi()
        if np.any(pi < -1e-8):
            pi = self._nullspace_pi()
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if total <= 0:
            raise ValueError("could not normalise stationary distribution")
        return pi / total

    def _nullspace_pi(self) -> np.ndarray:
        from scipy import linalg as sla

        w, v = sla.eig(self.Q.T)
        i = int(np.argmin(np.abs(w)))
        pi = np.real(v[:, i])
        if pi.sum() < 0:
            pi = -pi
        return pi

    def probability(self, pi: np.ndarray, label) -> float:
        """π[label]."""
        return float(pi[self._index[label]])

    # ------------------------------------------------------------------
    # Transient analysis (uniformization)
    # ------------------------------------------------------------------
    def transient(
        self,
        p0: np.ndarray,
        t: float,
        epsilon: float = 1e-10,
    ) -> np.ndarray:
        """Distribution at time ``t`` from initial distribution ``p0``.

        Uses Jensen's uniformization: ``P(t) = Σ_k Poisson(Λt; k)·Pᵏ``
        with ``P = I + Q/Λ``; the series is truncated once the Poisson
        tail mass drops below ``epsilon``.
        """
        p0 = np.asarray(p0, dtype=float)
        if p0.shape != (self.n,):
            raise ValueError(f"p0 must have shape ({self.n},), got {p0.shape}")
        if not math.isclose(float(p0.sum()), 1.0, rel_tol=1e-8, abs_tol=1e-10):
            raise ValueError("p0 must sum to 1")
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        if t == 0:
            return p0.copy()
        lam = float(np.max(-np.diag(self.Q)))
        if lam <= 0:
            return p0.copy()  # absorbing-everything chain
        lam *= 1.02  # mild inflation for numerical headroom
        P = np.eye(self.n) + self.Q / lam
        x = lam * t
        # Poisson weights, built iteratively to avoid overflow.
        k = 0
        log_w = -x  # log Poisson(x; 0)
        w = math.exp(log_w) if log_w > -700 else 0.0
        term = p0.copy()
        acc = w * term
        cum = w
        while cum < 1.0 - epsilon:
            k += 1
            term = term @ P
            log_w += math.log(x) - math.log(k)
            w = math.exp(log_w) if log_w > -700 else 0.0
            acc += w * term
            cum += w
            if k > 100 * (x + 10):
                break  # defensive truncation
        return np.clip(acc, 0.0, None) / max(acc.sum(), 1e-300)

    def integrated_transient(
        self,
        p0: np.ndarray,
        t: float,
        epsilon: float = 1e-10,
    ) -> np.ndarray:
        """``∫₀ᵗ p(s) ds`` — expected time in each state over [0, t].

        Uniformization identity: with ``P = I + Q/Λ`` and
        ``v_k = p0·Pᵏ``,

        .. math::

            \\int_0^t p(s)\\,ds = \\frac{1}{\\Lambda}
                \\sum_{k \\ge 0} v_k \\; P(N_{\\Lambda t} > k)

        because ``∫₀ᵗ e^{-Λs}(Λs)^k/k!\\,ds = P(N_{Λt} ≥ k+1)/Λ``.
        The entries sum to ``t`` (total time is conserved).
        """
        p0 = np.asarray(p0, dtype=float)
        if p0.shape != (self.n,):
            raise ValueError(f"p0 must have shape ({self.n},), got {p0.shape}")
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        if t == 0:
            return np.zeros(self.n)
        lam = float(np.max(-np.diag(self.Q)))
        if lam <= 0:
            return p0 * t  # no transitions ever happen
        lam *= 1.02
        P = np.eye(self.n) + self.Q / lam
        x = lam * t
        k = 0
        log_w = -x
        w = math.exp(log_w) if log_w > -700 else 0.0
        cdf = w  # P(N <= k)
        term = p0.copy()
        acc = term * (1.0 - cdf)
        while (1.0 - cdf) * max(x - k, 1.0) > epsilon and k < 100 * (x + 10):
            k += 1
            term = term @ P
            log_w += math.log(x) - math.log(k)
            w = math.exp(log_w) if log_w > -700 else 0.0
            cdf += w
            acc += term * (1.0 - cdf)
        result = acc / lam
        # Normalise tiny truncation error so entries sum to exactly t.
        total = result.sum()
        if total > 0:
            result *= t / total
        return np.clip(result, 0.0, None)

    def accumulated_reward(
        self,
        p0: np.ndarray,
        t: float,
        rewards: dict,
        epsilon: float = 1e-10,
    ) -> float:
        """Expected accumulated reward ``E[∫₀ᵗ r(X_s) ds]``.

        With rewards = power draws this is the *transient* energy over
        [0, t] — the Markov-reward counterpart of Eq. (7), exact rather
        than steady-state-approximate.  Missing labels count as zero.
        """
        occupancy = self.integrated_transient(p0, t, epsilon)
        total = 0.0
        for lab, r in rewards.items():
            total += float(occupancy[self._index[lab]]) * float(r)
        return total

    # ------------------------------------------------------------------
    # Derived chains and metrics
    # ------------------------------------------------------------------
    def embedded_dtmc(self) -> np.ndarray:
        """Jump-chain transition matrix (absorbing states self-loop)."""
        P = np.zeros_like(self.Q)
        for i in range(self.n):
            out = -self.Q[i, i]
            if out <= 0:
                P[i, i] = 1.0
            else:
                P[i, :] = self.Q[i, :] / out
                P[i, i] = 0.0
        return P

    def holding_times(self) -> np.ndarray:
        """Expected sojourn time per state (inf for absorbing states)."""
        d = -np.diag(self.Q)
        with np.errstate(divide="ignore"):
            return np.where(d > 0, 1.0 / d, np.inf)

    def mean_first_passage(self, target) -> np.ndarray:
        """Expected time to hit ``target`` from every state.

        Solves ``Q_B h = -1`` over the non-target states B.
        """
        j = self._index[target]
        keep = [i for i in range(self.n) if i != j]
        QB = self.Q[np.ix_(keep, keep)]
        h = np.linalg.solve(QB, -np.ones(len(keep)))
        out = np.zeros(self.n)
        for pos, i in enumerate(keep):
            out[i] = h[pos]
        return out

    def expected_reward_rate(self, pi: np.ndarray, rewards: dict) -> float:
        """Long-run reward rate Σ π_s · reward(s).

        ``rewards`` maps labels to rates; missing labels count as zero.
        This is exactly the paper's Eq. (6)/(7) energy computation with
        rewards = power draws.
        """
        total = 0.0
        for lab, r in rewards.items():
            total += float(pi[self._index[lab]]) * float(r)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CTMC(n={self.n})"
