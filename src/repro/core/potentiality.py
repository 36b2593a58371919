"""Counterexample potentiality (Def. 1 of the paper).

The potentiality ``[[Γ]]`` of a BaB node Γ measures how likely the node's
sub-problem is to contain a real counterexample:

* ``-inf`` when the node is verified (``p̂ > 0``) — no counterexample can
  exist below it;
* ``+inf`` when the node's candidate counterexample is valid — a real
  counterexample has been found;
* otherwise a convex combination of two normalised attributes:
  ``λ · depth(Γ)/K  +  (1-λ) · p̂/p̂_min``, where ``K`` is the total number
  of ReLU neurons and ``p̂_min`` a normalisation constant.

The paper leaves the choice of ``p̂_min`` implicit; this implementation uses
the most negative ``p̂`` observed so far in the search (initially the root's
``p̂``), so that the second attribute stays within ``[0, 1]`` exactly as the
depth attribute does.  Both attributes increase with the likelihood of a
counterexample: deeper nodes carry less over-approximation, and more
negative bounds indicate stronger (apparent) violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require


def counterexample_potentiality(p_hat: float, is_valid_counterexample: bool,
                                depth: int, num_relu_neurons: int, lam: float,
                                p_hat_min: float) -> float:
    """Compute ``[[Γ]]`` per Def. 1.

    Parameters
    ----------
    p_hat:
        The AppVer evaluation of the node.
    is_valid_counterexample:
        Whether the candidate counterexample returned with ``p̂ < 0`` is real.
    depth:
        Node depth in the BaB tree (the root has depth 0).
    num_relu_neurons:
        ``K`` — total number of ReLU neurons in the network.
    lam:
        λ ∈ [0, 1], the weight of the depth attribute.
    p_hat_min:
        Normalisation constant for ``p̂`` (the most negative bound observed);
        must be negative whenever ``p_hat`` is negative.
    """
    scorer = PotentialityScorer(num_relu_neurons, lam, p_hat_min)
    require(depth >= 0, "depth must be non-negative")
    return scorer.score(p_hat, is_valid_counterexample, depth)


@dataclass
class PotentialityScorer:
    """Stateful scorer that tracks the normalisation constant ``p̂_min``.

    The scorer observes every AppVer result produced during a search and
    keeps ``p̂_min`` as the most negative bound seen, so potentiality values
    remain comparable across the whole tree.  ``λ`` and ``K`` are checked
    here, once, so :meth:`score` (once per bounded child) checks nothing.
    """

    num_relu_neurons: int
    lam: float
    p_hat_min: float = -1e-9

    def __post_init__(self) -> None:
        require(0.0 <= self.lam <= 1.0, "lam must be in [0, 1]")
        require(self.num_relu_neurons > 0,
                "the network must contain at least one ReLU neuron")

    def observe(self, p_hat: float) -> None:
        """Record a bound so the normalisation constant stays up to date."""
        if p_hat < self.p_hat_min and p_hat != float("-inf"):
            self.p_hat_min = float(p_hat)

    def score(self, p_hat: float, is_valid_counterexample: bool, depth: int) -> float:
        """Potentiality of a node with the current normalisation constant."""
        if p_hat > 0.0:
            return float("-inf")
        if p_hat < 0.0 and is_valid_counterexample:
            return float("inf")
        depth_term = min(depth / self.num_relu_neurons, 1.0)
        if self.p_hat_min >= 0.0 or p_hat >= 0.0:
            violation_term = 0.0
        else:
            violation_term = min(p_hat / self.p_hat_min, 1.0)
        return self.lam * depth_term + (1.0 - self.lam) * violation_term
