"""Evaluation policy: tolerances and node budgets shared by the quadrature
engines."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EvaluationPolicy:
    """Accuracy targets and a node cap for numerical evaluation.

    abs_tol / rel_tol are the convergence targets; an estimate is accepted
    once its error indicator drops below max(abs_tol, rel_tol * |value|).
    max_nodes caps the total number of integrand evaluations in one
    quadrature call.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_nodes: int = 60000

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_nodes < 8:
            raise ValueError("max_nodes must be at least 8")

    def target(self, scale: complex) -> float:
        """Accuracy target for a quantity of the given magnitude."""
        return max(self.abs_tol, self.rel_tol * abs(scale))


DEFAULT_POLICY = EvaluationPolicy()
