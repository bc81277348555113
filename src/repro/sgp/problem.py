"""The SGP problem container.

An SGP instance (Eq. 2) is

    minimize    f_0(x)
    subject to  f_i(x) ≤ 0,   i = 1..m
                0 < x_l ≤ x ≤ x_u

with each ``f_i`` a signomial.  (The paper writes ``f_i(x) ≤ 1``; the
two forms are interchangeable — our encoder produces difference-form
constraints ``S_other − S_best < 0`` directly, so ``≤ 0`` is the natural
normal form here.)

The objective is a :class:`SmoothObjective`: the minimal-change
distance of Eq. 12, or the multi-vote objective of Eq. 19, whose sigmoid
term is smooth but not signomial.  The constraints are compiled into
one :class:`StackedConstraints` before the solver sees them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.devtools.contracts import check_weight_bounds
from repro.errors import SGPModelError
from repro.sgp.terms import Signomial


class SmoothObjective:
    """A smooth objective given by a joint value-and-gradient callable.

    Parameters
    ----------
    fn:
        ``fn(x) -> (value, gradient)`` with a dense gradient the same
        length as ``x``.
    name:
        Label used in solver diagnostics.
    """

    def __init__(self, fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
                 name: str = "objective") -> None:
        self._fn = fn
        self.name = name

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Evaluate the objective and its gradient at ``x``."""
        value, grad = self._fn(x)
        return float(value), np.asarray(grad, dtype=float)

    def value(self, x: np.ndarray) -> float:
        """Objective value only."""
        return self.value_and_grad(x)[0]

    @classmethod
    def weighted_sum(
        cls,
        components: Sequence[tuple[float, "SmoothObjective"]],
        name: str = "weighted-sum",
    ) -> "SmoothObjective":
        """The objective ``Σ λ_i · f_i`` (Eq. 19 combines two components)."""
        if not components:
            raise SGPModelError("weighted_sum needs at least one component")

        def fn(x: np.ndarray) -> tuple[float, np.ndarray]:
            total = 0.0
            grad = np.zeros_like(np.asarray(x, dtype=float))
            for weight, component in components:
                value, g = component.value_and_grad(x)
                total += weight * value
                grad += weight * g
            return total, grad

        return cls(fn, name=name)


@dataclass
class Constraint:
    """One inequality ``f(x) + margin ≤ 0``.

    ``margin`` turns the paper's strict inequalities (Eq. 11) into
    numerically meaningful non-strict ones: requiring
    ``S_other − S_best ≤ −margin`` forces the best answer to win by a
    detectable gap rather than by an infinitesimal the ranking code
    would lose to float noise.
    """

    signomial: Signomial
    name: str = "constraint"
    margin: float = 0.0


class StackedConstraints:
    """Every constraint of a program compiled into one sparse system.

    The terms of all constraints are stacked into a single CSR exponent
    matrix ``E`` (one row per term) with ``rows[k]`` naming the
    constraint term ``k`` belongs to.  In log space each term is
    ``c_k · exp(E_k · log x)``, so

    - the constraint vector is one matvec plus a ``bincount``:
      ``f(x) + margin = bincount(rows, c · exp(E @ log x)) + margins``;
    - a weighted sum of constraint gradients ``Σ_i s_i ∇f_i`` (what a
      multiplier method needs) is one transposed matvec:
      ``Eᵀ @ (t · s[rows]) / x`` with ``t`` the term values.
    """

    __slots__ = ("num_constraints", "coeffs", "rows", "margins", "exponents",
                 "exponents_t")

    def __init__(self, constraints: Sequence[Constraint], num_vars: int) -> None:
        self.num_constraints = len(constraints)
        coeffs: list[float] = []
        rows: list[int] = []
        entry_rows: list[int] = []
        entry_cols: list[int] = []
        entry_data: list[float] = []
        for index, constraint in enumerate(constraints):
            for coeff, exponents in constraint.signomial.terms():
                term = len(coeffs)
                coeffs.append(coeff)
                rows.append(index)
                for var, exp in exponents.items():
                    entry_rows.append(term)
                    entry_cols.append(var)
                    entry_data.append(exp)
        self.coeffs = np.array(coeffs, dtype=float)
        self.rows = np.array(rows, dtype=np.intp)
        self.margins = np.array([c.margin for c in constraints], dtype=float)
        self.exponents = sparse.csr_matrix(
            (entry_data, (entry_rows, entry_cols)), shape=(len(coeffs), num_vars)
        )
        self.exponents_t = self.exponents.T.tocsr()

    def values(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(f(x) + margins, term values)`` at a positive point ``x``."""
        terms = self.coeffs * np.exp(self.exponents @ np.log(x))
        summed = np.bincount(self.rows, weights=terms, minlength=self.num_constraints)
        return summed + self.margins, terms

    def weighted_grad(self, x: np.ndarray, terms: np.ndarray,
                      weights: np.ndarray) -> np.ndarray:
        """``Σ_i weights_i · ∇f_i(x)`` given the term values at ``x``."""
        return (self.exponents_t @ (terms * weights[self.rows])) / x


class SGPProblem:
    """A box-bounded signomial program.

    Parameters
    ----------
    initial:
        Starting point ``x_0`` (current edge weights; Algorithm 1 lines
        5–8).  Also defines the number of variables.
    lower, upper:
        Box bounds ``x_l``/``x_u``; scalars broadcast.  Both must be
        strictly positive (GP variables live on the positive orthant),
        and the paper's weight bounds keep every weight a valid
        probability.
    """

    def __init__(
        self,
        initial: Sequence[float],
        *,
        lower: "float | Sequence[float]" = 1e-6,
        upper: "float | Sequence[float]" = 1.0,
    ) -> None:
        self.x0 = np.asarray(initial, dtype=float)
        if self.x0.ndim != 1 or self.x0.size == 0:
            raise SGPModelError("initial point must be a non-empty 1-D sequence")
        n = self.x0.size
        self.lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,)).copy()
        self.upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,)).copy()
        if np.any(self.lower <= 0):
            raise SGPModelError("lower bounds must be strictly positive")
        if np.any(self.lower > self.upper):
            raise SGPModelError("lower bounds must not exceed upper bounds")
        # Clip the starting point into the box: current graph weights can
        # sit exactly on (or just outside) a bound after normalization.
        self.x0 = np.clip(self.x0, self.lower, self.upper)
        # Contract seam (Eq. 2): the clipped start satisfies the box.
        check_weight_bounds(
            self.x0, self.lower, self.upper, seam="sgp.problem"
        )
        self.constraints: list[Constraint] = []
        self._stacked: "StackedConstraints | None" = None
        self._objective: "SmoothObjective | None" = None

    @property
    def num_vars(self) -> int:
        """Number of variables."""
        return int(self.x0.size)

    @property
    def num_constraints(self) -> int:
        """Number of inequality constraints."""
        return len(self.constraints)

    def add_constraint(
        self, signomial: Signomial, *, name: str = "", margin: float = 0.0
    ) -> Constraint:
        """Add ``signomial(x) + margin ≤ 0``; returns the record."""
        if margin < 0:
            raise SGPModelError(f"margin must be non-negative, got {margin}")
        used = signomial.variables()
        if used and max(used) >= self.num_vars:
            raise SGPModelError(
                f"constraint uses variable {max(used)} outside the problem's "
                f"{self.num_vars} variables"
            )
        constraint = Constraint(
            signomial=signomial,
            name=name or f"c{len(self.constraints)}",
            margin=float(margin),
        )
        self.constraints.append(constraint)
        self._stacked = None
        return constraint

    def set_objective(self, objective: SmoothObjective) -> None:
        """Set the objective."""
        if not isinstance(objective, SmoothObjective):
            raise SGPModelError(
                "objective must be a SmoothObjective, got "
                f"{type(objective).__name__}"
            )
        self._objective = objective

    @property
    def objective(self) -> SmoothObjective:
        """The smooth objective; raises when unset."""
        if self._objective is None:
            raise SGPModelError("no objective has been set")
        return self._objective

    def compile(self) -> StackedConstraints:
        """Stack every constraint for fast evaluation (cached until the
        next :meth:`add_constraint`)."""
        if self._stacked is None:
            self._stacked = StackedConstraints(self.constraints, self.num_vars)
        return self._stacked

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def constraint_values(self, x: np.ndarray) -> np.ndarray:
        """Vector of ``f_i(x) + margin_i`` (feasible entries are ≤ 0)."""
        return self.compile().values(np.asarray(x, dtype=float))[0]

    def num_satisfied(self, x: np.ndarray, *, tol: float = 1e-9) -> int:
        """How many constraints hold at ``x`` (within ``tol``)."""
        if not self.constraints:
            return 0
        return int((self.constraint_values(x) <= tol).sum())

    def is_feasible(self, x: np.ndarray, *, tol: float = 1e-9) -> bool:
        """Whether every constraint and bound holds at ``x``."""
        x = np.asarray(x, dtype=float)
        if np.any(x < self.lower - tol) or np.any(x > self.upper + tol):
            return False
        return self.num_satisfied(x, tol=tol) == self.num_constraints

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SGPProblem vars={self.num_vars} constraints={self.num_constraints}>"
        )
