"""Signomial algebra.

A *signomial* (Eq. 3 of the paper) is a finite sum of terms

    f(x) = Σ_k  c_k · x_1^{e_1k} · x_2^{e_2k} · ... · x_n^{e_nk}

over strictly positive variables ``x``, with real coefficients ``c_k``
and real exponents ``e_jk``.  When every coefficient is positive the
signomial is a *posynomial*; a single term is a *monomial*.

Variables are identified by non-negative integer ids (the optimizer
assigns one id per adjustable edge weight plus, in the multi-vote
formulation, one per deviation variable).  A :class:`Signomial` is a
mutable dict-of-terms used while *building* expressions.  The solver
never evaluates one term by term: :meth:`~repro.sgp.problem.SGPProblem.compile`
stacks every constraint into one
:class:`~repro.sgp.problem.StackedConstraints`, which evaluates values
and gradients through vectorized sparse matrix products — essential
because each constraint can contain thousands of walk terms and the
solver evaluates it hundreds of times.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

import numpy as np

from repro.errors import SGPModelError

#: Terms whose coefficient magnitude falls below this are dropped; they
#: are far below both solver tolerance and float accumulation error.
COEFF_EPS = 1e-300

ExponentKey = tuple[tuple[int, float], ...]


def _canonical_key(exponents: Mapping[int, float]) -> ExponentKey:
    """Canonical hashable key for an exponent mapping (zero exponents dropped)."""
    items = []
    for var, exp in exponents.items():
        if var < 0:
            raise SGPModelError(f"variable ids must be non-negative, got {var}")
        if exp != 0.0:
            items.append((int(var), float(exp)))
    items.sort()
    return tuple(items)


class Signomial:
    """A mutable signomial: mapping of exponent keys to coefficients.

    Supports term accumulation, addition/subtraction, scalar and
    signomial multiplication, exact evaluation, and analytic gradients.
    Exact (dict-based) evaluation is convenient for tests and small
    expressions; the solver evaluates the compiled program instead.
    """

    __slots__ = ("_terms",)

    def __init__(self) -> None:
        self._terms: dict[ExponentKey, float] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, value: float) -> "Signomial":
        """The constant signomial ``value``."""
        sig = cls()
        sig.add_term(value, {})
        return sig

    @classmethod
    def variable(cls, var: int) -> "Signomial":
        """The signomial ``x_var``."""
        sig = cls()
        sig.add_term(1.0, {var: 1.0})
        return sig

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[float, Mapping[int, float]]]) -> "Signomial":
        """Build from ``(coefficient, {var: exponent})`` pairs."""
        sig = cls()
        for coeff, exponents in terms:
            sig.add_term(coeff, exponents)
        return sig

    def add_term(self, coeff: float, exponents: Mapping[int, float]) -> None:
        """Accumulate ``coeff · Π x_v^e`` into this signomial."""
        if not math.isfinite(coeff):
            raise SGPModelError(f"non-finite coefficient {coeff!r}")
        key = _canonical_key(exponents)
        new = self._terms.get(key, 0.0) + coeff
        if abs(new) < COEFF_EPS:
            self._terms.pop(key, None)
        else:
            self._terms[key] = new

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_terms(self) -> int:
        """Number of distinct terms."""
        return len(self._terms)

    def terms(self) -> Iterable[tuple[float, dict[int, float]]]:
        """Iterate over ``(coefficient, {var: exponent})`` pairs."""
        for key, coeff in self._terms.items():
            yield coeff, dict(key)

    def variables(self) -> set[int]:
        """The set of variable ids appearing with non-zero exponent."""
        out: set[int] = set()
        for key in self._terms:
            out.update(var for var, _ in key)
        return out

    def is_posynomial(self) -> bool:
        """Whether every coefficient is positive (GP-compatible)."""
        return all(c > 0 for c in self._terms.values())

    def is_constant(self) -> bool:
        """Whether the signomial has no variable dependence."""
        return not self.variables()

    def constant_value(self) -> float:
        """Value when constant; raises otherwise."""
        if not self.is_constant():
            raise SGPModelError("signomial is not constant")
        return sum(self._terms.values())

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def copy(self) -> "Signomial":
        clone = Signomial()
        clone._terms = dict(self._terms)
        return clone

    def __add__(self, other: "Signomial | float") -> "Signomial":
        result = self.copy()
        if isinstance(other, Signomial):
            for key, coeff in other._terms.items():
                result.add_term(coeff, dict(key))
        else:
            result.add_term(float(other), {})
        return result

    __radd__ = __add__

    def __neg__(self) -> "Signomial":
        result = Signomial()
        result._terms = {key: -coeff for key, coeff in self._terms.items()}
        return result

    def __sub__(self, other: "Signomial | float") -> "Signomial":
        if isinstance(other, Signomial):
            return self + (-other)
        return self + (-float(other))

    def __rsub__(self, other: float) -> "Signomial":
        return (-self) + float(other)

    def __mul__(self, other: "Signomial | float") -> "Signomial":
        result = Signomial()
        if isinstance(other, Signomial):
            for key_a, coeff_a in self._terms.items():
                exp_a = dict(key_a)
                for key_b, coeff_b in other._terms.items():
                    merged = dict(exp_a)
                    for var, exp in key_b:
                        merged[var] = merged.get(var, 0.0) + exp
                    result.add_term(coeff_a * coeff_b, merged)
        else:
            factor = float(other)
            for key, coeff in self._terms.items():
                result.add_term(coeff * factor, dict(key))
        return result

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Signomial terms={self.num_terms} vars={len(self.variables())}>"

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, x: "Mapping[int, float] | np.ndarray") -> float:
        """Exact evaluation at ``x`` (mapping or dense array of positives)."""
        total = 0.0
        for key, coeff in self._terms.items():
            term = coeff
            for var, exp in key:
                value = x[var]
                if value <= 0:
                    raise SGPModelError(
                        f"signomial variables must be positive, x[{var}]={value}"
                    )
                term *= value**exp
            total += term
        return total

    def gradient(self, x: "Mapping[int, float] | np.ndarray") -> dict[int, float]:
        """Exact gradient at ``x`` as ``{var: d f / d x_var}``."""
        grad: dict[int, float] = {}
        for key, coeff in self._terms.items():
            term = coeff
            for var, exp in key:
                term *= x[var] ** exp
            for var, exp in key:
                grad[var] = grad.get(var, 0.0) + term * exp / x[var]
        return grad
