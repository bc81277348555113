"""Similarity-evaluation parameters, bundled.

The trio ``(k, max_length, restart_prob)`` — the list length, the walk
pruning threshold ``L``, and the restart probability ``c`` — used to be
copy-pasted as three keyword arguments through every layer of the stack
(``QASystem``, ``rank_answers``, the evaluation harness, and the three
optimization drivers).  :class:`SimilarityParams` replaces the triple
with one validated, immutable value object that is threaded through all
of them, and since the backend registry it also carries the kernel
selection (:attr:`SimilarityParams.backend` plus the push backend's
:attr:`SimilarityParams.push_tolerance`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.similarity.inverse_pdistance import (
    DEFAULT_MAX_LENGTH,
    DEFAULT_RESTART_PROB,
)
from repro.similarity.push import DEFAULT_PUSH_TOLERANCE
from repro.utils.validation import check_fraction

#: Paper default top-k list length (Section VII-A1).
DEFAULT_K = 20

#: Default propagation backend (the reference dense dynamic program).
DEFAULT_BACKEND = "dense"


@dataclass(frozen=True)
class SimilarityParams:
    """Parameters of the truncated inverse-P-distance similarity.

    Parameters
    ----------
    k:
        Length of returned answer lists (paper default 20).
    max_length:
        The walk pruning threshold ``L`` (Section IV-A, default 5).
    restart_prob:
        The restart probability ``c`` (Section III-A, default 0.15).
    backend:
        Name of the propagation backend resolved through
        :func:`repro.similarity.backend.resolve_backend` —
        ``"dense"`` (default, the reference DP) or ``"push"`` (the
        sparse local-push evaluator); third-party registrations are
        selectable by their registered name.  Validated against the
        registry at resolution time, not here, so params objects can be
        built before a plugin backend registers itself.
    push_tolerance:
        The push backend's per-target absolute error budget ε
        (``0`` = exact push; ignored by other backends).

    The object is frozen and hashable, so it can key caches and travel
    through multiprocessing payloads unchanged.
    """

    k: int = DEFAULT_K
    max_length: int = DEFAULT_MAX_LENGTH
    restart_prob: float = DEFAULT_RESTART_PROB
    backend: str = DEFAULT_BACKEND
    push_tolerance: float = DEFAULT_PUSH_TOLERANCE

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be ≥ 1, got {self.k}")
        if self.max_length < 1:
            raise ValueError(
                f"max_length must be at least 1, got {self.max_length}"
            )
        check_fraction("restart_prob", self.restart_prob)
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError(
                f"backend must be a non-empty backend name, got "
                f"{self.backend!r}"
            )
        if not self.push_tolerance >= 0.0:  # also rejects NaN
            raise ValueError(
                f"push_tolerance must be ≥ 0, got {self.push_tolerance!r}"
            )

    def replace(self, **changes) -> "SimilarityParams":
        """A copy with the given fields replaced (validated again)."""
        return replace(self, **changes)


def resolve_similarity_params(
    params: "SimilarityParams | None" = None,
) -> SimilarityParams:
    """``params``, or the paper-default :class:`SimilarityParams`."""
    return params if params is not None else SimilarityParams()
