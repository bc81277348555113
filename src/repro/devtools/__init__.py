"""Correctness tooling: custom AST lint rules and runtime contracts.

Two halves, one goal — turning the paper's implicit invariants into
enforced ones:

- :mod:`repro.devtools.lint` — project-specific static rules
  (R001–R005) run by ``repro-kg lint`` and the CI lint gate;
- :mod:`repro.devtools.contracts` — cheap assertable invariant checks
  (row-stochasticity, box bounds, deviation sanity, finite CSR data,
  delta and push score agreement) installed at the seams and switched on with
  ``REPRO_CONTRACTS=1`` / :func:`enable_contracts`.

See DESIGN.md § Static analysis & invariants.
"""

from repro.devtools.contracts import (
    ContractViolation,
    check_finite_csr_data,
    check_monotone_deviations,
    check_row_stochastic,
    check_weight_bounds,
    contracts_enabled,
    disable_contracts,
    enable_contracts,
)
from repro.devtools.lint import (
    RULES,
    LintViolation,
    format_violations,
    lint_file,
    lint_paths,
    lint_source,
)

__all__ = [
    "ContractViolation",
    "contracts_enabled",
    "enable_contracts",
    "disable_contracts",
    "check_row_stochastic",
    "check_weight_bounds",
    "check_monotone_deviations",
    "check_finite_csr_data",
    "RULES",
    "LintViolation",
    "lint_source",
    "lint_file",
    "lint_paths",
    "format_violations",
]
