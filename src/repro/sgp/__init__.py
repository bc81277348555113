"""Signomial geometric programming (SGP) substrate.

Section III-A of the paper casts graph optimization as an SGP (Eq. 2–3):
minimize an objective subject to signomial inequality constraints over
box-bounded positive variables.  The paper solved it with MATLAB's
``fmincon``; this subpackage provides the equivalent building blocks in
Python:

- :mod:`repro.sgp.terms` — signomial algebra with exact evaluation and
  analytic gradients;
- :mod:`repro.sgp.problem` — the problem container, which compiles
  every constraint into one sparse exponent matrix for evaluation;
- :mod:`repro.sgp.solver` — the solver: a PHR augmented-Lagrangian
  method (method of multipliers) over L-BFGS-B box bounds.
"""

from repro.sgp.terms import Signomial
from repro.sgp.problem import SGPProblem, SmoothObjective
from repro.sgp.solver import SGPSolution, solve_sgp

__all__ = [
    "Signomial",
    "SGPProblem",
    "SmoothObjective",
    "SGPSolution",
    "solve_sgp",
]
