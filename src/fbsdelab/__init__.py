"""Numerical laboratory for quadratic-driver backward SDEs and their PDEs.

Five independent solution routes (the tracking problem's closed-form quadratic
value, a finite-difference march of the quasilinear PDE, and regression Monte
Carlo on the original, exponentially transformed and drift-eliminated backward
equation) are cross-checked against each other.
"""

from .bsde import (BackwardSolution, BasisSpec, MartingaleResidualReport,
                   martingale_residual, solve_girsanov, solve_lsmc,
                   solve_transformed)
from .control import (ControlPolicy, CostEstimate, PolicyRanking,
                      RiccatiSolution, compare_policies, estimate_cost,
                      solve_riccati)
from .errors import (ConfigError, DomainError, EvaluationError, FbsdeLabError,
                     SimulationError, SolverError)
from .expressions import Expr, ExpressionError, parse_expression
from .harness import (ExperimentResult, Numerics, ProblemSetup, RouteEstimate,
                      Verdict, run_delta_sweep, run_feynman_kac_check,
                      run_uniqueness_check)
from .moduli import (LogPowerModulus, ProductInequalityReport,
                     identity_modulus, osgood_divergence_probe,
                     product_inequality_check)
from .pde import GridSolution, SpaceGrid, extract_feedback, solve_pde
from .problem import (AssumptionReport, ClauseVerdict, ControlProblemSpec,
                      DriverSpec, ForwardSpec, SampleGrid,
                      check_driver_assumptions, eval_driver,
                      girsanov_shifted_driver)
from .sde import PathEnsemble, TimeGrid, simulate

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "BackwardSolution", "BasisSpec", "ClauseVerdict",
    "ConfigError", "ControlPolicy", "ControlProblemSpec", "CostEstimate",
    "DomainError", "DriverSpec", "EvaluationError", "ExperimentResult",
    "Expr", "ExpressionError", "FbsdeLabError", "ForwardSpec",
    "GridSolution", "LogPowerModulus", "MartingaleResidualReport",
    "Numerics", "PathEnsemble", "PolicyRanking", "ProblemSetup",
    "ProductInequalityReport", "RiccatiSolution", "RouteEstimate",
    "SampleGrid", "SimulationError", "SolverError", "SpaceGrid",
    "TimeGrid", "Verdict", "check_driver_assumptions", "compare_policies",
    "estimate_cost", "eval_driver", "extract_feedback",
    "girsanov_shifted_driver", "identity_modulus", "martingale_residual",
    "osgood_divergence_probe", "parse_expression",
    "product_inequality_check", "run_delta_sweep", "run_feynman_kac_check",
    "run_uniqueness_check", "simulate", "solve_girsanov", "solve_lsmc",
    "solve_pde", "solve_riccati", "solve_transformed",
]
