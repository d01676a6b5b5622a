"""Ultradiscrete (max-plus) Painleve VI with parity variables.

Exact evolution with branch enumeration, the first-order (Riccati-type)
subsystem, closed-form solution families, and an independent q-difference
oracle for the ultradiscretization limit.  All max-plus arithmetic is exact
rational; the q-side oracle runs in signed log-domain arbitrary precision.
"""

from .tropical import (
    BOTTOM,
    Amp,
    DegenerateEquation,
    Interval,
    LinTerm,
    Sign,
    SolutionSet,
    is_bottom,
    solve_one_unknown,
)
from .system import (
    ConstraintViolation,
    ParityPair,
    Params,
    StatePair,
    check_constraint,
    load_params,
    params_from_obj,
    params_to_obj,
    residual_yy,
    residual_zz,
)
from .tables import SolutionTable
from .evolution import (
    BranchTree,
    EvolutionConfig,
    evolve,
    evolve_noparity,
    painleve_failures,
    step_back_y_noparity,
    step_back_y_parity,
    step_back_z_noparity,
    step_back_z_parity,
    step_y_noparity,
    step_y_parity,
    step_z_noparity,
    step_z_parity,
)
from .riccati import (
    RiccatiStepResult,
    check_riccati_conditions,
    residual_riccati1,
    residual_riccati2,
    riccati_close_z,
    riccati_evolve,
    riccati_failures,
    riccati_step_back_y,
    riccati_step_y,
    riccati_step_z,
    theorem_check,
)
from .families import (
    DerivedConstants,
    FamilySpec,
    LinearAnsatz,
    check_linear_ansatz,
    compute_h,
    detect_asymptotic_linearity,
    instantiate_family,
)
from .qoracle import (
    EpsSchedule,
    LogSigned,
    PoleError,
    ls_add,
    ls_div,
    ls_from_amplitude,
    ls_mul,
    ls_sub,
    qp6_step,
    qriccati_step,
    ud_limit_compare,
)

__version__ = "0.1.0"
