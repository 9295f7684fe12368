"""Dynamics simulator and oscillation-damping controllers for a pendulum-like
manipulation platform that balances itself with two moving masses."""

from .control import (Gains, NoConvergenceError, Setpoint,
                      SingularCouplingError, balance_residual, default_gains,
                      make_controller, outer_refs, pfl_input,
                      pfl_input_transformed, qm_ref_motivating,
                      qm_ref_proposed, qm_ref_remark1, qm_ref_remark2,
                      solve_equilibrium_qm)
from .dynamics import (Eval, IllConditionedTransformError, SingularMassError,
                       forward_dynamics)
from .model import (InvalidBodyError, MoverParams, PlatformParams, SerialLink,
                    State, SystemModel, UnsupportedPresetError, body_position,
                    model_from_dict, model_to_dict, point_jacobian,
                    preset_paper)
from .sim import (OutcomeReport, Scenario, ScenarioError, StateEscapeError,
                  Trajectory, classify, load_scenario, run, save_scenario,
                  settling_time, step, write_csv)
from .spatial import GimbalLockError, euler_rate_map, rot_rpy

__version__ = "0.1.0"
