"""Age-of-information scheduling: simulator, policies, and oracles."""

from .age import DebtState
from .channels import ChannelProcess
from .costs import CostFunction
from .dp import ConvergenceError, DpSolution, StateSpaceError, dp_optimal, export_table
from .network import (Action, ActionSpaceError, Flow, IDLE_ACTION,
                      NetworkInstance, build_action_space, canon_edge,
                      make_flow, make_instance, validate_action)
from .policies import PolicyDecision, RandomizedPolicy, age_debt_action, optimize_randomized
from .config import ExperimentConfig, load_config, parse_config
from .scenarios import (broadcast_instance, enumerate_connected_graphs,
                        gen_line, gen_star)
from .sim import RunMetrics, SimConfig, export_trace, run, stability_diagnostic
from .sweep import build_sim_config, expand_scenarios, run_sweep
from .targets import FlowControlConfig, GradientDescentConfig, gd_epoch_update

__version__ = "0.1.0"
