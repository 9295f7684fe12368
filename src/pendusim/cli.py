"""Command-line front end: scenario runs, the verification suite, and the
static mover-balance solver.

Exit codes: 0 success, 1 property or convergence failure, 2 usage/config
error, 3 preset outcome mismatch.

``--log-level`` sets the level of the ``pendusim`` loggers for one call.
Their records go to standard error as the bare message, as Python's
last-resort handler writes them when nothing is configured, so the default
level, WARNING, leaves the output as it is without the option.
"""

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import sim, svg, verify
from .control import (Gains, NoConvergenceError, Setpoint, balance_residual,
                      solve_equilibrium_qm)
from .model import preset_paper
from .sim import (CONVERGED, DIVERGED, INCONCLUSIVE, LIMIT_CYCLE, Scenario,
                  ScenarioError, load_scenario, save_scenario)

DEFAULT_QR_DES = {3: np.array([np.pi / 4, np.pi / 2, 0.0]),
                  7: np.concatenate([[np.pi / 4, np.pi / 2], np.zeros(5)])}


def _oscillatory(outcome):
    """Limit cycle, or inconclusive with clearly oscillatory trailing
    amplitude (above twice the settling band)."""
    return (outcome.classification == LIMIT_CYCLE
            or (outcome.classification == INCONCLUSIVE
                and outcome.trailing_amplitude > 2.0 * outcome.band))


def _expect_fig3(report):
    qm = report.signals["qm"]
    return (report.signals["phi"].classification == CONVERGED
            and qm.classification == LIMIT_CYCLE
            and qm.trailing_amplitude > 0.02)


def _expect_fig4(report):
    return (report.signals["xc"].classification == CONVERGED
            and (report.signals["qm"].classification == DIVERGED
                 or report.signals["phi"].classification == DIVERGED))


def _expect_fig5(report):
    phi, qm = report.signals["phi"], report.signals["qm"]
    return (phi.classification != CONVERGED and qm.classification != CONVERGED
            and _oscillatory(phi) and _oscillatory(qm))


def _expect_fig6(report):
    return all(report.signals[s].classification == CONVERGED
               for s in ("phi", "gamma", "qm", "qr", "xc"))


def _preset_scenario(name):
    """Built-in scenarios mirroring the four simulation studies: the
    motivating law's mover oscillation, the CoM-only law's drift, the naive
    PD extension's non-convergence, and the proposed law's full convergence."""
    model = preset_paper(3)
    qr_des = DEFAULT_QR_DES[3]
    qm_star = solve_equilibrium_qm(model, qr_des)
    setpoint = Setpoint(0.0, qr_des, qm_star)
    base = dict(model=model, setpoint=setpoint, dt=1e-2, decimation=1)
    if name == "fig3_motivating":
        sc = Scenario(controller="motivating", gains=Gains(), duration=60.0,
                      label=name, **base)
        return sc, _expect_fig3, "platform level, movers in a limit cycle"
    if name == "fig4_remark1":
        gains = Gains(D_c=np.full(2, 2000.0))
        sc = Scenario(controller="remark1", gains=gains, duration=90.0,
                      label=name, **base)
        return sc, _expect_fig4, "CoM settles while attitude or movers diverge"
    if name == "fig5_remark2":
        gains = Gains(K_phi=np.full(2, 4300.0), D_phi=np.full(2, 100.0),
                      K_m=np.full(2, 3.0), D_m=np.full(2, 0.05))
        q0 = np.zeros(model.dof)
        q0[0], q0[1] = 0.05, -0.05
        sc = Scenario(controller="remark2", gains=gains, duration=60.0,
                      q0=q0, label=name, **base)
        return sc, _expect_fig5, "attitude and movers oscillate without settling"
    if name == "fig6_proposed":
        sc = Scenario(controller="proposed", gains=Gains(), duration=60.0,
                      label=name, **base)
        return sc, _expect_fig6, "CoM, movers, and attitude all converge"
    raise ScenarioError(f"unknown preset {name!r}")


PRESET_NAMES = ("fig3_motivating", "fig4_remark1", "fig5_remark2", "fig6_proposed")


def _resolve_scenario(args):
    if args.preset and args.scenario:
        raise ScenarioError("give either --preset or --scenario, not both")
    if args.preset:
        scenario, expect, desc = _preset_scenario(args.preset)
    elif args.scenario:
        if not os.path.exists(args.scenario):
            raise ScenarioError(f"scenario file not found: {args.scenario}")
        scenario = load_scenario(args.scenario)
        expect, desc = None, "user scenario"
    else:
        raise ScenarioError("a --preset or --scenario is required")
    overrides = {name: value for name, value in
                 (("dt", args.dt), ("duration", args.duration))
                 if value is not None}
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    return scenario, expect, desc


def cmd_run(args):
    if args.all_presets:
        worst = 0
        for name in PRESET_NAMES:
            sub = argparse.Namespace(**vars(args))
            sub.all_presets = False
            sub.preset, sub.scenario = name, None
            sub.out = os.path.join(args.out, name)
            worst = max(worst, cmd_run(sub))
        return worst
    scenario, expect, desc = _resolve_scenario(args)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    traj, report = sim.run(scenario)
    sim.write_csv(traj, os.path.join(outdir, "trajectory.csv"))
    doc = report.to_dict()
    doc["label"] = scenario.label
    doc["description"] = desc
    if expect is not None:
        doc["expected_outcome_matched"] = bool(expect(report))
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
    if args.svg:
        svg.write_trajectory_svgs(traj, outdir)
    print(f"run {scenario.label or scenario.controller}: "
          f"{traj.t[-1] if traj.t.size else 0:.1f} s simulated, "
          f"{'halted early, ' if traj.escaped else ''}outputs in {outdir}")
    for name, outcome in report.signals.items():
        print(f"  {name:6s} {outcome.classification:12s} "
              f"settle={outcome.settling_time} "
              f"trailing_p2p={outcome.trailing_amplitude:.4g}")
    if expect is not None and not expect(report):
        print(f"outcome MISMATCH: expected {desc}")
        return 3
    return 0


def cmd_verify(args):
    model = None
    if args.scenario:
        model = load_scenario(args.scenario).model
    print(f"verification suite (seed {args.seed}):")
    ok = verify.run_all(model=model, seed=args.seed)
    print("all properties pass" if ok else "FAILURE: see table above")
    return 0 if ok else 1


def cmd_equilibrium(args):
    if args.scenario:
        scenario = load_scenario(args.scenario)
        model = scenario.model
        if scenario.setpoint is None:
            raise ScenarioError("scenario has no setpoint with qr_des")
        qr_des = scenario.setpoint.qr_des
        gamma_des = scenario.setpoint.gamma_des
    else:
        model = preset_paper(3 if args.preset in (None, "desk3") else 7)
        qr_des = DEFAULT_QR_DES[model.n_links]
        gamma_des = 0.0
    try:
        qm = solve_equilibrium_qm(model, qr_des, gamma_des=gamma_des)
    except NoConvergenceError as exc:
        print(f"no balance point within mover travel: residual |g_phi| = "
              f"{exc.residual:.6e} at qm = {exc.qm}")
        return 1
    res = float(np.linalg.norm(balance_residual(model, qm, qr_des, gamma_des)))
    print(f"qm* = [{qm[0]:.9f}, {qm[1]:.9f}]   residual |g_phi| = {res:.3e}")
    if args.write and args.scenario:
        scenario.setpoint = Setpoint(gamma_des, qr_des, qm)
        save_scenario(scenario, args.scenario)
        print(f"wrote qm* into {args.scenario}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pendusim",
        description="Suspended-platform oscillation damping: simulation, "
                    "verification, and static balance tools.")
    parser.add_argument("--log-level", default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
                        dest="log_level", help="least severe log record shown "
                        "on standard error (default WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a scenario or preset")
    run_p.add_argument("--preset", choices=PRESET_NAMES)
    run_p.add_argument("--scenario", help="scenario JSON file")
    run_p.add_argument("--all-presets", action="store_true", dest="all_presets",
                       help="run every preset into <out>/<preset>/")
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.add_argument("--svg", action="store_true", help="emit SVG plots")
    run_p.add_argument("--dt", type=float, help="integration step override [s]")
    run_p.add_argument("--duration", type=float, help="run length override [s]")

    ver_p = sub.add_parser("verify", help="run the property verification suite")
    ver_p.add_argument("--seed", type=int, default=0)
    ver_p.add_argument("--scenario", help="verify against this scenario's model")

    eq_p = sub.add_parser("equilibrium", help="solve the static mover balance")
    eq_p.add_argument("--preset", choices=("desk3", "full7"))
    eq_p.add_argument("--scenario", help="scenario JSON file with a setpoint")
    eq_p.add_argument("--write", action="store_true",
                      help="write qm* back into the scenario file")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # The handler (bare messages to the current sys.stderr, as the
    # last-resort handler writes them) and the level hold for this call only,
    # so repeated calls in one process neither stack handlers nor leak a level.
    log = logging.getLogger("pendusim")
    handler = logging.StreamHandler()
    previous = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level)
    try:
        return _dispatch(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(previous)


def _dispatch(args):
    try:
        if args.command == "run":
            code = cmd_run(args)
        elif args.command == "verify":
            code = cmd_verify(args)
        else:
            code = cmd_equilibrium(args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
