"""Command-line front end: simulate, solve, check, sweep.

Exit codes: 0 success, 2 invalid config or arguments, 3 no convergence or a
failed run guard / failed check, 4 structural singularity (zero fold
coupling, chart exit, rank loss), 5 unreadable or unwritable files.
"""

import argparse
import sys
from dataclasses import replace

from . import harness, liealg, plant, solver, varint

_BC_ALIASES = {
    "fixed": "fixed_endpoints",
    "shooting": "initial_costate",
    "free-terminal": "free_terminal",
}


def _parser():
    p = argparse.ArgumentParser(
        prog="foldocp",
        description=(
            "Variational attitude control for a quadrotor with folding arms: "
            "open-loop simulation, first-order-system solves, self checks, "
            "and step-size sweeps."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="open-loop run with rotors off and arms locked"
    )
    sim.add_argument("--config", required=True, help="JSON scenario file")
    sim.add_argument(
        "--mode",
        choices=("rk4", "dlp"),
        default="dlp",
        help="integrator: classical RK4 or the momentum-conserving step",
    )

    sol = sub.add_parser(
        "solve", help="solve the discrete first-order system on the horizon"
    )
    sol.add_argument("--config", required=True, help="JSON scenario file")
    sol.add_argument(
        "--bc",
        choices=tuple(_BC_ALIASES),
        default=None,
        help="boundary handling (overrides the config's boundary_mode)",
    )

    chk = sub.add_parser("check", help="run the numerical self-check suite")
    chk.add_argument(
        "--suite",
        choices=tuple(harness.SUITES),
        default="all",
        help="subset of checks to run",
    )

    swp = sub.add_parser(
        "sweep", help="re-solve across step sizes at a fixed horizon"
    )
    swp.add_argument("--config", required=True, help="JSON scenario file")
    swp.add_argument(
        "--param", required=True, choices=("h",), help="swept parameter"
    )
    swp.add_argument(
        "--values", required=True, nargs="+", type=float, help="step sizes"
    )
    return p


def _emit_outputs(report, out=sys.stdout):
    cfg = report.config
    if cfg.csv_path:
        harness.export_csv(report, cfg.csv_path)
        print(f"wrote {cfg.csv_path}", file=out)
    if cfg.svg_dir:
        harness.export_svg_plots(report, cfg.svg_dir)
        print(f"wrote SVGs under {cfg.svg_dir}", file=out)


def _summarize(report, out=sys.stdout):
    rec = report.records
    print(
        f"knots={rec.shape[0]} horizon={rec[-1, 0]:.6g}s "
        f"final_attitude_err={report.frob_err[-1]:.6g} "
        f"u_range=[{rec[:, 10].min():.6g}, {rec[:, 10].max():.6g}] "
        f"max_residual={rec[:, 19].max():.6g}",
        file=out,
    )
    for name, ok in report.guards.items():
        print(f"guard {name}: {'ok' if ok else 'FAILED'}", file=out)


def _cmd_simulate(args, out):
    config = harness.load_config(args.config)
    report = harness.simulate(config, mode=args.mode)
    _summarize(report, out)
    _emit_outputs(report, out)
    return 0 if report.ok else 3


def _cmd_solve(args, out):
    config = harness.load_config(args.config)
    if config.scenario == "free_body":
        raise harness.ValidationError(
            "solve requires a stabilization or tracking scenario; "
            "use simulate for free_body"
        )
    if args.bc is not None:
        config = harness.validate_config(
            replace(config, boundary_mode=_BC_ALIASES[args.bc])
        )
    report = harness.run_scenario(config)
    _summarize(report, out)
    _emit_outputs(report, out)
    return 0 if report.ok else 3


def _cmd_check(args, out):
    config = harness.ScenarioConfig(h_s=0.05, N=8)
    result = harness.diagnostics(config, args.suite)
    for name, res in result["checks"].items():
        status = "pass" if res["pass"] else "FAIL"
        detail = ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in res.items()
            if k != "pass" and isinstance(v, (int, float, str))
        )
        print(f"{status}  {name}" + (f"  ({detail})" if detail else ""), file=out)
    print(
        f"suite {result['suite']}: "
        + ("all checks passed" if result["all_pass"] else "FAILURES"),
        file=out,
    )
    return 0 if result["all_pass"] else 3


def _cmd_sweep(args, out):
    config = harness.load_config(args.config)
    if config.scenario == "free_body":
        raise harness.ValidationError(
            "sweep requires a stabilization or tracking scenario"
        )
    horizon = config.N * config.h_s
    rows = []
    for h in args.values:
        if not h > 0.0:
            raise harness.ValidationError("sweep values must be > 0")
        n = round(horizon / h)
        if n < 2:
            raise harness.ValidationError(
                f"step {h:g} leaves fewer than 2 intervals on the horizon"
            )
        # horizon preserved; csv/svg paths stripped so runs don't overwrite
        case = replace(config, h_s=h, N=n, csv_path=None, svg_dir=None)
        report = harness.run_scenario(case)
        rows.append(
            (
                h,
                n,
                report.frob_err[-1],
                report.records[:, 19].max(),
                report.ok,
            )
        )
    print(f"{'h_s':>10} {'N':>6} {'final_err':>14} {'max_residual':>14} ok", file=out)
    for h, n, err, res, ok in rows:
        print(f"{h:>10.6g} {n:>6d} {err:>14.6g} {res:>14.6g} {'yes' if ok else 'no'}", file=out)
    return 0 if all(r[4] for r in rows) else 3


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    handler = {
        "simulate": _cmd_simulate,
        "solve": _cmd_solve,
        "check": _cmd_check,
        "sweep": _cmd_sweep,
    }[args.command]
    try:
        return handler(args, sys.stdout)
    except (harness.ParseError, harness.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        solver.SingularJacobian,
        solver.SingularBlock,
        liealg.OutOfChart,
        liealg.TooFarFromGroup,
    ) as exc:
        # before the ValueError clause: both chart errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (harness.GimbalLock, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (varint.NoConvergence, plant.NonFinite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
