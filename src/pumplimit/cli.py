"""Command-line interface.

One executable, one subcommand per task.  Data goes to stdout or ``--out``
files; diagnostics go to stderr.  Exit codes: 0 success, 1 input or usage
error, 2 failed verification checks.  Numbers are printed with 17
significant digits so they re-parse to the exact floating-point values.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .channels import is_majorized_by, validate_doubly_stochastic
from .errors import PumpLimitError
from .linalg import RNG_ALGORITHM, as_matrix, validate_density_matrix
from .polarization import canonical_pump
from .scheme import build_density_matrix, build_density_matrix_oracle
from .serialize import (
    load_channel,
    load_matrix,
    load_params,
    matrix_to_json,
    params_to_json,
    save_matrix,
)
from .sweep import BOUND_TOL, MODES, SweepConfig, saturating_config, sweep_to_csv, verify_csv
from .twoqubit import _concurrence_from_s, concurrence, wootters_spectrum


def _fmt(x) -> str:
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; here 2 means "checks failed",
    # so usage problems are remapped to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cmd_concurrence(args) -> int:
    rho = load_matrix(args.infile)
    s = wootters_spectrum(rho)
    print(f"concurrence = {_fmt(_concurrence_from_s(*s))}")
    for i in range(4):
        print(f"s{i + 1} = {_fmt(s[i])}")
    return 0


def _cmd_pump(args) -> int:
    j = canonical_pump(args.p)
    if args.out:
        save_matrix(args.out, j)
    else:
        print(json.dumps(matrix_to_json(j)))
    return 0


def _cmd_scheme(args) -> int:
    params = load_params(args.params)
    if args.oracle:
        rho = build_density_matrix_oracle(params)
    else:
        rho = build_density_matrix(params)
    save_matrix(args.out, rho)
    return 0


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(
        n_samples=args.n, seed=args.seed, mode=args.mode, workers=args.workers
    )
    report = sweep_to_csv(cfg, args.out)
    print(
        f"wrote {report.n_records} samples to {args.out} "
        f"({report.violations} bound violations)",
        file=sys.stderr,
    )
    return 0


def _print_report(report) -> None:
    print(f"records = {report.n_records}")
    print(f"violations = {report.violations}")
    print(f"worst_slack = {_fmt(report.worst_slack)}")
    print(f"max_concurrence_general = {_fmt(report.max_general)}")
    print(f"max_concurrence_two_d = {_fmt(report.max_two_d)}")
    for d in range(10):
        lo, hi = d / 10.0, (d + 1) / 10.0
        print(f"decile_max[{lo:.1f},{hi:.1f}) = {_fmt(report.decile_max[d])}")


def _cmd_verify(args) -> int:
    report = verify_csv(args.infile)
    _print_report(report)
    return 0 if report.violations == 0 else 2


def _cmd_saturate(args) -> int:
    params, value = saturating_config(args.pump_p)
    print(json.dumps(params_to_json(params)))
    print(f"concurrence = {_fmt(value)}")
    return 0


def _cmd_channel_verify(args) -> int:
    ch = load_channel(args.channel)
    sigma = load_matrix(args.source)
    eps = validate_density_matrix(as_matrix(sigma, dims=(4,)))
    tp, unital = validate_doubly_stochastic(ch)
    print(f"trace_preserving = {str(tp).lower()}")
    print(f"unital = {str(unital).lower()}")
    ok = tp and unital
    if args.target:
        rho = load_matrix(args.target)
        report = is_majorized_by(rho, sigma)
        print(f"majorized = {str(report.holds).lower()}")
        print("partial_sums_source = " + ",".join(_fmt(x) for x in report.partial_sums_source))
        print("partial_sums_target = " + ",".join(_fmt(x) for x in report.partial_sums_target))
        print(f"worst_slack = {_fmt(report.worst_slack)}")
        pol = float(eps[0] - eps[1])
        bound = (1.0 + pol) / 2.0
        value = concurrence(rho)
        bound_ok = value <= bound + BOUND_TOL
        print(f"concurrence = {_fmt(value)}")
        print(f"bound_general = {_fmt(bound)}")
        print(f"bound_satisfied = {str(bound_ok).lower()}")
        ok = ok and report.holds and bound_ok
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pumplimit",
        description="Photon-pair concurrence limits set by pump polarization: "
        "state tools, source simulator, Monte Carlo sweeps.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"pumplimit {__version__} (rng={RNG_ALGORITHM})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("concurrence", help="concurrence of a state in matrix JSON")
    p.add_argument("--in", dest="infile", required=True, metavar="STATE.json")
    p.set_defaults(handler=_cmd_concurrence)

    p = sub.add_parser("pump", help="emit the canonical pump matrix for a given P")
    p.add_argument("--p", "--pump-p", dest="p", type=float, required=True, metavar="P")
    p.add_argument("--out", metavar="J.json")
    p.set_defaults(handler=_cmd_pump)

    p = sub.add_parser("scheme", help="build the source state for a settings file")
    p.add_argument("--params", required=True, metavar="PARAMS.json")
    p.add_argument("--oracle", action="store_true", help="use the moment-algebra route")
    p.add_argument("--out", required=True, metavar="RHO.json")
    p.set_defaults(handler=_cmd_scheme)

    p = sub.add_parser("sweep", help="Monte Carlo sweep to CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="threads in one process; the CSV bytes do not depend on it")
    p.add_argument("--out", required=True, metavar="RESULTS.csv")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("verify", help="audit a sweep CSV against the bounds")
    p.add_argument("--in", dest="infile", required=True, metavar="RESULTS.csv")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("saturate", help="bound-reaching setting for a pump P")
    p.add_argument("--pump-p", dest="pump_p", type=float, required=True)
    p.set_defaults(handler=_cmd_saturate)

    p = sub.add_parser(
        "channel-verify",
        help="validate a channel and, given a target, the majorization and bound checks",
    )
    p.add_argument("--channel", required=True, metavar="CHANNEL.json")
    p.add_argument("--source", required=True, metavar="SIGMA.json")
    p.add_argument("--target", metavar="RHO.json")
    p.set_defaults(handler=_cmd_channel_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (PumpLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
