"""Command surface: analyze, construct, verify, levi.

Exit codes: 0 certified/pass, 1 obstructed/fail, 2 unknown/exhausted,
64 usage or input error, an unwritable output file or a coefficient
outside the double range included.  Every subcommand accepts --json for
the full schema-versioned report; the default output is a short summary.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import verify
from .construct import ConstructConfig, NotPseudoconvexError, run_construction
from .cr import levi_origin_value, validate_normal_form
from .dominance import levi_dominance_gate
from .exprparse import parse
from .gaussrat import format_gaussian
from .realconvex import (
    check_real_certificate,
    convex_multiplier,
    convexity_check,
    validate_real_normal_form,
)
from .report import SCHEMA_VERSION, dumps_report, envelope, hessian_csv, shell_csv
from .verify import (
    ProbeConfigurationError,
    check_certificate,
    levi_scan,
    psd_check,
    sample_boundary,
    sample_collar,
)
from .wirtinger import RPoly, WPoly, canonical_str

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
_EXIT = {
    "pass": EXIT_PASS,
    "fail": EXIT_FAIL,
    "unknown": EXIT_UNKNOWN,
    "Certified": EXIT_PASS,
    "Obstructed": EXIT_FAIL,
    "Exhausted": EXIT_UNKNOWN,
}


class _UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes the flags it reads: levi the expression flags,
    # analyze, construct and verify those and the sampling flags
    expression = argparse.ArgumentParser(add_help=False)
    expression.add_argument("--r", required=True, help="defining function expression")
    expression.add_argument("--nz", type=int, help="number of z (or x) variables")
    expression.add_argument("--real", action="store_true", help="real-coordinates lane")
    expression.add_argument(
        "--json", action="store_true", help="emit the full JSON report"
    )
    d = ConstructConfig  # the one home of every default
    sampling = argparse.ArgumentParser(add_help=False, parents=[expression])
    sampling.add_argument("--radius", type=float, default=d.radius)
    sampling.add_argument("--samples", type=int, default=d.samples)
    sampling.add_argument("--seed", type=int, default=d.seed)

    p = argparse.ArgumentParser(
        prog="pshdef",
        description="Plurisubharmonic defining function toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "analyze",
        parents=[sampling],
        help="normal form, Levi diagnostics, dominance gate",
    ).add_argument("--csv-points", metavar="FILE", help="write the shell point table")
    c = sub.add_parser(
        "construct", parents=[sampling], help="run the multiplier construction"
    )
    c.add_argument("--csv-points", metavar="FILE", help="write the shell point table")
    v = sub.add_parser(
        "verify", parents=[sampling], help="check a user-supplied multiplier h"
    )
    v.add_argument(
        "--h",
        required=True,
        help="the K-free multiplier part 1 + T; the full h is this plus K r",
    )
    v.add_argument("--K", type=int, default=0, help="K in h = (1 + T) + K r")
    v.add_argument(
        "--collar",
        type=float,
        metavar="DELTA",
        help="also sample r in (-DELTA, 0); exploratory, non-normative",
    )
    v.add_argument("--csv-points", metavar="FILE", help="write the shell point table")
    v.add_argument(
        "--csv-stats", metavar="FILE", help="write per-point Hessian statistics"
    )
    sub.add_parser("levi", parents=[expression], help="print the symbolic Levi form")
    return p


# -- the lane, chosen once -------------------------------------------------


@dataclass(frozen=True)
class _Lane:
    poly: type  # WPoly | RPoly: names, parsing, printing, point tables, report mode
    validate: Callable  # polynomial -> domain, or a normal-form error
    construct: Callable  # (domain, config) -> report


_LANES = {
    False: _Lane(WPoly, validate_normal_form, run_construction),
    True: _Lane(RPoly, validate_real_normal_form, convex_multiplier),
}


def _load(args):
    """The lane of --real and the validated domain of --r."""
    lane = _LANES[args.real]
    return lane, lane.validate(parse(args.r, lane.poly, args.nz))


def _config(args) -> ConstructConfig:
    """The sampling flags' config; a bad value is a usage error."""
    return ConstructConfig(args.radius, args.samples, args.seed)


def _shell(config, r):
    return sample_boundary(r, config.radius, config.samples, config.seed)


def _head(r, command: str, status: str) -> dict:
    """The keys every report starts with."""
    p = r.poly
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": p.mode,
        "command": command,
        "status": status,
        "defining_function": {p.size_name: p.n, "text": canonical_str(p)},
    }


def _emit(args, report: dict, human: str) -> None:
    if args.json:
        sys.stdout.write(dumps_report(report))
    else:
        print(human)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise _UsageError(f"cannot write {path}: {e.strerror}") from None


# -- subcommands ----------------------------------------------------------


def _cmd_analyze(args) -> int:
    config = _config(args)
    lane, r = _load(args)
    shell = _shell(config, r)
    if args.real:
        conv = convexity_check(r, shell)
        self_check = psd_check(r.poly, shell)
        status = "pass" if conv["passed"] else "fail"
        body = {
            "convexity_precheck": conv,
            "checks": {"hessian_of_r": self_check.as_dict()},
        }
        human = (
            f"{status}: tangential convexity min {conv['min_value']:.3e}; "
            f"Hessian of r itself min eig {self_check.min_eig:.3e}"
        )
    else:
        scan = levi_scan(r, config.radius, config.samples, config.seed)
        gate = levi_dominance_gate(r, config.seed)
        if not scan.nonnegative:
            status = "fail"
        elif gate.status == "Unknown":
            status = "unknown"
        else:
            status = "pass"
        body = {
            "levi": scan.as_dict(),
            "levi_origin": [
                format_gaussian(levi_origin_value(r, j)) for j in range(r.nz)
            ],
            "gate": gate.as_dict(),
        }
        human = (
            f"{status}: Levi min {scan.min_value:.3e} over {scan.count} points; "
            f"gate {gate.status}"
            + (f" (C = {gate.constant:.4g})" if gate.constant is not None else "")
        )
    report = _head(r, "analyze", status)
    report["config"] = config.as_dict()
    report["normal_form"] = {"ok": True, "degree": r.poly.degree()}
    report.update(body, messages=[])
    if args.csv_points:
        _write(args.csv_points, shell_csv(shell, lane.poly))
    _emit(args, report, human)
    return _EXIT[status]


def _cmd_construct(args) -> int:
    config = _config(args)
    lane, r = _load(args)
    try:
        rep = lane.construct(r, config)
    except NotPseudoconvexError as e:
        report = _head(r, "construct", "Obstructed")
        report["config"] = config.as_dict()
        report["obstruction"] = {
            "kind": "not_pseudoconvex",
            "claim": "the Levi scan found a negative tangential value; "
            "no plurisubharmonic defining function exists at this radius",
            "witness": e.scan.as_dict(),
        }
        report["messages"] = []
        _emit(args, report, f"Obstructed: {e}")
        return EXIT_FAIL
    if args.csv_points:
        _write(args.csv_points, shell_csv(_shell(config, r), lane.poly))
    _emit(args, envelope("construct", rep.as_dict()), rep.trace())
    return _EXIT[rep.status]


def _cmd_verify(args) -> int:
    config = _config(args)
    if args.real and args.K:
        raise _UsageError("--K is a complex-lane flag; fold K into --h with --real")
    if args.real and args.collar is not None:
        raise _UsageError("--collar is a complex-lane flag; --real checks the boundary only")
    lane, r = _load(args)
    p1 = parse(args.h, lane.poly, r.poly.n)  # h; 1 + T in the complex lane
    reported = config.as_dict()
    reported["h"] = canonical_str(p1)
    if args.real:
        shell = _shell(config, r)
        checks, failed, rho = check_real_certificate(r, p1, shell)
        messages = ["the log-derivative check is complex-lane only"]
        if "h_floor" in failed:
            messages.append(
                f"h drops below {Fraction(verify.H_MIN)} on the shell; "
                "Hessian sign is unreliable"
            )
        human = f"Hessian min eig {checks['hessian']['min_eig']:.3e}"
    else:
        if not p1.is_real():
            raise _UsageError("h must be a real-valued expression")
        T = p1 - WPoly.one(r.nz)
        if T.min_degree() == 0 and not T.is_zero():
            raise _UsageError("h must equal 1 at the origin")
        reported["K"] = args.K
        if args.collar is not None:  # a bad delta stops before the check
            collar = sample_collar(
                r, config.radius, config.samples, config.seed, args.collar
            )
        shell = _shell(config, r)
        checks, failed, rho = check_certificate(r, T, args.K, shell)
        psd, nec = checks["psd"], checks["necessary"]
        messages = [nec["error"]] if "error" in nec else []
        bits = [f"psd {'FAIL' if 'psd' in failed else 'ok'} (min eig {psd['min_eig']:.3e}"]
        bits.append(f"min diag {psd['min_diag']:.3e})")
        if not messages:
            bits.append(f"necessary {'FAIL' if 'necessary' in failed else 'ok'}")
        human = ", ".join(bits)
    status = "fail" if failed else "pass"
    report = _head(r, "verify", status)
    report.update(config=reported, checks=checks, messages=messages)
    if args.collar is not None:
        report["collar"] = {
            "non_normative": True,
            "delta": args.collar,
            "psd": psd_check(rho, collar).as_dict(),
        }
    if args.csv_points:
        _write(args.csv_points, shell_csv(shell, lane.poly))
    if args.csv_stats:
        _write(args.csv_stats, hessian_csv(rho, shell))
    _emit(args, report, f"{status}: {human}")
    return _EXIT[status]


def _cmd_levi(args) -> int:
    lane, r = _load(args)
    key, label = ("tangential", "L~") if args.real else ("levi", "L")
    n = r.poly.n
    forms = [canonical_str(r.levi(j)) for j in range(n)]
    report = _head(r, "levi", "ok")
    report[key] = forms
    report["messages"] = []
    human = "\n".join(
        f"{label}_{j + 1} = {t}" if n > 1 else t for j, t in enumerate(forms)
    )
    _emit(args, report, human)
    return EXIT_PASS


_DISPATCH = {
    "analyze": _cmd_analyze,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "levi": _cmd_levi,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PASS if not e.code else EXIT_USAGE
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, ProbeConfigurationError) as e:
        # parse, normal-form and config errors and _UsageError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
