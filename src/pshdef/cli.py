"""Command surface: analyze, construct, verify, levi.

Exit codes: 0 certified/pass, 1 obstructed/fail, 2 unknown/exhausted,
64 usage or input error.  Every subcommand accepts --json for the full
schema-versioned report; the default output is a short human summary.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable

from . import verify
from .construct import ConstructConfig, NotPseudoconvexError, run_construction
from .cr import levi_origin_value, validate_normal_form
from .dominance import levi_dominance_gate
from .exprparse import parse
from .gaussrat import format_gaussian
from .realconvex import (
    RealConfig,
    check_real_certificate,
    convex_multiplier,
    convexity_check,
    validate_real_normal_form,
)
from .report import SCHEMA_VERSION, dumps_report, envelope, hessian_csv, shell_csv
from .verify import (
    ProbeConfigurationError,
    check_certificate,
    check_sampling,
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


class _StageFlag(argparse.Action):
    """A flag of the complex lane's staged search.  It notes in
    `stage_flags` that it was given, so the real lane, which runs no
    stages, can refuse it."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, value)
        namespace.stage_flags += (self.option_strings[0],)


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes the flags it reads: levi the expression flags,
    # analyze and verify those and the sampling flags, construct all of them
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
    sampling.add_argument("--tol", type=float, default=d.tol)
    search = argparse.ArgumentParser(add_help=False, parents=[sampling])
    search.set_defaults(stage_flags=())
    search.add_argument(
        "--max-stages", type=int, default=d.max_stages, action=_StageFlag
    )
    search.add_argument(
        "--degree-cap", type=int, default=d.degree_cap, action=_StageFlag
    )
    search.add_argument("--max-K-exp", dest="max_k_exp", type=int, default=d.max_k_exp)

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
        "construct", parents=[search], help="run the multiplier construction"
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
    config: type  # the construction's config, built from construct's flags
    construct: Callable  # (domain, config) -> report


_LANES = {
    False: _Lane(WPoly, validate_normal_form, ConstructConfig, run_construction),
    True: _Lane(RPoly, validate_real_normal_form, RealConfig, convex_multiplier),
}


def _load(args):
    """The lane of --real and the validated domain of --r."""
    lane = _LANES[args.real]
    return lane, lane.validate(parse(args.r, lane.poly, args.nz))


def _shell(args, r):
    return sample_boundary(r, args.radius, args.samples, args.seed)


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


def _sampling(args) -> dict:
    return {
        "radius": args.radius,
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
    }


def _emit(args, report: dict, human: str) -> None:
    if args.json:
        sys.stdout.write(dumps_report(report))
    else:
        print(human)


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


# -- subcommands ----------------------------------------------------------


def _cmd_analyze(args) -> int:
    check_sampling(args.radius, args.samples, args.seed, args.tol)
    lane, r = _load(args)
    shell = _shell(args, r)
    if args.real:
        conv = convexity_check(r, shell, args.tol)
        self_check = psd_check(r.poly, shell, args.tol)
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
        scan = levi_scan(r, args.radius, args.samples, args.seed, args.tol)
        gate = levi_dominance_gate(r, args.seed)
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
    report["config"] = _sampling(args)
    report["normal_form"] = {"ok": True, "degree": r.poly.degree()}
    report.update(body, messages=[])
    if args.csv_points:
        _write(args.csv_points, shell_csv(shell, lane.poly))
    _emit(args, report, human)
    return _EXIT[status]


def _cmd_construct(args) -> int:
    if args.real and args.stage_flags:
        flag = args.stage_flags[0]
        raise _UsageError(f"{flag} is a complex-lane flag; --real runs no stages")
    lane, r = _load(args)
    config = lane.config(**{f.name: getattr(args, f.name) for f in fields(lane.config)})
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
        _write(args.csv_points, shell_csv(_shell(args, r), lane.poly))
    _emit(args, envelope("construct", rep.as_dict()), rep.trace())
    return _EXIT[rep.status]


def _cmd_verify(args) -> int:
    check_sampling(args.radius, args.samples, args.seed, args.tol)
    if args.real and args.K:
        raise _UsageError("--K is a complex-lane flag; fold K into --h with --real")
    if args.real and args.collar is not None:
        raise _UsageError("--collar is a complex-lane flag; --real checks the boundary only")
    lane, r = _load(args)
    p1 = parse(args.h, lane.poly, r.poly.n)  # h; 1 + T in the complex lane
    config = _sampling(args)
    config["h"] = canonical_str(p1)
    if args.real:
        shell = _shell(args, r)
        checks, failed, rho = check_real_certificate(r, p1, shell, args.tol)
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
        config["K"] = args.K
        if args.collar is not None:  # a bad delta stops before the check
            collar = sample_collar(r, args.radius, args.samples, args.seed, args.collar)
        shell = _shell(args, r)
        checks, failed, rho = check_certificate(r, T, args.K, shell, args.tol)
        psd, nec = checks["psd"], checks["necessary"]
        messages = [nec["error"]] if "error" in nec else []
        bits = [f"psd {'FAIL' if 'psd' in failed else 'ok'} (min eig {psd['min_eig']:.3e}"]
        bits.append(f"min diag {psd['min_diag']:.3e})")
        if not messages:
            bits.append(f"necessary {'FAIL' if 'necessary' in failed else 'ok'}")
        human = ", ".join(bits)
    status = "fail" if failed else "pass"
    report = _head(r, "verify", status)
    report.update(config=config, checks=checks, messages=messages)
    if args.collar is not None:
        report["collar"] = {
            "non_normative": True,
            "delta": args.collar,
            "psd": psd_check(rho, collar, args.tol).as_dict(),
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
