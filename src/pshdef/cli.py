"""Command surface: analyze, construct, verify, levi.

Exit codes: 0 certified/pass, 1 obstructed/fail, 2 unknown/exhausted,
64 usage or input error.  Every subcommand accepts --json for the full
schema-versioned report; the default output is a short human summary.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
from fractions import Fraction

from .cr import NormalFormError, levi_form, levi_origin_value, validate_normal_form
from .construct import (
    ConstructConfig,
    NotPseudoconvexError,
    run_construction,
)
from .dominance import Bound, default_probes, levi_dominance_gate
from .exprparse import ExprSyntaxError, parse_rpoly, parse_wpoly
from .gaussrat import format_gaussian
from .report import dumps_report, envelope, hessian_csv, shell_csv
from .verify import (
    H_MIN,
    ProbeConfigurationError,
    check_sampling,
    identity_check_prop31,
    levi_scan,
    necessary_conditions_check,
    psd_check,
    sample_boundary,
    sample_collar,
)
from .wirtinger import WPoly, canonical_str

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--r", required=True, help="defining function expression")
    common.add_argument("--nz", type=int, help="number of z (or x) variables")
    common.add_argument("--radius", type=float, default=1e-2)
    common.add_argument("--samples", type=int, default=2000)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--max-stages", type=int, default=4)
    common.add_argument("--degree-cap", type=int, default=None)
    common.add_argument("--max-K-exp", dest="max_k_exp", type=int, default=20)
    common.add_argument("--tol", type=float, default=1e-9)
    common.add_argument(
        "--bound",
        choices=[b.value for b in Bound],
        default=Bound.LEVI_ONLY.value,
        help="dominance bound: the Levi form alone or with |grad_z r|^2",
    )
    common.add_argument("--real", action="store_true", help="real-coordinates lane")
    common.add_argument("--json", action="store_true", help="emit the full JSON report")
    common.add_argument(
        "--no-absorb",
        dest="absorb",
        action="store_false",
        help="keep r-multiples in stage increments",
    )

    p = argparse.ArgumentParser(
        prog="pshdef",
        description="Plurisubharmonic defining function toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "analyze",
        parents=[common],
        help="normal form, Levi diagnostics, dominance gate",
    ).add_argument("--csv-points", metavar="FILE", help="write the shell point table")
    c = sub.add_parser(
        "construct", parents=[common], help="run the multiplier construction"
    )
    c.add_argument("--csv-points", metavar="FILE", help="write the shell point table")
    v = sub.add_parser(
        "verify", parents=[common], help="check a user-supplied multiplier h"
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
    sub.add_parser("levi", parents=[common], help="print the symbolic Levi form")
    return p


# -- input plumbing -------------------------------------------------------


def _load_complex(args):
    poly = parse_wpoly(args.r, args.nz)
    return validate_normal_form(poly)


def _load_real(args):
    from .realconvex import validate_real_normal_form

    poly = parse_rpoly(args.r, args.nz)
    return validate_real_normal_form(poly)


def _config(args) -> ConstructConfig:
    return ConstructConfig(
        radius=args.radius,
        samples=args.samples,
        seed=args.seed,
        max_stages=args.max_stages,
        degree_cap=args.degree_cap,
        max_k_exp=args.max_k_exp,
        tol=args.tol,
        bound=Bound(args.bound),
        absorb=args.absorb,
    )


def _real_config(args):
    from .realconvex import RealConfig

    return RealConfig(
        radius=args.radius,
        samples=args.samples,
        seed=args.seed,
        max_k_exp=args.max_k_exp,
        tol=args.tol,
    )


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
    check_sampling(args.radius, args.samples, args.tol)
    if args.real:
        return _cmd_analyze_real(args)
    r = _load_complex(args)
    scan = levi_scan(r, args.radius, args.samples, args.seed, args.tol)
    gate = levi_dominance_gate(r, default_probes(r.nz, args.seed))
    origin = [format_gaussian(levi_origin_value(r, j)) for j in range(r.nz)]
    if not scan.nonnegative:
        status, code = "fail", EXIT_FAIL
    elif gate.status == "Unknown":
        status, code = "unknown", EXIT_UNKNOWN
    else:
        status, code = "pass", EXIT_PASS
    report = {
        "schema_version": 1,
        "mode": "complex",
        "command": "analyze",
        "status": status,
        "defining_function": {"nz": r.nz, "text": canonical_str(r.poly)},
        "config": {
            "radius": args.radius,
            "samples": args.samples,
            "seed": args.seed,
            "tol": args.tol,
        },
        "normal_form": {"ok": True, "degree": r.poly.degree()},
        "levi": scan.as_dict(),
        "levi_origin": origin,
        "gate": gate.as_dict(),
        "messages": [],
    }
    if args.csv_points:
        shell = sample_boundary(r, args.radius, args.samples, args.seed)
        _write(args.csv_points, shell_csv(shell))
    human = (
        f"{status}: Levi min {scan.min_value:.3e} over {scan.count} points; "
        f"gate {gate.status}"
        + (f" (C = {gate.constant:.4g})" if gate.constant is not None else "")
    )
    _emit(args, report, human)
    return code


def _cmd_analyze_real(args) -> int:
    from .realconvex import (
        canonical_rstr,
        convexity_check,
        real_hessian_check,
        sample_real_boundary,
    )

    r = _load_real(args)
    shell = sample_real_boundary(r, args.radius, args.samples, args.seed)
    conv = convexity_check(r, shell, args.tol)
    self_check = real_hessian_check(r.poly, shell, args.tol)
    status = "pass" if conv["passed"] else "fail"
    report = {
        "schema_version": 1,
        "mode": "real",
        "command": "analyze",
        "status": status,
        "defining_function": {"nx": r.nx, "text": canonical_rstr(r.poly)},
        "config": {
            "radius": args.radius,
            "samples": args.samples,
            "seed": args.seed,
            "tol": args.tol,
        },
        "normal_form": {"ok": True, "degree": r.poly.degree()},
        "convexity_precheck": conv,
        "checks": {"hessian_of_r": self_check.as_dict()},
        "messages": [],
    }
    if args.csv_points:
        _write(args.csv_points, shell_csv(shell))
    human = (
        f"{status}: tangential convexity min {conv['min_value']:.3e}; "
        f"Hessian of r itself min eig {self_check.min_eig:.3e}"
    )
    _emit(args, report, human)
    return EXIT_PASS if status == "pass" else EXIT_FAIL


_STATUS_EXIT = {"Certified": EXIT_PASS, "Obstructed": EXIT_FAIL, "Exhausted": EXIT_UNKNOWN}


def _cmd_construct(args) -> int:
    if args.real:
        from .realconvex import convex_multiplier

        rep = convex_multiplier(_load_real(args), _real_config(args))
        _emit(args, envelope("construct", rep.as_dict()), rep.trace())
        return _STATUS_EXIT[rep.status]
    r = _load_complex(args)
    try:
        rep = run_construction(r, _config(args))
    except NotPseudoconvexError as e:
        report = {
            "schema_version": 1,
            "mode": "complex",
            "command": "construct",
            "status": "Obstructed",
            "defining_function": {"nz": r.nz, "text": canonical_str(r.poly)},
            "config": _config(args).as_dict(),
            "obstruction": {
                "kind": "not_pseudoconvex",
                "claim": "the Levi scan found a negative tangential value; "
                "no plurisubharmonic defining function exists at this radius",
                "witness": e.scan.as_dict(),
            },
            "messages": [],
        }
        _emit(args, report, f"Obstructed: {e}")
        return EXIT_FAIL
    if args.csv_points:
        shell = sample_boundary(r, args.radius, args.samples, args.seed)
        _write(args.csv_points, shell_csv(shell))
    _emit(args, envelope("construct", rep.as_dict()), rep.trace())
    return _STATUS_EXIT[rep.status]


def _cmd_verify(args) -> int:
    check_sampling(args.radius, args.samples, args.tol)
    if args.real:
        return _cmd_verify_real(args)
    r = _load_complex(args)
    p1 = parse_wpoly(args.h, r.nz)  # 1 + T
    if not p1.is_real():
        raise _UsageError("h must be a real-valued expression")
    T = p1 - WPoly.one(r.nz)
    if T.min_degree() == 0 and not T.is_zero():
        raise _UsageError("h must equal 1 at the origin")
    h = p1 + r.poly.scale(Fraction(args.K))
    shell = sample_boundary(r, args.radius, args.samples, args.seed)
    rho = h * r.poly
    psd = psd_check(rho, shell, args.tol)
    ident = identity_check_prop31(r, args.K, T, shell)
    messages = []
    try:
        nec = necessary_conditions_check(r, h, shell, args.K, args.tol)
        nec_dict = nec.as_dict()
        nec_failed = not nec.all_hold or (
            nec.log_deriv_verdict is not None
            and nec.log_deriv_verdict.status == "NotDominated"
        )
    except ValueError as e:
        nec, nec_dict, nec_failed = None, {"error": str(e)}, True
        messages.append(str(e))
    failed = (not psd.passed) or (not ident.passed) or nec_failed
    status = "fail" if failed else "pass"
    report = {
        "schema_version": 1,
        "mode": "complex",
        "command": "verify",
        "status": status,
        "defining_function": {"nz": r.nz, "text": canonical_str(r.poly)},
        "config": {
            "radius": args.radius,
            "samples": args.samples,
            "seed": args.seed,
            "tol": args.tol,
            "h": canonical_str(p1),
            "K": args.K,
        },
        "checks": {
            "psd": psd.as_dict(),
            "identity": ident.as_dict(),
            "necessary": nec_dict,
        },
        "messages": messages,
    }
    if args.collar is not None:
        collar = sample_collar(r, args.radius, args.samples, args.seed, args.collar)
        report["collar"] = {
            "non_normative": True,
            "delta": args.collar,
            "psd": psd_check(rho, collar, args.tol).as_dict(),
        }
    if args.csv_points:
        _write(args.csv_points, shell_csv(shell))
    if args.csv_stats:
        _write(args.csv_stats, hessian_csv(rho, shell))
    bits = [f"psd {'ok' if psd.passed else 'FAIL'} (min eig {psd.min_eig:.3e}"]
    bits.append(f"min diag {psd.min_diag:.3e})")
    bits.append(f"identity {'ok' if ident.passed else 'FAIL'}")
    if nec is not None:
        bits.append(f"necessary {'ok' if not nec_failed else 'FAIL'}")
    _emit(args, report, f"{status}: " + ", ".join(bits))
    return EXIT_PASS if status == "pass" else EXIT_FAIL


def _cmd_verify_real(args) -> int:
    from .realconvex import canonical_rstr, real_hessian_check, sample_real_boundary

    if args.K:
        raise _UsageError("--K is a complex-lane flag; fold K into --h with --real")
    r = _load_real(args)
    h = parse_rpoly(args.h, r.nx)
    shell = sample_real_boundary(r, args.radius, args.samples, args.seed)
    habs = np.abs(h.eval(shell.X, shell.Y))
    messages = ["identity and necessary-condition checks are complex-lane only"]
    rho = h * r.poly
    check = real_hessian_check(rho, shell, args.tol)
    floor_ok = bool(habs.min() >= H_MIN)
    if not floor_ok:
        messages.append("h drops below 1/2 on the shell; Hessian sign is unreliable")
    status = "pass" if (check.passed and floor_ok) else "fail"
    report = {
        "schema_version": 1,
        "mode": "real",
        "command": "verify",
        "status": status,
        "defining_function": {"nx": r.nx, "text": canonical_rstr(r.poly)},
        "config": {
            "radius": args.radius,
            "samples": args.samples,
            "seed": args.seed,
            "tol": args.tol,
            "h": canonical_rstr(h),
        },
        "checks": {"hessian": check.as_dict()},
        "messages": messages,
    }
    if args.csv_points:
        _write(args.csv_points, shell_csv(shell))
    if args.csv_stats:
        _write(args.csv_stats, hessian_csv(rho, shell))
    _emit(args, report, f"{status}: Hessian min eig {check.min_eig:.3e}")
    return EXIT_PASS if status == "pass" else EXIT_FAIL


def _cmd_levi(args) -> int:
    if args.real:
        from .realconvex import canonical_rstr, tangential_form

        r = _load_real(args)
        forms = [canonical_rstr(tangential_form(r, j)) for j in range(r.nx)]
        report = {
            "schema_version": 1,
            "mode": "real",
            "command": "levi",
            "status": "ok",
            "defining_function": {"nx": r.nx, "text": canonical_rstr(r.poly)},
            "tangential": forms,
            "messages": [],
        }
        human = "\n".join(
            f"L~_{j + 1} = {t}" if r.nx > 1 else t for j, t in enumerate(forms)
        )
        _emit(args, report, human)
        return EXIT_PASS
    r = _load_complex(args)
    forms = [canonical_str(levi_form(r, j)) for j in range(r.nz)]
    report = {
        "schema_version": 1,
        "mode": "complex",
        "command": "levi",
        "status": "ok",
        "defining_function": {"nz": r.nz, "text": canonical_str(r.poly)},
        "levi": forms,
        "messages": [],
    }
    human = "\n".join(
        f"L_{j + 1} = {t}" if r.nz > 1 else t for j, t in enumerate(forms)
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
    except (ExprSyntaxError, _UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (NormalFormError, ProbeConfigurationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
