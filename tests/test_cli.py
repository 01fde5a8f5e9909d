"""Command surface: parsing, exit codes, JSON reports, golden files."""

import ast
import csv
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pshdef import cli, construct, verify
from pshdef.cli import main
from pshdef.exprparse import ExprSyntaxError, parse_wpoly
from pshdef.report import load_schema
from pshdef.wirtinger import canonical_str

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

R10 = "Im(w) + abs2(z)^2 + 100*abs2(z)^3 + 4*Re(z)*Re(w) - 10*Re(w)^2"
R8 = "Im(w) + abs2(z)^2 + 100*abs2(z)^3 + 4*Re(z)*Re(w) - 8*Re(w)^2"
R7 = "Im(w) + abs2(z)^2 + 100*abs2(z)^3 + 4*Re(z)*Re(w) - 7*Re(w)^2"
BALL = "Im(w) + abs2(z)"
BALL2 = "Im(w) + abs2(z1) + abs2(z2)"
C3 = "Im(w) + abs2(z1)^2 + abs2(z2) + 4*Re(z1)*Re(w) - 10*Re(w)^2"

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(payload: dict):
    if jsonschema is None:
        pytest.skip("jsonschema not installed")
    jsonschema.validate(payload, load_schema())


# -- expression round trips ------------------------------------------------


def random_expr(rng: random.Random, depth: int = 0) -> str:
    atoms = ["z", "zbar", "w", "wbar", "i", str(rng.randint(1, 9))]
    if rng.random() < 0.3:
        atoms.append(f"{rng.randint(1, 9)}/{rng.randint(1, 9)}")
    if depth >= 3:
        return rng.choice(atoms)
    roll = rng.random()
    if roll < 0.25:
        return rng.choice(atoms)
    if roll < 0.40:
        f = rng.choice(["Re", "Im", "conj", "abs2"])
        return f"{f}({random_expr(rng, depth + 1)})"
    if roll < 0.55:
        return f"({random_expr(rng, depth + 1)})^{rng.randint(1, 3)}"
    if roll < 0.70:
        return f"-({random_expr(rng, depth + 1)})"
    op = rng.choice(["+", "-", "*"])
    return f"({random_expr(rng, depth + 1)} {op} {random_expr(rng, depth + 1)})"


def test_fifty_random_round_trips():
    rng = random.Random(2024)
    done = 0
    while done < 50:
        src = random_expr(rng)
        p = parse_wpoly(src, nz=1)
        text = canonical_str(p)
        assert parse_wpoly(text, nz=1) == p
        done += 1


def test_real_mode_round_trip():
    from pshdef.exprparse import parse_rpoly

    for src in ("y + x^2", "y + x^4 - 2*x*y", "y"):
        p = parse_rpoly(src, 1)
        assert parse_rpoly(canonical_str(p), 1) == p


def test_syntax_errors_have_positions():
    with pytest.raises(ExprSyntaxError, match="col"):
        parse_wpoly("z ^ (1/2)", nz=1)
    with pytest.raises(ExprSyntaxError):
        parse_wpoly("Im(w) +", nz=1)
    with pytest.raises(ExprSyntaxError, match="unknown variable"):
        parse_wpoly("Im(w) + q", nz=1)


@pytest.mark.parametrize(
    "argv, name, col",
    [
        (("construct", "--r", "Im(w) + abs2(z0)"), "z0", 14),
        (("levi", "--nz", "2", "--r", "Im(w) + abs2(z1) + 2*abs2(z0)"), "z0", 27),
        (("levi", "--r", "Im(w) + z zbar0"), "zbar0", 11),
        (("levi", "--real", "--r", "y + x0^2"), "x0", 5),
        (("construct", "--real", "--nz", "2", "--r", "y + x1^2 + x0^2"), "x0", 12),
    ],
)
def test_index_zero_variable_exit_64(capsys, argv, name, col):
    """z0, zbar0 and x0 name no variable in either lane."""
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err.startswith(f"error: line 1, col {col}: variable {name} out of range")


@pytest.mark.parametrize(
    "argv, name, col",
    [
        (("construct", "--r", "Im(w) + abs2(z01)"), "z01", 14),
        (("levi", "--nz", "2", "--r", "Im(w) + abs2(z1) + 2*abs2(z02)"), "z02", 27),
        (("levi", "--r", "Im(w) + z zbar01"), "zbar01", 11),
        (("levi", "--r", "Im(w) + abs2(z00)"), "z00", 14),
        (("levi", "--real", "--r", "y + x01^2"), "x01", 5),
        (("construct", "--real", "--nz", "2", "--r", "y + x1^2 + x002^2"), "x002", 12),
    ],
)
def test_leading_zero_index_exit_64(capsys, argv, name, col):
    """z01, zbar01 and x01 do not mean z1, zbar1 and x1 in either lane."""
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err.startswith(
        f"error: line 1, col {col}: variable {name} has a leading zero in its index"
    )


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize(
    "argv, size",
    [
        (("construct", "--r", "Im(w) + abs2(z)"), "nz"),
        (("levi", "--real", "--r", "y + x^2"), "nx"),
    ],
    ids=["complex", "real"],
)
def test_variable_count_below_one_exit_64(capsys, argv, size, n):
    """--nz below 1 names no variable slot in either lane."""
    code, out, err = run(capsys, *argv, "--nz", n)
    assert code == 64
    assert out == ""
    assert err == f"error: {size} must be >= 1, got {n}\n"


# -- levi ------------------------------------------------------------------


def test_levi_ball(capsys):
    code, out, _ = run(capsys, "levi", "--r", BALL)
    assert code == 0
    assert out.strip() == "1/4"


def test_levi_real(capsys):
    code, out, _ = run(capsys, "levi", "--r", "y + x^2", "--real")
    assert code == 0
    assert out.strip() == "2"


def test_levi_multivariable(capsys):
    code, out, _ = run(capsys, "levi", "--r", C3)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("L_1 = ")
    assert lines[1].startswith("L_2 = ")


def test_levi_json(capsys):
    code, out, _ = run(capsys, "levi", "--r", BALL, "--json")
    assert code == 0
    d = json.loads(out)
    assert d["status"] == "ok"
    assert d["levi"] == ["1/4"]
    check_schema(d)


# -- analyze ---------------------------------------------------------------


def test_analyze_r10(capsys):
    code, out, _ = run(capsys, "analyze", "--r", R10)
    assert code == 0
    assert out.startswith("pass")
    assert "gate Dominated" in out


def test_analyze_r8_gate(capsys):
    code, out, _ = run(capsys, "analyze", "--r", R8, "--json")
    assert code == 0
    d = json.loads(out)
    assert d["status"] == "pass"
    assert d["gate"]["status"] == "NotDominated"
    assert d["levi"]["negative_count"] == 0
    assert d["levi_origin"] == ["0"]
    check_schema(d)


def test_analyze_r7_fails(capsys):
    code, out, _ = run(capsys, "analyze", "--r", R7, "--samples", "10000", "--json")
    assert code == 1
    d = json.loads(out)
    assert d["status"] == "fail"
    assert d["levi"]["min_value"] < -1e-9
    check_schema(d)


def test_analyze_real_modes(capsys):
    code, out, _ = run(capsys, "analyze", "--r", "y + x^2", "--real")
    assert code == 0
    code, out, _ = run(capsys, "analyze", "--r", "y - x^2", "--real", "--json")
    assert code == 1
    d = json.loads(out)
    assert d["status"] == "fail"
    assert d["convexity_precheck"]["witness"] is not None
    check_schema(d)


# convex in each coordinate direction, but its tangential matrix at 0,
# [[2, 3], [3, 2]], has the eigenvalue -1: the domain is not convex
SADDLE = "y + x1^2 + x2^2 + 3*x1*x2"


def test_analyze_real_reads_the_full_tangential_matrix(capsys):
    code, out, _ = run(capsys, "analyze", "--real", "--r", SADDLE)
    assert code == 1
    assert out.startswith("fail: tangential convexity min -1.000e+00")
    code, out, _ = run(capsys, "analyze", "--real", "--r", SADDLE, "--json")
    assert code == 1
    d = json.loads(out)
    assert d["convexity_precheck"]["min_value"] == pytest.approx(-1.0, abs=1e-12)
    assert set(d["convexity_precheck"]["witness"]) == {"j", "point", "value"}
    check_schema(d)


def test_construct_real_obstructed_off_the_diagonal(capsys):
    code, out, _ = run(capsys, "construct", "--real", "--r", SADDLE, "--json")
    assert code == 1
    d = json.loads(out)
    assert d["status"] == "Obstructed"
    assert d["obstruction"]["kind"] == "not_convex"
    assert d["k_search"] is None
    check_schema(d)
    code, out, _ = run(capsys, "construct", "--real", "--r", SADDLE)
    assert code == 1
    assert "obstruction: not_convex" in out


def test_analyze_csv(capsys, tmp_path):
    target = tmp_path / "points.csv"
    code, _, _ = run(
        capsys, "analyze", "--r", R10, "--samples", "50", "--csv-points", str(target)
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "index,re_z,im_z,re_w,im_w,residual"
    assert len(lines) == 51


# -- construct -------------------------------------------------------------


def test_construct_r10_json(capsys):
    code, out, _ = run(capsys, "construct", "--r", R10, "--json")
    assert code == 0
    d = json.loads(out)
    assert d["status"] == "Certified"
    assert d["command"] == "construct"
    assert d["final"]["T"] == "-4*Im(z)"
    assert d["final"]["K"] == 64
    check_schema(d)


def test_construct_golden_r10(capsys):
    code, out, _ = run(capsys, "construct", "--r", R10, "--json")
    assert code == 0
    assert out == (GOLDEN / "r10_report.json").read_text()


def test_construct_golden_r8(capsys):
    code, out, _ = run(capsys, "construct", "--r", R8, "--json")
    assert code == 0
    assert out == (GOLDEN / "r8_report.json").read_text()


def test_construct_trace_text(capsys):
    code, out, _ = run(capsys, "construct", "--r", R8)
    assert code == 0
    assert "status: Certified" in out
    assert "K search: failed (witness recorded)" in out
    assert "absorbed:" in out
    assert "final: T = -4*Im(z) + 8*Im(z)^2 - 8*Re(z)^2, K = 16" in out


def test_construct_r7_obstructed(capsys):
    code, out, _ = run(capsys, "construct", "--r", R7, "--samples", "10000", "--json")
    assert code == 1
    d = json.loads(out)
    assert d["status"] == "Obstructed"
    assert d["obstruction"]["kind"] == "not_pseudoconvex"
    assert d["obstruction"]["witness"]["min_value"] < 0
    check_schema(d)


# every obstruction kind `construct` can report, with an input reaching it
# and the `construct` budgets it lowers (A=8 needs two stages, and K = 64
# is the first rung that certifies A=10)
OBSTRUCTIONS = {
    "not_pseudoconvex": (["--r", R7], "Obstructed", {}),
    "residual_not_dominated": (
        ["--r", "Im(w) + abs2(z)^3 + abs2(z)*Im(w)"],
        "Obstructed",
        {},
    ),
    "incompatible_system": (
        ["--r", "Im(w) + abs2(z1)^2 + abs2(z2)^2 + 4*Re(z1)*Im(z2)*Re(w) - 10*Re(w)^2"],
        "Obstructed",
        {},
    ),
    "fixpoint": (["--r", C3], "Exhausted", {}),
    "max_stages": (["--r", R8], "Exhausted", {"MAX_STAGES": 1}),
    "k_search_failed": (["--r", R10], "Exhausted", {"MAX_K_EXP": 2}),
}


def obstruction_argv(monkeypatch, kind):
    """The argv and status of OBSTRUCTIONS[kind], its budgets lowered."""
    argv, status, budgets = OBSTRUCTIONS[kind]
    for name, value in budgets.items():
        monkeypatch.setattr(construct, name, value)
    return argv, status


def test_obstruction_table_names_every_kind():
    """A kind that construct.py or cli.py can emit needs a row above."""
    src = Path(__file__).parent.parent / "src" / "pshdef"
    emitted = set()
    for name in ("construct.py", "cli.py"):
        emitted |= set(re.findall(r'"kind": "(\w+)"', (src / name).read_text()))
    assert emitted == set(OBSTRUCTIONS)


@pytest.mark.parametrize("kind", list(OBSTRUCTIONS))
def test_construct_reaches_obstruction(capsys, monkeypatch, kind):
    argv, status = obstruction_argv(monkeypatch, kind)
    code, out, _ = run(capsys, "construct", *argv, "--json")
    d = json.loads(out)
    assert (code, d["status"], d["obstruction"]["kind"]) == (
        {"Obstructed": 1, "Exhausted": 2}[status],
        status,
        kind,
    )
    check_schema(d)


@pytest.mark.parametrize(
    "kind", [k for k in OBSTRUCTIONS if k != "not_pseudoconvex"]
)
def test_construct_trace_names_obstruction(capsys, monkeypatch, kind):
    """Plain-text output says what blocked the run, as --json does: the
    kind and stage, and for incompatible_system the j and monomial."""
    argv, status = obstruction_argv(monkeypatch, kind)
    code, out, _ = run(capsys, "construct", *argv)
    _, js, _ = run(capsys, "construct", *argv, "--json")
    ob = json.loads(js)["obstruction"]
    lines = out.splitlines()
    assert lines[0] == f"status: {status}"
    assert f"obstruction: {kind} at stage {ob['stage']}" in lines
    if kind == "incompatible_system":
        assert f"  j={ob['j']}: monomial {ob['monomial']}" in lines
        assert lines[-1] == "  j=2: monomial -2 * zbar1"


def test_construct_c3_exhausted(capsys):
    code, out, _ = run(capsys, "construct", "--r", C3, "--samples", "600", "--json")
    assert code == 2
    d = json.loads(out)
    assert d["status"] == "Exhausted"
    assert d["obstruction"]["kind"] in ("fixpoint", "max_stages", "k_search_failed")
    check_schema(d)


def test_construct_real(capsys):
    code, out, _ = run(capsys, "construct", "--r", "y + x^2", "--real", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["mode"] == "real"
    assert d["status"] == "Certified"
    check_schema(d)
    code, _, _ = run(capsys, "construct", "--r", "y - x^2", "--real")
    assert code == 1


def test_construct_real_h_floor_claim(capsys):
    """When |1 + r_y| drops below the h floor no ladder runs, and the
    obstruction says so instead of blaming the ladder."""
    code, out, _ = run(
        capsys, "construct", "--real", "--r", "y + 10*x^2 + 800*x*y", "--json"
    )
    assert code == 2
    d = json.loads(out)
    assert d["k_search"]["ladder"] == []
    assert d["obstruction"]["witness"]["h_floor"] == 0.5
    assert d["obstruction"]["claim"] == (
        "|1 + r_y| drops below the h floor 0.5 on the shell, so no ladder K was tried"
    )
    check_schema(d)


def test_construct_real_csv_points(capsys, tmp_path):
    """construct --real writes the shell table that analyze --real writes."""
    built, analyzed = tmp_path / "construct.csv", tmp_path / "analyze.csv"
    lane = ["--real", "--r", "y + x1^2 + x2^4", "--samples", "50"]
    code, out, _ = run(capsys, "construct", *lane, "--csv-points", str(built))
    assert code == 0
    assert out.startswith("status: Certified")
    lines = built.read_text().splitlines()
    assert lines[0] == "index,x1,x2,y,residual"
    assert len(lines) == 51
    assert run(capsys, "analyze", *lane, "--csv-points", str(analyzed))[0] == 0
    assert analyzed.read_text() == built.read_text()


def test_construct_deterministic(capsys):
    code1, out1, _ = run(capsys, "construct", "--r", R10, "--json")
    code2, out2, _ = run(capsys, "construct", "--r", R10, "--json")
    assert (code1, out1) == (code2, out2)


# -- verify ----------------------------------------------------------------


def test_verify_certified_r10(capsys):
    code, out, _ = run(
        capsys, "verify", "--r", R10, "--h", "1 - 4*Im(z)", "--K", "64"
    )
    assert code == 0
    assert out.startswith("pass")


def test_verify_certified_r8(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--r",
        R8,
        "--h",
        "1 - 4*Im(z) + 8*Im(z)^2 - 8*Re(z)^2",
        "--K",
        "16",
    )
    assert code == 0


def test_verify_trivial_h_fails(capsys):
    code, out, _ = run(capsys, "verify", "--r", R10, "--h", "1", "--json")
    assert code == 1
    d = json.loads(out)
    assert d["status"] == "fail"
    assert abs(d["checks"]["psd"]["min_diag"] + 5.0) <= 1e-9
    check_schema(d)


def test_verify_h_must_be_one_at_origin(capsys):
    code, _, err = run(capsys, "verify", "--r", R10, "--h", "2 + Re(z)")
    assert code == 64
    assert "h must equal 1 at the origin" in err


def test_verify_h_must_be_real(capsys):
    code, _, err = run(capsys, "verify", "--r", R10, "--h", "1 + z")
    assert code == 64
    assert "real" in err


def test_verify_collar_and_csv(capsys, tmp_path):
    pts = tmp_path / "pts.csv"
    stats = tmp_path / "stats.csv"
    code, out, _ = run(
        capsys,
        "verify",
        "--r",
        R10,
        "--h",
        "1 - 4*Im(z)",
        "--K",
        "64",
        "--samples",
        "200",
        "--collar",
        "1e-4",
        "--csv-points",
        str(pts),
        "--csv-stats",
        str(stats),
        "--json",
    )
    assert code == 0
    d = json.loads(out)
    assert d["collar"]["non_normative"] is True
    assert d["collar"]["psd"]["passed"]
    check_schema(d)
    assert pts.read_text().splitlines()[0] == "index,re_z,im_z,re_w,im_w,residual"
    header = stats.read_text().splitlines()[0]
    assert header == "index,diag_1,diag_2,minor_1,least_eig"


def csv_minima(path):
    """Minima of the diag_*, minor_* and least_eig columns of a stats CSV."""
    with open(path) as f:
        rows = list(csv.DictReader(f))

    def lowest(prefix):
        return min(float(v) for row in rows for k, v in row.items() if k.startswith(prefix))

    return lowest("diag_"), lowest("minor_"), lowest("least_eig")


@pytest.mark.parametrize(
    "argv, check",
    [
        (["--r", R10, "--h", "1 - 4*Im(z)", "--K", "64"], "psd"),
        (["--r", "y + x1^2 + x2^4", "--nz", "2", "--h", "2 + y", "--real"], "hessian"),
    ],
    ids=["complex", "real"],
)
def test_verify_csv_stats_match_check(capsys, tmp_path, argv, check):
    stats = tmp_path / "stats.csv"
    code, out, _ = run(
        capsys, "verify", *argv, "--samples", "200", "--csv-stats", str(stats), "--json"
    )
    assert code in (0, 1)
    d = json.loads(out)["checks"][check]
    assert csv_minima(stats) == (d["min_diag"], d["min_minor"], d["min_eig"])


def test_verify_real_accepts_certificate(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--r",
        "y + x^2",
        "--h",
        "2 + y + x^2",
        "--real",
    )
    assert code == 0


def test_verify_real_rejects_K_flag(capsys):
    code, _, err = run(
        capsys, "verify", "--r", "y + x^2", "--h", "1", "--real", "--K", "4"
    )
    assert code == 64
    assert "complex-lane flag" in err


def test_verify_real_rejects_collar_flag(capsys):
    """The real lane samples no collar; --collar is refused, not dropped."""
    code, out, err = run(
        capsys, "verify", "--r", "y + x^2", "--h", "2 + y", "--real", "--collar", "1e-4"
    )
    assert code == 64
    assert out == ""
    assert err == "error: --collar is a complex-lane flag; --real checks the boundary only\n"


@pytest.mark.parametrize(
    "flag, value", [("--max-stages", "3"), ("--max-stages", "-5"), ("--max-K-exp", "80")]
)
def test_construct_real_rejects_stage_flags(capsys, flag, value):
    """The stage budget and the top rung are constants in both lanes: the
    real lane, which runs no stages, refuses their retired flags as the
    complex lane does (see `test_unread_flag_exit_64`), whatever the
    value."""
    code, out, err = run(capsys, "construct", "--real", "--r", "y + x^2", flag, value)
    assert code == 64
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("radius", ["1e150", "1e300"])
def test_huge_radius_fails_without_warnings(capsys, radius):
    """Squares and Newton residuals out of the double range mean dropped
    points, not warnings: the run exits 64 with its one error line (the
    suite turns any RuntimeWarning into an error)."""
    code, out, err = run(capsys, "analyze", "--r", "Im(w) + abs2(z)", "--radius", radius)
    assert code == 64
    assert out == ""
    assert err == (
        f"error: only 0/2000 boundary points projectable at radius {float(radius)}\n"
    )


@pytest.mark.parametrize("delta", ["0", "-1", "-1e-4", "nan", "inf"])
def test_verify_collar_rejects_nonpositive_delta(capsys, delta):
    """A collar of width 0 is the boundary, a negative one lies outside
    the domain and an infinite one has no evenly spread targets."""
    code, out, err = run(
        capsys, "verify", "--r", R10, "--h", "1 - 4*Im(z)", "--K", "64", f"--collar={delta}"
    )
    assert code == 64
    assert out == ""
    assert err == f"error: delta must be finite and > 0, got {float(delta)}\n"


@pytest.mark.parametrize("delta", ["0", "-1", "nan"])
def test_verify_collar_checked_before_certificate(capsys, monkeypatch, delta):
    """A bad collar width is refused before the certificate is checked."""

    def refuse(*args):
        raise AssertionError("certificate checked")

    monkeypatch.setattr(cli, "check_certificate", refuse)
    code, out, err = run(
        capsys, "verify", "--r", R10, "--h", "1 - 4*Im(z)", "--K", "64", f"--collar={delta}"
    )
    assert (code, out) == (64, "")
    assert err == f"error: delta must be finite and > 0, got {float(delta)}\n"


def test_verify_real_vanishing_h_fails(capsys):
    code, out, _ = run(
        capsys, "verify", "--r", "y + x^2", "--h", "1 - 300*x", "--real", "--json"
    )
    assert code == 1
    d = json.loads(out)
    assert any("1/2" in m for m in d["messages"])


# (name, r, h, exit code, text): `pshdef verify --real` on each, its JSON in
# tests/golden/verify_real_<name>.json
VERIFY_REAL = [
    ("pass", "y + x^2", "2 + y + x^2", 0, "pass: Hessian min eig 1.999e+00"),
    ("hessian_fail", "y - x^2", "1", 1, "fail: Hessian min eig -2.000e+00"),
    ("floor_fail", "y + x^2", "1 - 300*x", 1, "fail: Hessian min eig -3.075e+02"),
    # h r = r / 4 passes the Hessian scan; the h floor alone fails it
    ("floor_only", "y + x^2", "1/4", 1, "fail: Hessian min eig 0.000e+00"),
]


@pytest.mark.parametrize(
    "name, r, h, code, text", VERIFY_REAL, ids=[row[0] for row in VERIFY_REAL]
)
def test_verify_real_outputs(capsys, name, r, h, code, text):
    """The real lane's certificate rule, pinned through the CLI: text, JSON
    and exit code."""
    argv = ["verify", "--real", "--r", r, "--h", h]
    assert run(capsys, *argv) == (code, text + "\n", "")
    got, out, _ = run(capsys, *argv, "--json")
    assert got == code
    assert out == (GOLDEN / f"verify_real_{name}.json").read_text()


@pytest.mark.parametrize(
    "name, argv",
    [("r10", ["--r", R10]), ("r8", ["--r", R8]), ("ball2", ["--r", BALL2, "--nz", "2"])],
)
def test_analyze_golden(capsys, name, argv):
    """analyze keeps the gradient-vs-Levi gate, byte for byte."""
    code, out, _ = run(capsys, "analyze", *argv, "--json")
    assert code == 0
    assert out == (GOLDEN / f"analyze_{name}.json").read_text()


def test_h_floor_messages_read_h_min(capsys, monkeypatch):
    """Both messages naming the h floor print `verify.H_MIN` as it is at
    the call: the necessary conditions' error and `verify --real`'s note."""
    monkeypatch.setattr(verify, "H_MIN", 10)
    argv = ["verify", "--r", R10, "--h", "1 - 4*Im(z)", "--K", "64", "--json"]
    _, out, _ = run(capsys, *argv)
    assert "h vanishes (|h| < 10) on the sampled shell" in json.loads(out)["messages"]
    _, out, _ = run(capsys, "verify", "--real", "--r", "y + x^2", "--h", "2 + y", "--json")
    assert (
        "h drops below 10 on the shell; Hessian sign is unreliable"
        in json.loads(out)["messages"]
    )


def test_h_floor_has_one_test():
    """Only `verify.h_floor_failure` compares anything with H_MIN."""
    src = Path(__file__).parent.parent / "src" / "pshdef"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                getattr(x, "id", getattr(x, "attr", None)) == "H_MIN"
                for x in ast.walk(node)
            ):
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parent[scope]
                found.append((path.stem, getattr(scope, "name", "<module>")))
    assert found == [("verify", "h_floor_failure")]


# -- report layout ---------------------------------------------------------

HEAD = ["schema_version", "mode", "command", "status", "defining_function"]
REAL = ["--real", "--r", "y + x^2"]


@pytest.mark.parametrize(
    "argv, keys",
    [
        (
            ["analyze", "--r", R10],
            ["config", "normal_form", "levi", "levi_origin", "gate", "messages"],
        ),
        (
            ["analyze", *REAL],
            ["config", "normal_form", "convexity_precheck", "checks", "messages"],
        ),
        (
            ["construct", "--r", R10],
            [
                "config",
                "levi_precheck",
                "shortcut_used",
                "stages",
                "final",
                "obstruction",
                "verification",
                "contraction",
                "cancellation",
                "messages",
            ],
        ),
        (
            ["construct", "--r", R7, "--seed", "3"],
            ["config", "obstruction", "messages"],
        ),
        (
            ["construct", *REAL],
            [
                "config",
                "convexity_precheck",
                "stages",
                "final",
                "obstruction",
                "verification",
                "k_search",
                "messages",
            ],
        ),
        (
            ["verify", "--r", R10, "--h", "1 - 4*Im(z)", "--K", "64"],
            ["config", "checks", "messages"],
        ),
        (
            ["verify", "--r", R10, "--h", "1 - 4*Im(z)", "--K", "64", "--collar", "1e-4"],
            ["config", "checks", "messages", "collar"],
        ),
        (["verify", *REAL, "--h", "2 + y"], ["config", "checks", "messages"]),
        (["levi", "--r", BALL], ["levi", "messages"]),
        (["levi", *REAL], ["tangential", "messages"]),
    ],
    ids=[
        "analyze-complex",
        "analyze-real",
        "construct-complex",
        "construct-not-pseudoconvex",
        "construct-real",
        "verify-complex",
        "verify-complex-collar",
        "verify-real",
        "levi-complex",
        "levi-real",
    ],
)
def test_report_key_order(capsys, argv, keys):
    """Every (subcommand, lane) report keeps its top-level key order."""
    sampling = [] if argv[0] == "levi" else ["--samples", "300"]
    code, out, _ = run(capsys, *argv, *sampling, "--json")
    assert code in (0, 1, 2)
    d = json.loads(out)
    assert list(d) == HEAD + keys
    assert d["command"] == argv[0]
    assert d["mode"] == ("real" if "--real" in argv else "complex")


# -- usage plumbing --------------------------------------------------------


def test_bad_expression_exit_64(capsys):
    code, _, err = run(capsys, "construct", "--r", "z ^ (1/2)")
    assert code == 64
    assert "col" in err


def test_normal_form_violation_exit_64(capsys):
    code, _, err = run(capsys, "construct", "--r", "Re(w)")
    assert code == 64
    assert "error:" in err


SAMPLES_PAST_CAP = str(verify.MAX_SAMPLES + 1)
UNPARSED = "Im(w) + abs2("  # line 1, col 14: unexpected end of input
SAMPLING_SETTINGS = [
    ("samples", "--samples", "0"),
    ("samples", "--samples", "-5"),
    ("samples", "--samples", SAMPLES_PAST_CAP),
    ("radius", "--radius", "0"),
    ("radius", "--radius", "-0.01"),
    ("radius", "--radius", "inf"),
    ("radius", "--radius", "nan"),
    ("seed", "--seed", "-1"),
]
LANES = {"complex": ["--r", R10], "real": ["--r", "y + x^2", "--real"]}


@pytest.mark.parametrize(
    "lane, field, flag, value",
    [
        pytest.param(LANES[name], *case, id="-".join([name, *case]))
        for name in LANES
        for case in SAMPLING_SETTINGS
    ],
)
def test_invalid_config_exit_64(capsys, lane, field, flag, value):
    """Settings no scan can certify from, or a shell past the sample cap,
    are usage errors in both lanes."""
    code, out, err = run(capsys, "construct", *lane, flag, value)
    assert code == 64
    assert out == ""
    assert err.startswith(f"error: {field} must be")


@pytest.mark.parametrize(
    "field, flag, value",
    [
        ("radius", "--radius", "0"),
        ("radius", "--radius", "-1"),
        ("radius", "--radius", "nan"),
        ("radius", "--radius", "inf"),
        ("samples", "--samples", "0"),
        ("samples", "--samples", SAMPLES_PAST_CAP),
        ("seed", "--seed", "-1"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--r", R10, "--h", "1 - 4*Im(z)", "--K", "64"],
        ["verify", "--real", "--r", "y + x^2", "--h", "1"],
        ["analyze", "--r", R10],
        ["analyze", "--real", "--r", "y + x^2"],
        ["analyze", "--r", UNPARSED],
        ["verify", "--r", UNPARSED, "--h", "1"],
        ["construct", "--r", UNPARSED],
    ],
    ids=[
        "verify-complex",
        "verify-real",
        "analyze-complex",
        "analyze-real",
        "analyze-unparsed",
        "verify-unparsed",
        "construct-unparsed",
    ],
)
def test_invalid_sampling_exit_64(capsys, argv, field, flag, value):
    """verify and analyze read the same config; the same settings are
    usage errors there.  Every command builds the config before it parses
    `--r`, so a bad setting is the error reported beside a bad expression."""
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 64
    assert out == ""
    assert err.startswith(f"error: {field} must be")


def test_missing_subcommand_exit_64(capsys):
    assert main([]) == 64


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "pshdef.cli", "levi", "--r", BALL],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1/4"


# the flags each subcommand reads, beyond its own (--h, --csv-points, ...)
EXPRESSION_FLAGS = ["--r", "--nz", "--real", "--json"]
SAMPLING_FLAGS = EXPRESSION_FLAGS + ["--radius", "--samples", "--seed"]
FLAGS = {
    "levi": EXPRESSION_FLAGS,
    "analyze": SAMPLING_FLAGS,
    "verify": SAMPLING_FLAGS,
    "construct": SAMPLING_FLAGS,
}
COMMAND_ARGV = {
    "levi": ["levi", "--r", BALL],
    "analyze": ["analyze", "--r", BALL],
    "verify": ["verify", "--r", BALL, "--h", "1"],
    "construct": ["construct", "--r", BALL],
}


def test_config_fields():
    """One config type for both lanes, holding the sampling settings
    alone: the PSD slack is `verify.TOL`, the degree cap is derived from
    the input, and the stage budget and the top rung are `construct`'s
    constants."""
    from dataclasses import fields

    from pshdef.construct import ConstructConfig
    from pshdef.realconvex import RealConfig

    assert [f.name for f in fields(ConstructConfig)] == ["radius", "samples", "seed"]
    assert RealConfig is ConstructConfig


def test_parser_defaults_are_the_config_defaults():
    """Each sampling subcommand's defaults are read from the config, not
    restated, and each takes exactly its settings; levi takes none."""
    from dataclasses import fields

    from pshdef.cli import build_parser
    from pshdef.construct import ConstructConfig

    sampling = {f.name for f in fields(ConstructConfig)}
    for command, argv in COMMAND_ARGV.items():
        args = vars(build_parser().parse_args(argv))
        settings = set() if command == "levi" else sampling
        assert settings == sampling & set(args), command
        for name in settings:
            assert args[name] == getattr(ConstructConfig(), name), (command, name)


def test_construct_config_is_the_default_config(capsys):
    """A complex construct run with no settings reports `ConstructConfig()`."""
    from pshdef.construct import ConstructConfig

    _, out, _ = run(capsys, *COMMAND_ARGV["construct"], "--json")
    assert json.loads(out)["config"] == ConstructConfig().as_dict()


# (subcommand, a flag it does not read, a valid value for that flag); no
# subcommand reads --tol, --max-stages, --degree-cap or --max-K-exp, which
# set retired knobs
UNREAD_FLAGS = [
    (command, flag, value)
    for command in ("levi", "analyze", "verify", "construct")
    for flag, value in [
        ("--radius", "1e-2"),
        ("--samples", "100"),
        ("--seed", "1"),
        ("--tol", "1e-4"),
        ("--max-stages", "2"),
        ("--degree-cap", "4"),
        ("--max-K-exp", "8"),
    ]
    if flag not in FLAGS[command]
]


@pytest.mark.parametrize(
    "command, flag, value", UNREAD_FLAGS, ids=[f"{c}{f}" for c, f, _ in UNREAD_FLAGS]
)
def test_unread_flag_exit_64(capsys, command, flag, value):
    """A flag a subcommand does not read is a usage error, even with a
    value that would be valid where it is read."""
    code, out, err = run(capsys, *COMMAND_ARGV[command], flag, value)
    assert code == 64
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("flags", [["--bound", "levi"], ["--no-absorb"]])
def test_removed_construction_flags_exit_64(capsys, flags):
    """The stage split and the residual always read the Levi bound, and
    every stage absorbs: neither has a flag."""
    code, _, err = run(capsys, *COMMAND_ARGV["construct"], *flags)
    assert code == 64
    assert f"unrecognized arguments: {flags[0]}" in err


def test_a7_is_obstructed_whatever_the_flags(capsys):
    """A = 7 is not pseudoconvex.  A looser PSD slack once certified it
    (T = -4 Im z, K = 16); now it stops at the Levi scan, and the slack has
    no flag."""
    code, out, err = run(capsys, "construct", "--r", R7)
    assert (code, err) == (1, "")
    assert out.startswith("Obstructed: negative Levi value -8.101e-06")
    assert run(capsys, "construct", "--r", R7, "--tol", "1e-4")[:2] == (64, "")
    code, out, _ = run(capsys, "analyze", "--r", R7)
    assert (code, out[:25]) == (1, "fail: Levi min -8.101e-06")


# sha256 of each golden as it was while the stage budget and the top rung
# were settings
BUDGET_LAYOUT_SHA256 = {
    "analyze_ball2": "10ba833cc56df366c45d64540a9a1b579fd0db7a8534a5bbe400be7d912612dc",
    "analyze_r10": "8d5de3e58e9a2e31c043845fd03ffb8e1e9fb5fb0795ad437983af1755acded7",
    "analyze_r8": "ff8cb81d48a179f087d76db0ddf171a2d123ba0c59d829d5fbabf63d3ae4fd40",
    "r10_report": "7eedd73b2cad5960238b0cfbed8920cc825a9abbde3ab969d7a2d1343abadbac",
    "r8_report": "6c20e7a371a38e3530f11819718db6fda717dfe5c833bb7b7550c0b99846e1f4",
    "verify_real_floor_fail": "aa63b010c842ce46ff44f242ac95d7ba6f8ca7079b28ddf9e674f71e88b86b99",
    "verify_real_floor_only": "61b8c38485ef656b20435f2306bfe1b0a1984ef705496700ce60eb8181ef8ae8",
    "verify_real_hessian_fail": "ec930f3202190e83cc9cb9b178d0276814cdf22c4181385a91156a8efc3e609a",
    "verify_real_pass": "d9f59c82edd93b62d343e0c1b97319dd28bdbd03575e12208184ebd760c7bbfb",
}
# sha256 of each golden as it was while `tol` and `degree_cap` were settings
RETIRED_LAYOUT_SHA256 = {
    "analyze_ball2": "e96ab96cedd7b46e151e51d7841c52faf7a83729b46ea54dd932fe5f4a23a51b",
    "analyze_r10": "80f177af34727dd01e7fc9244bd5a3cb65239f72b4ea1435102641fdeed8b5da",
    "analyze_r8": "445b476bcfc3ba9325164dee8cc8c82625446998f4c72d4d64c159fee05d40ad",
    "r10_report": "5b6f2c3ca2c5644a61bcfd12fffa3c680c881341fb680f5dc2aa4f1e732be566",
    "r8_report": "ce45106d5c3d715f7d174eb937e4f0d79499587e2c6a97653122bc2f017e872c",
    "verify_real_floor_fail": "7094dbe2e37f74aab8f698fa68e3e393c6d20eefdceafe8bf23aeaff17e7d652",
    "verify_real_floor_only": "ecc41bc8781c5292c2b4b11d1ea45c5b4fd1959051e8d473f8f44a975713df84",
    "verify_real_hessian_fail": "f72d4f7f9b92105a8af6a9b247c730edc765d36ef5672f7a43908d4ae7fd1282",
    "verify_real_pass": "9de3209d29c4eaa88f7efe26536f38c2f129cd2798d4e8d5466fb6dfdd812a43",
}


@pytest.mark.parametrize("name", sorted(RETIRED_LAYOUT_SHA256))
def test_golden_lost_only_the_retired_settings(name):
    """Each golden is its earlier texts less the retired settings: the
    construct reports' `config.max_stages` and `config.max_k_exp`, and
    before them every report's `config.tol` and the construct reports'
    `config.degree_cap`.  Put back where they stood, they give those
    texts' digests."""
    import hashlib

    from pshdef.report import dumps_report

    def digest(report):
        return hashlib.sha256(dumps_report(report).encode()).hexdigest()

    report = json.loads((GOLDEN / f"{name}.json").read_text())
    staged = report["command"] == "construct"
    if staged:
        report["config"].update(max_stages=4, max_k_exp=20)
    assert digest(report) == BUDGET_LAYOUT_SHA256[name]
    config = {}
    for key, value in report["config"].items():
        if key == "max_k_exp":
            config["degree_cap"] = None
        config[key] = value
        if key == "seed" and not staged:
            config["tol"] = 1e-9
    if staged:
        config["tol"] = 1e-9
    report["config"] = config
    assert digest(report) == RETIRED_LAYOUT_SHA256[name]


# (subcommand argv, the output flag); each run completes its work first
UNWRITABLE = [
    ["analyze", "--r", R10, "--csv-points"],
    ["construct", "--r", R10, "--csv-points"],
    ["verify", "--r", R10, "--h", "1 - 4*Im(z)", "--K", "64", "--csv-points"],
    ["verify", "--r", R10, "--h", "1 - 4*Im(z)", "--K", "64", "--csv-stats"],
]


@pytest.mark.parametrize("argv", UNWRITABLE, ids=[f"{a[0]}{a[-1]}" for a in UNWRITABLE])
def test_unwritable_output_exit_64(capsys, tmp_path, argv):
    """An output file that cannot be written is a usage error naming it,
    not a traceback."""
    missing = tmp_path / "missing" / "x.csv"
    for path, reason in [(missing, "No such file or directory"), (tmp_path, "Is a directory")]:
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (64, "")
        assert err == f"error: cannot write {path}: {reason}\n"


BIG = "1" + "0" * 400  # 10^400, past the largest double


@pytest.mark.parametrize(
    "argv, term",
    [
        (["analyze", "--r", f"Im(w) + {BIG}*abs2(z)"], f"{BIG} * z zbar"),
        (["construct", "--r", f"Im(w) + {BIG}*abs2(z)"], f"{BIG} * z zbar"),
        (["analyze", "--real", "--r", f"y + {BIG}*x^2"], f"{BIG} * x^2"),
        (["construct", "--real", "--r", f"y + {BIG}*x^2"], f"{BIG} * x^2"),
        # 10^400 r, whose (Re w)^2 term has the coefficient -10, times r
        (["verify", "--r", R10, "--h", "1 - 4*Im(z)", "--K", BIG], f"2{BIG[1:]} * wbar^2"),
    ],
    ids=["analyze", "construct", "analyze-real", "construct-real", "verify-K"],
)
def test_coefficient_outside_double_range_exit_64(capsys, argv, term):
    """A coefficient no double holds is an input error naming its term;
    `levi` stays exact and prints it."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "")
    assert err == f"error: the term {term} has a coefficient outside the double range\n"
    if argv[0] == "analyze":
        lane = argv[1:2] if argv[1] == "--real" else []
        code, out, _ = run(capsys, "levi", *lane, "--r", argv[-1])
        assert code == 0 and int(out) > 10**399  # 10^400 / 4, or 2 * 10^400


@pytest.mark.parametrize("command", list(FLAGS))
def test_help_lists_the_commands_flags(capsys, command):
    """`--help` names the flags of the subcommand's group and its own
    (besides -h, --help)."""
    own = {
        "levi": [],
        "analyze": ["--csv-points"],
        "verify": ["--h", "--K", "--collar", "--csv-points", "--csv-stats"],
        "construct": ["--csv-points"],
    }
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    listed = re.findall(r"^  (--[\w-]+)", out, re.M)
    assert sorted(listed) == sorted(FLAGS[command] + own[command])
