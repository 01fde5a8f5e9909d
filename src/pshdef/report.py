"""Report emission: versioned JSON envelope, schema access, CSV tables."""

from __future__ import annotations

import importlib.resources
import json

from .verify import hessian_values, psd_arrays

SCHEMA_VERSION = 1


def load_schema() -> dict:
    """The packaged report schema (draft-07), version 1."""
    ref = importlib.resources.files("pshdef").joinpath("report.schema.json")
    return json.loads(ref.read_text())


def envelope(command: str, payload: dict) -> dict:
    """Insert the command name into a report dict, after `mode`."""
    out = {}
    for k, v in payload.items():
        out[k] = v
        if k == "mode":
            out["command"] = command
    if "command" not in out:
        out = {"schema_version": SCHEMA_VERSION, "command": command, **payload}
    return out


def dumps_report(d: dict) -> str:
    """Deterministic JSON text: fixed key order, indent 2, trailing newline."""
    return json.dumps(d, indent=2, allow_nan=False) + "\n"


def _fmt(x) -> str:
    return repr(float(x))


def shell_csv(shell) -> str:
    """Point table for a boundary shell, complex or real."""
    rows = []
    if hasattr(shell, "W"):  # complex lane
        nz = shell.Z.shape[1]
        cols = ["index"]
        for j in range(nz):
            tag = "" if nz == 1 else str(j + 1)
            cols += [f"re_z{tag}", f"im_z{tag}"]
        cols += ["re_w", "im_w", "residual"]
        rows.append(",".join(cols))
        for i in range(shell.count):
            vals = [str(i)]
            for j in range(nz):
                vals += [_fmt(shell.Z[i, j].real), _fmt(shell.Z[i, j].imag)]
            vals += [_fmt(shell.W[i].real), _fmt(shell.W[i].imag)]
            vals.append(_fmt(shell.residuals[i]))
            rows.append(",".join(vals))
    else:
        nx = shell.X.shape[1]
        cols = ["index"]
        for j in range(nx):
            cols.append("x" if nx == 1 else f"x{j + 1}")
        cols += ["y", "residual"]
        rows.append(",".join(cols))
        for i in range(shell.count):
            vals = [str(i)]
            vals += [_fmt(shell.X[i, j]) for j in range(nx)]
            vals += [_fmt(shell.Y[i]), _fmt(shell.residuals[i])]
            rows.append(",".join(vals))
    return "\n".join(rows) + "\n"


def hessian_csv(f, shell) -> str:
    """Per-point Hessian statistics table for f over the shell."""
    if hasattr(shell, "W"):
        H = hessian_values(f, shell.Z, shell.W)
    else:
        from .realconvex import real_hessian_values

        H = real_hessian_values(f, shell.X, shell.Y)
    diags, minors, eigs = psd_arrays(H)
    n = H.shape[-1]
    cols = ["index"]
    cols += [f"diag_{a + 1}" for a in range(n)]
    cols += [f"minor_{j + 1}" for j in range(n - 1)]
    cols.append("least_eig")
    rows = [",".join(cols)]
    for i in range(len(eigs)):
        vals = [str(i)]
        vals += [_fmt(diags[i, a]) for a in range(n)]
        vals += [_fmt(minors[i, j]) for j in range(n - 1)]
        vals.append(_fmt(eigs[i, 0]))
        rows.append(",".join(vals))
    return "\n".join(rows) + "\n"
