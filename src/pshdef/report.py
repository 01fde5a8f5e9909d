"""Report emission: versioned JSON envelope, schema access, CSV tables."""

from __future__ import annotations

import importlib.resources
import json

from .verify import psd_arrays

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
    return out


def dumps_report(d: dict) -> str:
    """Deterministic JSON text: fixed key order, indent 2, trailing newline."""
    return json.dumps(d, indent=2, allow_nan=False) + "\n"


def _fmt(x) -> str:
    return repr(float(x))


def shell_csv(shell, lane) -> str:
    """Point table for a boundary shell of either lane, with the columns of
    the lane's polynomial class (WPoly or RPoly)."""
    cols = lane.point_columns(shell.Z, shell.W)
    rows = [",".join(["index", *cols, "residual"])]
    values = [*cols.values(), shell.residuals]
    for i in range(shell.count):
        rows.append(",".join([str(i), *(_fmt(v[i]) for v in values)]))
    return "\n".join(rows) + "\n"


def hessian_csv(f, shell) -> str:
    """Per-point Hessian statistics table for f over the shell, from the
    shell's stack of f."""
    H = shell.hessian(f)
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
        vals.append(_fmt(eigs[i]))
        rows.append(",".join(vals))
    return "\n".join(rows) + "\n"
