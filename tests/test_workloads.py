"""The benchmark's requests still reach the program.

perfbench/workloads.py calls pshdef through the functions a benchmark run
times (`run_construction`, `psd_check`, `real_hessian_check`,
`necessary_conditions_check`, ...).  A changed name or signature there
would show only as failed benchmark requests, so each warm-up request, one
per lane, goes through the timed call, the outcome summary and the verdict
check here.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_warmup_requests_get_right_verdicts(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    names = [row.name for row in workloads.WARMUP]
    assert sorted(names) == ["ball2", "convex y+x^2", "verify A=10 T=0"]
    for row in workloads.WARMUP:
        (name,) = [n for n, spec in workloads.WORKLOADS.items() if row in spec[2]]
        work = workloads.build(name, seed=0)
        outcome = workloads.summarise(row, workloads.call(row, seed=0))
        assert not outcome.crashed, (row.name, outcome)
        assert workloads.judge(work, row, outcome) == (True, None), (row.name, outcome)
