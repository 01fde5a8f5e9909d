"""The benchmark's span tracer still finds every pshdef function it wraps.

perfbench/tracer.py names the functions it wraps; a renamed or removed one
makes `install()` raise, so this test fails before a traced benchmark run
would.
"""

import importlib
import json
from pathlib import Path

import numpy as np

from pshdef import construct, dominance, verify
from pshdef.catalog import type4_domain
from pshdef.wirtinger import im_z

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    originals = (verify.psd_stats, construct.psd_stats, verify.least_eigenvalues)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert construct.psd_stats is verify.psd_stats is not originals[0]
        verify.least_eigenvalues(np.eye(2)[None])
        assert [s[0] for s in tracer.spans] == ["verify.least_eigenvalues"]
    finally:
        tracer.uninstall()
    assert (verify.psd_stats, construct.psd_stats, verify.least_eigenvalues) == originals


def test_wrapped_targets_are_distinct(monkeypatch):
    """Every function the tracer wraps resolves, and no two entries name
    one object: an alias would be wrapped twice, its spans nested."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    targets = []
    for modname, path, *_ in tracer_mod.WRAPPED:
        owner = importlib.import_module(f"pshdef.{modname}")
        for part in path.split("."):
            owner = getattr(owner, part)
        targets.append(owner)
    assert len({id(t) for t in targets}) == len(targets)


def test_rung_counter_matches_ladder(monkeypatch):
    """The benchmark's construct.k_search.rungs counts psd_stats spans
    directly under k_search; every rung the search evaluates at the final
    radius must be one of them and one row of the report's ladder."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.begin_request()
        ks = construct.k_search(type4_domain(10), im_z(1).scale(-4), None, curves=True)
        tracer.end_request()
    finally:
        tracer.uninstall()
    metrics, summary = tracer_mod.analyse(tracer.spans, 1, 1.0)
    assert not ks.shrunk
    assert metrics["construct.k_search.rungs"] == len(ks.ladder) == 2
    assert summary["k_search_ladder_consistent"]


def test_bound_caches_live_on_the_domain(monkeypatch):
    """Each run computes a bound polynomial's boundary quadratic part once,
    and a second DefiningFunction of the same domain computes its own:
    the caches live on the domain, not in the module."""
    seen = []
    quadratic = dominance.boundary_quadratic

    def recording(B, r):
        seen.append((id(r), B))
        return quadratic(B, r)

    monkeypatch.setattr(dominance, "boundary_quadratic", recording)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    tracer = tracer_mod.Tracer()
    tracer.install()
    domains, reports = [], []
    try:
        for _ in range(2):
            r = type4_domain(8)
            tracer.begin_request()
            reports.append(construct.run_construction(r))
            tracer.end_request()
            domains.append(r)
    finally:
        tracer.uninstall()
    for request, r in enumerate(domains):
        calls = [
            s for s in tracer.spans
            if s[0] == "dominance.boundary_quadratic" and s[4] == request
        ]
        bounds = [B for rid, B in seen if rid == id(r)]
        assert len(calls) == len(bounds) >= 1
        assert len(bounds) == len(set(bounds))  # once per distinct bound
    a, b = (json.dumps(rep.as_dict(), sort_keys=True) for rep in reports)
    assert a == b


def test_shells_sampled_once_per_domain(monkeypatch):
    """A run Newton-projects each (radius, samples, seed) shell once, however
    many scans read it, and a second DefiningFunction of the same domain
    samples its own: the shell cache lives on the domain.  The probe shells
    are sampled by `project_probes`, not read through `sample_boundary`."""
    built = []
    sample_ball = verify.sample_ball

    def recording(stream, radii, count, lift):
        built[-1].extend((radius, count, stream.seed) for radius in radii)
        return sample_ball(stream, radii, count, lift)

    monkeypatch.setattr(verify, "sample_ball", recording)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    tracer = tracer_mod.Tracer()
    tracer.install()
    reports = []
    try:
        for _ in range(2):
            built.append([])
            tracer.begin_request()
            reports.append(construct.run_construction(type4_domain(8)))
            tracer.end_request()
    finally:
        tracer.uninstall()
    for request, shells in enumerate(built):
        reads = [
            s for s in tracer.spans
            if s[0] == "verify.sample_boundary" and s[4] == request
        ]
        assert len(shells) == len(set(shells)) >= 1
        probe = {(2.0**-e, 160, 0) for e in dominance.DYADIC_EXPS}
        assert probe <= set(shells)
        assert len(reads) > len(set(shells) - probe)  # the other reads hit the cache
    assert built[0] == built[1]
    a, b = (json.dumps(rep.as_dict(), sort_keys=True) for rep in reports)
    assert a == b
    r = type4_domain(8)
    shell = verify.sample_boundary(r, 1e-2, 50, 3)
    assert verify.sample_boundary(r, 1e-2, 50, 3) is shell
    assert not (shell.Z.flags.writeable or shell.W.flags.writeable)
