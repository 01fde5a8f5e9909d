"""Span tracer that wraps pshdef's public functions from outside the program.

`Tracer.install()` replaces each listed function with a wrapper that
records a span (name, start, end, parent, request id) and, for some, one
value read from the arguments or the return value.  The wrapper is bound
into every `pshdef` module namespace that holds the original, so
from-imports (`construct` binds `dominance_check` and `psd_stats` that way)
are traced too.  A listed function that no longer exists is an error.

Spans stay in memory until `write()`.  A span's self time is its duration
minus the durations of its direct children; calls nest strictly because
the benchmark runs one request at a time on one thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, REQUEST, NOTE = range(6)

DOMINANCE_PATHS = {
    "numerator is identically zero": "zero",
    "bound positive at the origin": "origin_positive",
    "numerator nonvanishing where the bound vanishes": "nonvanishing",
    "bound negative at the origin": "origin_negative",
    "bound has positive definite boundary quadratic part": "sylvester",
    "ratio escapes along a probe curve": "curve_escape",
    "shell sup ratios stable": "shell_stable",
    "no certificate, no escaping curve, shell ratios not stable": "unknown",
}


def _project_note(args, kwargs, result):
    ok = result[1]
    return len(ok), int(ok.sum())


# (module, attribute path, span name, note taken before the call, note after)
WRAPPED = (
    ("numeval", "compiled", "numeval.compiled",
     lambda a, k: a[0]._compiled is not None, None),
    ("numeval", "CompiledPoly.eval", "numeval.eval",
     lambda a, k: len(a[2]), None),
    ("wirtinger", "WPoly.__mul__", "wirtinger.mul", None, None),
    ("exprparse", "parse", "exprparse.parse", None, None),
    ("exprparse", "parse_wpoly", "exprparse.parse_wpoly", None, None),
    ("exprparse", "parse_rpoly", "exprparse.parse_rpoly", None, None),
    ("cr", "validate_normal_form", "cr.validate_normal_form", None, None),
    ("cr", "levi_form", "cr.levi_form", None, None),
    ("cr", "hessian_entries", "cr.hessian_entries", None, None),
    ("cr", "hessian_minor_det", "cr.hessian_minor_det", None, None),
    ("cr", "levi_origin_value", "cr.levi_origin_value", None, None),
    ("dominance", "dominance_check", "dominance.dominance_check", None,
     lambda a, k, res: DOMINANCE_PATHS.get(res.reason, "unknown")),
    ("dominance", "levi_dominance_gate", "dominance.levi_dominance_gate", None, None),
    ("dominance", "split_S_E", "dominance.split_S_E",
     lambda a, k: len(a[0].terms), None),
    ("dominance", "real_form", "dominance.real_form", None, None),
    ("dominance", "real_basis_str", "dominance.real_basis_str", None, None),
    ("dominance", "boundary_quadratic", "dominance.boundary_quadratic", None, None),
    ("dominance", "project_probes", "dominance.project_probes", None, None),
    ("dominance", "default_probes", "dominance.default_probes", None, None),
    ("verify", "sample_boundary", "verify.sample_boundary", None,
     lambda a, k, res: res.count),
    ("verify", "project_to_boundary", "verify.project_to_boundary", None,
     _project_note),
    ("verify", "levi_scan", "verify.levi_scan", None, None),
    ("verify", "hessian_values", "verify.hessian_values", None, None),
    ("verify", "least_eigenvalues", "verify.least_eigenvalues", None, None),
    ("verify", "psd_stats", "verify.psd_stats", lambda a, k: len(a[0]), None),
    ("verify", "psd_check", "verify.psd_check", None, None),
    ("verify", "identity_check_prop31", "verify.identity_check_prop31", None, None),
    ("verify", "necessary_conditions_check", "verify.necessary_conditions_check",
     None, None),
    ("construct", "run_construction", "construct.run_construction", None,
     lambda a, k, res: len(res.stages)),
    ("construct", "strong_psc_shortcut", "construct.strong_psc_shortcut", None, None),
    ("construct", "solve_stage", "construct.solve_stage", None, None),
    ("construct", "absorb_r_multiples", "construct.absorb_r_multiples", None, None),
    ("construct", "k_search", "construct.k_search", None,
     lambda a, k, res: (len(res.ladder), res.shrunk)),
    ("realconvex", "validate_real_normal_form", "realconvex.validate_real_normal_form",
     None, None),
    ("realconvex", "convex_multiplier", "realconvex.convex_multiplier", None, None),
    ("realconvex", "sample_real_boundary", "realconvex.sample_real_boundary", None, None),
    ("realconvex", "real_hessian_values", "realconvex.real_hessian_values", None, None),
    ("realconvex", "real_psd_stats", "realconvex.real_psd_stats", None, None),
)

LAYERS = tuple(dict.fromkeys(spec[0] for spec in WRAPPED))
REQUEST_SPAN = "request"


class TracerError(RuntimeError):
    """A function the tracer must wrap is missing from pshdef."""


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id, note]
        self._stack = [-1]
        self._request = -1
        self._undo = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for n, m in list(sys.modules.items())
            if (n == "pshdef" or n.startswith("pshdef.")) and m is not None
        ]
        for modname, path, span, before, after in WRAPPED:
            owner = importlib.import_module(f"pshdef.{modname}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.uninstall()
                raise TracerError(f"pshdef.{modname}.{path} no longer exists")
            wrapper = self._wrap(span, orig, before, after)
            self._set(owner, attr, wrapper)
            if outer:
                continue  # methods are looked up through the class
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, name, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap(self, name, fn, before, after):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], self._request, None]
            stack.append(len(spans))
            spans.append(span)
            if before is not None:
                span[NOTE] = before(args, kwargs)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                span[NOTE] = after(args, kwargs, result)
            return result

        return traced

    # -- requests ---------------------------------------------------------

    def begin_request(self) -> None:
        self._request += 1
        self._stack.append(len(self.spans))
        self.spans.append([REQUEST_SPAN, time.perf_counter(), 0.0, -1, self._request, None])

    def end_request(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter()

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("id\tname\tstart\tend\tparent\trequest\tnote\n")
            for i, s in enumerate(self.spans):
                note = "" if s[NOTE] is None else s[NOTE]
                f.write(f"{i}\t{s[0]}\t{s[1]:.9f}\t{s[2]:.9f}\t{s[3]}\t{s[4]}\t{note}\n")


def analyse(spans: list, requests: int, wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics (per request unless a ratio) and a summary.

    The summary holds each layer's (module's) total self time, the largest
    spans, the self time under k_search and the time no named span covers.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    in_k_search = [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += dur[i]
            in_k_search[i] = in_k_search[p]
        if s[NAME] == "construct.k_search":
            in_k_search[i] = True
    self_s = defaultdict(float)
    calls = defaultdict(int)
    notes = defaultdict(list)
    ks_self = defaultdict(float)
    rungs = 0
    builds = set()
    for i, s in enumerate(spans):
        name = s[NAME]
        st = dur[i] - child[i]
        self_s[name] += st
        calls[name] += 1
        if s[NOTE] is not None:
            notes[name].append(s[NOTE])
        if in_k_search[i]:
            ks_self[name] += st
        p = s[PARENT]
        if p >= 0:
            parent = spans[p][NAME]
            if name == "verify.psd_stats" and parent == "construct.k_search":
                rungs += 1
            if name == "verify.project_to_boundary" and parent == "dominance.project_probes":
                builds.add(p)

    def per_req(x):
        return x / requests

    projected = notes["verify.project_to_boundary"]
    compiled_hits = notes["numeval.compiled"]
    paths = defaultdict(int)
    for p in notes["dominance.dominance_check"]:
        paths[p] += 1
    m = {
        "numeval.eval.calls": per_req(calls["numeval.eval"]),
        "numeval.eval.points": per_req(sum(notes["numeval.eval"])),
        "numeval.eval.self_s": per_req(self_s["numeval.eval"]),
        "numeval.compiled.hit_ratio": (
            sum(compiled_hits) / len(compiled_hits) if compiled_hits else 0.0
        ),
        "wirtinger.mul.calls": per_req(calls["wirtinger.mul"]),
        "wirtinger.mul.self_s": per_req(self_s["wirtinger.mul"]),
        "cr.levi_form.self_s": per_req(self_s["cr.levi_form"]),
        "cr.hessian_minor_det.self_s": per_req(self_s["cr.hessian_minor_det"]),
    }
    for fn in ("dominance_check", "real_form", "boundary_quadratic"):
        m[f"dominance.{fn}.calls"] = per_req(calls[f"dominance.{fn}"])
        m[f"dominance.{fn}.self_s"] = per_req(self_s[f"dominance.{fn}"])
    m["dominance.split_S_E.calls"] = per_req(calls["dominance.split_S_E"])
    m["dominance.split_S_E.terms"] = per_req(sum(notes["dominance.split_S_E"]))
    m["dominance.project_probes.calls"] = per_req(calls["dominance.project_probes"])
    m["dominance.project_probes.builds"] = per_req(len(builds))
    for path in sorted(set(DOMINANCE_PATHS.values())):
        m[f"dominance.path.{path}"] = per_req(paths[path])
    ks_notes = notes["construct.k_search"]
    m.update(
        {
            "verify.psd_stats.calls": per_req(calls["verify.psd_stats"]),
            "verify.psd_stats.matrices": per_req(sum(notes["verify.psd_stats"])),
            "verify.least_eigenvalues.self_s": per_req(self_s["verify.least_eigenvalues"]),
            "verify.least_eigenvalues.in_k_search.self_s": per_req(
                ks_self["verify.least_eigenvalues"]
            ),
            "construct.k_search.calls": per_req(calls["construct.k_search"]),
            "construct.k_search.rungs": per_req(rungs),
            "construct.k_search.shrinks": per_req(sum(s for _, s in ks_notes)),
            "verify.sample_boundary.points": per_req(sum(notes["verify.sample_boundary"])),
            "verify.sample_boundary.self_s": per_req(self_s["verify.sample_boundary"]),
            "verify.project_to_boundary.points": per_req(sum(p for p, _ in projected)),
            "verify.project_to_boundary.converged_ratio": (
                sum(c for _, c in projected) / max(1, sum(p for p, _ in projected))
            ),
            "verify.hessian_values.self_s": per_req(self_s["verify.hessian_values"]),
            "verify.identity_check_prop31.self_s": per_req(
                self_s["verify.identity_check_prop31"]
            ),
            "verify.necessary_conditions_check.self_s": per_req(
                self_s["verify.necessary_conditions_check"]
            ),
            "verify.levi_scan.self_s": per_req(self_s["verify.levi_scan"]),
            "construct.stages": per_req(sum(notes["construct.run_construction"])),
            "construct.solve_stage.self_s": per_req(self_s["construct.solve_stage"]),
            "construct.absorb_r_multiples.self_s": per_req(
                self_s["construct.absorb_r_multiples"]
            ),
            "realconvex.convex_multiplier.self_s": per_req(
                self_s["realconvex.convex_multiplier"]
            ),
            "realconvex.real_psd_stats.calls": per_req(calls["realconvex.real_psd_stats"]),
            "realconvex.sample_real_boundary.self_s": per_req(
                self_s["realconvex.sample_real_boundary"]
            ),
            "exprparse.parse.self_s": per_req(self_s["exprparse.parse"]),
        }
    )
    layers = dict.fromkeys(LAYERS, 0.0)
    for name, t in self_s.items():
        if name != REQUEST_SPAN:
            layers[name.split(".")[0]] += t
    named = sum(layers.values())
    for layer, t in layers.items():
        m[f"layer.{layer}.self_s"] = per_req(t)
    m["trace.coverage"] = named / wall_s
    # every ladder rung evaluated shows as a psd_stats span under k_search;
    # the report's ladder lists the rungs of the final radius only
    ladder_rungs = sum(length for length, _ in ks_notes)
    summary = {
        "layers_self_s": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        "top_spans_self_s": dict(
            sorted(
                ((k, v) for k, v in self_s.items() if k != REQUEST_SPAN),
                key=lambda kv: -kv[1],
            )[:8]
        ),
        "in_k_search_self_s": dict(
            sorted(ks_self.items(), key=lambda kv: -kv[1])[:4]
        ),
        "unattributed_s": wall_s - named,
        "spans": n,
        "k_search_ladder_consistent": ladder_rungs <= rungs,
    }
    return m, summary
