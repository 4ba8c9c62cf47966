"""Spans, profiler counts and result probes for the traced run.

Spans are recorded by the benchmark around each call it makes into a
liecert layer, one root span per item.  `cProfile` runs only while an
item runs; from its table we keep call counts and cumulative times of a
fixed list of public functions, and split all profiled time into
per-layer self time.  For the duration of the traced phase, probes wrap
check_anosov, find_anosov_elements, weyl_chambers and cli.main to tally
what they returned.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy
import sympy

PERFBENCH = Path(__file__).resolve().parent
# directory prefix -> layer name; liecert modules are layers of their own
_PREFIXES = (
    (str(PERFBENCH.parent / "src" / "liecert") + os.sep, None),
    (str(PERFBENCH) + os.sep, "bench"),
    (os.path.dirname(sympy.__file__) + os.sep, "sympy"),
    (os.path.dirname(numpy.__file__) + os.sep, "numpy"),
)

# metric prefix -> (liecert module, function name)
PROFILED = {
    "linalg.rref": ("linalg", "rref"),
    "linalg.in_span": ("linalg", "in_span"),
    "linalg.matmul": ("linalg", "matmul"),
    "linalg.mat_pow": ("linalg", "mat_pow"),
    "linalg.charpoly": ("linalg", "charpoly"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "poly.root_sign_counts": ("poly", "root_sign_counts"),
    "spectral.char_poly": ("spectral", "char_poly"),
    "spectral.jordan_chevalley": ("spectral", "jordan_chevalley"),
    "spectral.invariant_splitting": ("spectral", "invariant_splitting"),
    "spectral.spectral_gap": ("spectral", "spectral_gap"),
    "algebra.radical": ("algebra", "radical"),
    "algebra.killing_form": ("algebra", "killing_form"),
    "algebra.nilradical": ("algebra", "nilradical"),
    "algebra.lie_algebra_from_matrices": ("algebra", "lie_algebra_from_matrices"),
    "cartan.find_csa": ("cartan", "find_csa"),
    "cartan.is_csa": ("cartan", "is_csa"),
    "cartan.cartan_subspace": ("cartan", "cartan_subspace"),
    "cartan.restricted_roots": ("cartan", "restricted_roots"),
    "cartan.weyl_chambers": ("cartan", "weyl_chambers"),
    "anosov.check_anosov": ("anosov", "check_anosov"),
    "anosov.find_anosov_elements": ("anosov", "find_anosov_elements"),
    "anosov.classify": ("anosov", "classify"),
    "documents.parse_document": ("documents", "parse_document"),
    "documents.provenance": ("documents", "provenance"),
    "cli.main": ("cli", "main"),
}

# the layers whose calls from cli.py count as decision and structure work
DECISION_LAYERS = ("algebra", "cartan", "anosov")

LAYERS = (
    "linalg", "poly", "spectral", "algebra", "cartan", "anosov",
    "documents", "cli", "sympy", "numpy", "bench",
)
SPAN_LAYERS = ("bench", "cli", "algebra", "cartan", "anosov")

# every per-layer metric the traced run reports, in print order
PER_LAYER = (
    "setup.import_s",
    "linalg.rref.calls", "linalg.rref.cum_s", "linalg.in_span.calls",
    "linalg.matmul.calls", "linalg.matmul.cum_s", "linalg.mat_pow.cum_s",
    "linalg.charpoly.calls", "linalg.charpoly.cum_s",
    "linalg.nullspace.calls", "linalg.nullspace.cum_s",
    "poly.root_sign_counts.calls", "poly.root_sign_counts.cum_s",
    "spectral.char_poly.calls", "spectral.jordan_chevalley.cum_s",
    "spectral.invariant_splitting.cum_s", "spectral.spectral_gap.cum_s",
    "sympy_bridge.factor_list.calls", "sympy_bridge.factor_list.cum_s",
    "algebra.radical.calls", "algebra.radical.cum_s", "algebra.killing_form.calls",
    "algebra.nilradical.cum_s", "algebra.lie_algebra_from_matrices.cum_s",
    "cartan.find_csa.cum_s", "cartan.is_csa.cum_s",
    "cartan.cartan_subspace.cum_s", "cartan.restricted_roots.cum_s",
    "cartan.weyl_chambers.cum_s", "cartan.weyl_chambers.sign_vectors",
    "cartan.weyl_chambers.useful_ratio",
    "anosov.check_anosov.calls", "anosov.check_anosov.cum_s",
    "anosov.check_anosov.accepted", "anosov.check_anosov.refused",
    "anosov.find_anosov_elements.cum_s", "anosov.find_anosov_elements.useful_ratio",
    "anosov.classify.cum_s",
    "documents.parse_document.cum_s", "documents.provenance.cum_s",
    "cli.main.calls", "cli.main.self_s",
    *(f"cli.exit.{code}.count" for code in range(4)),
    *(f"self_s.{layer}" for layer in LAYERS),
    *(f"span.{layer}.self_s" for layer in SPAN_LAYERS),
    "trace.items_per_s_untraced", "trace.items_per_s_traced", "trace.overhead_items_per_s",
)


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".count", ".sign_vectors", ".accepted", ".refused")):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if "items_per_s" in name:
        return "1/s"
    return "s"


class NullTracer:
    """Tracing off: calls go straight through."""

    def begin_item(self, key: str) -> None:
        pass

    def end_item(self) -> None:
        pass

    def call(self, layer, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class SpanTracer:
    """Spans kept in memory, one root span per item, written at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self.profile = cProfile.Profile()
        self._item: dict | None = None

    def begin_item(self, key: str) -> None:
        self._item = {
            "id": len(self.spans), "item": key, "parent": None,
            "layer": "bench", "name": key, "start": time.perf_counter(),
        }
        self.spans.append(self._item)
        self.profile.enable()

    def end_item(self) -> None:
        self.profile.disable()
        self._item["end"] = time.perf_counter()
        self._item = None

    def call(self, layer, name, fn, *args, **kwargs):
        span = {
            "id": len(self.spans), "item": self._item["item"],
            "parent": self._item["id"], "layer": layer, "name": name,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")

    def span_self_times(self) -> dict[str, float]:
        """Per layer: span duration minus the part its child spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(SPAN_LAYERS, 0.0)
        for s in self.spans:
            out[s["layer"]] += s["end"] - s["start"] - child[s["id"]]
        return out


# -- probes -------------------------------------------------------------------------


class Probes:
    """Tally results of check_anosov, find_anosov_elements, weyl_chambers, cli.main.

    Each function is replaced, in every liecert module that bound it, by
    a wrapper that calls the original; `restore` puts the originals back.
    """

    def __init__(self):
        self.counts = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self._searching = 0
        self.wrapper_codes: set = set()

    def _wrap(self, module: str, name: str, make) -> None:
        orig = getattr(sys.modules[f"liecert.{module}"], name)
        wrapper = make(orig)
        self.wrapper_codes.add(_code_key(wrapper))
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("liecert") and getattr(mod, name, None) is orig:
                self._saved.append((mod, name, orig))
                setattr(mod, name, wrapper)

    def install(self) -> None:
        from liecert.anosov import AnosovCertificate

        c = self.counts

        def check(orig):
            def check_anosov(*args, **kwargs):
                res = orig(*args, **kwargs)
                c["accepted" if isinstance(res, AnosovCertificate) else "refused"] += 1
                if self._searching:
                    c["search_candidates"] += 1
                return res
            return check_anosov

        def search(orig):
            def find_anosov_elements(*args, **kwargs):
                self._searching += 1
                try:
                    res = orig(*args, **kwargs)
                finally:
                    self._searching -= 1
                c["search_found"] += len(res)
                return res
            return find_anosov_elements

        def chambers(orig):
            def weyl_chambers(rs):
                res = orig(rs)
                c["sign_vectors"] += 1 << len(res.representatives)
                c["chambers"] += res.count
                return res
            return weyl_chambers

        def main(orig):
            def cli_main(*args, **kwargs):
                rc = orig(*args, **kwargs)
                c[f"exit.{rc}"] += 1
                return rc
            return cli_main

        self._wrap("anosov", "check_anosov", check)
        self._wrap("anosov", "find_anosov_elements", search)
        self._wrap("cartan", "weyl_chambers", chambers)
        self._wrap("cli", "main", main)

    def restore(self) -> None:
        for mod, name, orig in reversed(self._saved):
            setattr(mod, name, orig)
        self._saved.clear()

    def values(self) -> dict[str, float]:
        c = self.counts
        v = {
            "anosov.check_anosov.accepted": c["accepted"],
            "anosov.check_anosov.refused": c["refused"],
            "anosov.find_anosov_elements.useful_ratio": (
                c["search_found"] / c["search_candidates"] if c["search_candidates"] else 0.0),
            "cartan.weyl_chambers.sign_vectors": c["sign_vectors"],
            "cartan.weyl_chambers.useful_ratio": (
                c["chambers"] / c["sign_vectors"] if c["sign_vectors"] else 0.0),
        }
        for code in range(4):
            v[f"cli.exit.{code}.count"] = c[f"exit.{code}"]
        return v


def _code_key(fn) -> tuple:
    co = fn.__code__
    return (co.co_filename, co.co_firstlineno, co.co_name)


# -- profile tables ----------------------------------------------------------------


def _layer_of(filename: str) -> str | None:
    """The layer a profiled function belongs to; None for other code."""
    for prefix, layer in _PREFIXES:
        if filename.startswith(prefix):
            return layer or os.path.splitext(filename[len(prefix):])[0]
    return None


def _is_liecert(filename: str) -> bool:
    return filename.startswith(_PREFIXES[0][0])


def _owners(stats: dict) -> dict:
    """Layer shares per function; library code inherits from its callers."""
    owner = {}
    for key in stats:
        layer = _layer_of(key[0])
        if layer is not None:
            owner[key] = {layer: 1.0}
    for _ in range(100):
        changed = False
        for key, (_, _, _, _, callers) in stats.items():
            if _layer_of(key[0]) is not None:
                continue
            dist: dict[str, float] = defaultdict(float)
            total = 0.0
            for caller, (_, nc, _, ct) in callers.items():
                d = owner.get(caller)
                if d is None:
                    continue
                w = ct if ct > 0 else nc * 1e-9
                for layer, share in d.items():
                    dist[layer] += w * share
                total += w
            if total <= 0:
                continue
            new = {layer: v / total for layer, v in dist.items()}
            old = owner.get(key)
            if old is None or any(abs(new.get(k, 0) - old.get(k, 0)) > 1e-12 for k in set(new) | set(old)):
                owner[key] = new
                changed = True
        if not changed:
            break
    return owner


def profile_metrics(profile: cProfile.Profile, wrapper_codes: set) -> dict[str, float]:
    """Counts, cumulative times and per-layer self time from one profile."""
    stats = pstats.Stats(profile).stats
    by_name = defaultdict(list)
    for key in stats:
        layer = _layer_of(key[0])
        if layer is not None:
            by_name[(layer, key[2])].append(key)
    out: dict[str, float] = {}
    for prefix, where in PROFILED.items():
        keys = by_name.get(where, [])
        out[f"{prefix}.calls"] = sum(stats[k][1] for k in keys)
        out[f"{prefix}.cum_s"] = sum(stats[k][3] for k in keys)

    # the sympy bridge: factor_list calls made from liecert code
    calls, cum = 0, 0.0
    for key, (_, _, _, _, callers) in stats.items():
        if key[2] == "factor_list" and _layer_of(key[0]) == "sympy":
            for caller, (_, nc, _, ct) in callers.items():
                if _is_liecert(caller[0]):
                    calls += nc
                    cum += ct
    out["sympy_bridge.factor_list.calls"] = calls
    out["sympy_bridge.factor_list.cum_s"] = cum

    # cli.main minus the decision and structure calls made from cli.py
    under = 0.0
    for key, (_, _, _, _, callers) in stats.items():
        if _layer_of(key[0]) in DECISION_LAYERS or key in wrapper_codes:
            for caller, (_, _, _, ct) in callers.items():
                if _layer_of(caller[0]) == "cli":
                    under += ct
    out["cli.main.self_s"] = out["cli.main.cum_s"] - under

    owner = _owners(stats)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for key, (_, _, tt, _, _) in stats.items():
        for layer, share in owner.get(key, {"bench": 1.0}).items():
            self_s[layer] = self_s.get(layer, 0.0) + tt * share
    for layer in LAYERS:
        out[f"self_s.{layer}"] = self_s[layer]
    return out


def layer_values(tracer: SpanTracer, probes: Probes) -> dict[str, float]:
    """Every per-layer metric the traced phase itself measures."""
    v = profile_metrics(tracer.profile, probes.wrapper_codes)
    v.update(probes.values())
    for layer, s in tracer.span_self_times().items():
        v[f"span.{layer}.self_s"] = s
    return v
