"""Span tracing of arcfit's layers from outside the package.

The tracer replaces every module attribute that binds a traced function with
a wrapper that records a span (name, start, end, parent). Callers inside the
package look functions up through the name their own module imported, so
`arcfit.moments.translate` and `arcfit.fit.translate` are both wrapped. A
wrapper records its span even when the call raises, then re-raises.
Wrappers record only while the tracer is active, so work the benchmark does
between operations (checks, references) leaves no spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

TRACED = {
    "pointfile": ("read_points",),
    "scenario": ("trial_points",),
    "moments": ("from_points", "accumulate_point", "difference", "translate",
                "normalized"),
    "quadratio": ("minimize_ratio",),
    "dirsearch": ("eigen_sym", "minimize"),
    "fit": ("kasa_fit", "free_fit", "one_point_fit", "two_point_fit",
            "penalty"),
    "reference": ("exact_sse", "geometric_fit", "check_tolerance_zigzag"),
    "compress": ("build_prefix", "candidate_segment", "fit_arc_candidate",
                 "candidate_arc", "compress"),
    "cli": ("main",),
}

ROOT = "cli.main"

# Waste ratios: metric name -> (traced function, outcome counted). The
# outcome of a call is what _outcome() returns for it.
RATIOS = {
    "quadratio.minimize_ratio.none_frac": ("quadratio.minimize_ratio", "none"),
    "fit.two_point_fit.no_arc_frac": ("fit.two_point_fit", "NoArcExists"),
    "reference.check_tolerance_zigzag.reject_frac":
        ("reference.check_tolerance_zigzag", "reject"),
    "compress.candidate_segment.accept_frac":
        ("compress.candidate_segment", "accept"),
    "compress.candidate_arc.accept_frac": ("compress.candidate_arc", "accept"),
}

POINTS = "moments.from_points"


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def _outcome(result) -> str:
    if result is None:
        return "none"
    if getattr(result, "ok", True) is False:
        return "reject"
    return "accept"


class Tracer:
    """Collects spans of one traced pass; `install()` wraps, `uninstall()`
    restores every patched attribute."""

    def __init__(self):
        self.active = False
        self.spans = []          # [name, start, end, parent index]
        self.outcomes = Counter()  # (name, outcome) -> calls
        self.points = 0
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, outcomes = self.spans, self._stack, self.outcomes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name == POINTS:
                self.points += len(args[0] if args else kwargs["points"])
            span = [name, clock(), 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                outcomes[name, type(exc).__name__] += 1
                raise
            else:
                outcomes[name, _outcome(result)] += 1
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        originals = {}
        for mod, fns in TRACED.items():
            module = sys.modules[f"arcfit.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                func = getattr(module, fn)
                originals[id(func)] = (name, self._wrap(name, func))
        for modname, module in list(sys.modules.items()):
            if modname != "arcfit" and not modname.startswith("arcfit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.outcomes.clear()
        self.points = 0

    def summary(self) -> dict:
        """Calls, self seconds, outcome counts and root time of the spans
        recorded since the last reset."""
        calls = Counter()
        self_s = Counter()
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child_s[span[3]] += span[2] - span[1]
        root_s = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_s[i]
            if parent is None and name == ROOT:
                root_s += end - start
        return {"calls": calls, "self_s": self_s,
                "outcomes": Counter(self.outcomes), "points": self.points,
                "root_s": root_s}


def layer_metrics(passes: list[dict], untraced_s: list[float],
                  traced_s: list[float]) -> dict:
    """Per-layer metrics over the traced passes of one run: counts from the
    first pass (passes repeat the same operations), self times as medians."""
    first = passes[0]
    out = {}
    for name in traced_names():
        out[f"{name}.calls"] = (first["calls"][name], "count")
        out[f"{name}.self_s"] = (
            float(statistics.median(p["self_s"][name] for p in passes)), "s")
    out[f"{POINTS}.points"] = (first["points"], "count")
    for metric, (name, outcome) in RATIOS.items():
        total = first["calls"][name]
        hits = first["outcomes"][name, outcome]
        out[metric] = (hits / total if total else 0.0, "ratio")
    untraced = statistics.median(untraced_s)
    traced = statistics.median(traced_s)
    out["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    gap = [1.0 - p["root_s"] / t for p, t in zip(passes, traced_s)]
    out["trace.unattributed_frac"] = (statistics.median(gap), "ratio")
    return out


def same_counts(a: dict, b: dict) -> bool:
    return (a["calls"] == b["calls"] and a["outcomes"] == b["outcomes"]
            and a["points"] == b["points"])
