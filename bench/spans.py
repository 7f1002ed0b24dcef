"""In-memory spans around calls into typigraph's public functions.

Tracing lives entirely in the benchmark: `install` replaces each listed
public function, wherever a typigraph module holds it as an attribute, by a
wrapper that records one span per call. Nothing under `src/` changes.

A span is (id, name, tag, start, end, parent, run, rss_hwm_mb), and
`ref_s`, its duration in reference seconds (pace.py), which the child adds
once the body has run; the metrics sum `ref_s`. `tag`
refines the name for calls whose cost depends on one argument (the graph
mode, the blocklength of a sweep point). `rss_hwm_mb` is set on top-level
spans only: the process's `ru_maxrss` read right after the call returns.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import resource
import time

# (module, attribute path, span name, tagger). A tagger maps the call's
# arguments to a short string that refines the span.
WRAPS = (
    ("typigraph.core", "load_distribution", "core.load_distribution", None),
    ("typigraph.typicality", "typical_set_size", "typicality.typical_set_size", None),
    (
        "typigraph.typicality",
        "jointly_typical_pair_count",
        "typicality.jointly_typical_pair_count",
        None,
    ),
    (
        "typigraph.typicality",
        "jointly_typical_type_keys",
        "typicality.jointly_typical_type_keys",
        None,
    ),
    (
        "typigraph.graph",
        "build_graph",
        "graph.build_graph",
        lambda args, kw: (args[0] if args else kw["spec"]).mode,
    ),
    ("typigraph.graph", "ImplicitTypicalityGraph.degree_of", "graph.degree_of", None),
    ("typigraph.graph", "stats", "graph.stats", None),
    ("typigraph.graph", "check_degree_bound", "graph.check_degree_bound", None),
    ("typigraph.graph", "export_graph", "graph.export_graph", None),
    ("typigraph.graph", "import_graph", "graph.import_graph", None),
    (
        "typigraph.subgraphs",
        "build_exact_type_subgraph",
        "subgraphs.build_exact_type_subgraph",
        None,
    ),
    ("typigraph.subgraphs", "export_subgraph", "subgraphs.export_subgraph", None),
    ("typigraph.subgraphs", "import_subgraph", "subgraphs.import_subgraph", None),
    ("typigraph.deviation", "exact_pair_moments", "deviation.exact_pair_moments", None),
    (
        "typigraph.deviation",
        "lll_lower_bounds",
        "deviation.lll_lower_bounds",
        lambda args, kw: f"n{(args[0] if args else kw['moments']).n}",
    ),
    ("typigraph.deviation", "suen_zero_bound", "deviation.suen", None),
    ("typigraph.deviation", "suen_tail_bound", "deviation.suen", None),
    ("typigraph.deviation", "exponent_report", "deviation.exponent_report", None),
    ("typigraph.deviation", "simulate", "deviation.simulate", None),
    ("typigraph.diagnostics", "fano_distribution", "diagnostics.fano_distribution", None),
    ("typigraph.diagnostics", "wring", "diagnostics.wring", None),
    ("typigraph.diagnostics", "pinsker_check", "diagnostics.pinsker_check", None),
)

# Every module that may hold a reference to a wrapped function.
MODULES = (
    "typigraph",
    "typigraph.core",
    "typigraph.typicality",
    "typigraph.graph",
    "typigraph.subgraphs",
    "typigraph.deviation",
    "typigraph.diagnostics",
    "typigraph.cli",
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans of one benchmark process; off until `active` is set."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.absent: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None):
        if not self.active:
            yield
            return
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "tag": tag,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "rss_hwm_mb": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if rec["parent"] is None:
                rec["rss_hwm_mb"] = _rss_mb()

    def _wrap(self, fn, name: str, tagger, is_method: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tag = tagger(args[1:] if is_method else args, kwargs) if tagger else None
            with tracer.span(name, tag):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every function in WRAPS; record names that no longer exist."""
        modules = [importlib.import_module(m) for m in MODULES]
        for mod_name, path, span_name, tagger in WRAPS:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.absent.append(f"{mod_name}.{path}")
                continue
            wrapper = self._wrap(fn, span_name, tagger, bool(outer))
            setattr(owner, attr, wrapper)
            if outer:
                continue  # a method: the class attribute is the only reference
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)


def busy_time(spans: list[dict], name: str, tag: str | None = None) -> float:
    """Summed duration of spans named `name`, not counting nested repeats."""
    by_id = {s["id"]: s for s in spans}

    def nested_in_same(s) -> bool:
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == name:
                return True
            p = by_id[p]["parent"]
        return False

    return sum(
        s["ref_s"]
        for s in spans
        if s["name"] == name
        and (tag is None or s["tag"] == tag)
        and not nested_in_same(s)
    )


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    own = {s["id"]: s["ref_s"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["ref_s"]
    return own
