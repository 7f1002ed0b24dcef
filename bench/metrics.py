"""Metric names, units and how each per-layer metric is derived.

End-to-end metrics are measured with tracing off; per-layer metrics come
from a traced run (see spans.py). The lists here must match the
`end_to_end` and `per_layer` entries of BENCHMARK.json; selftest.py checks
that they do.

Per-layer kinds:
  span      busy time summed over all calls to one public function
  self      that busy time minus the time of the spans it contains
  computed  a work count derived exactly from the inputs, outside any timed
            region; it repeats exactly
  output    a count read back from the program's outputs
  rate      a count divided by a span's busy time (the base is printed)
  overhead  traced wall_s minus untraced wall_s of the same workload
"""

from __future__ import annotations

from spans import busy_time, self_times

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

SWEEP_POINTS = tuple(range(24, 73, 8))


def _span(name: str, tag: str | None = None) -> tuple:
    metric = f"{name}.{tag}.s" if tag else f"{name}.s"
    return (metric, "s", "span", (name, tag))


def _self(name: str, tag: str | None = None) -> tuple:
    metric = f"{name}.{tag}.self_s" if tag else f"{name}.self_s"
    return (metric, "s", "self", (name, tag))


# name, unit, kind, source. For span/self the source is (span name, tag);
# for a rate it is (count metric, span metric).
PER_LAYER = (
    _span("core.load_distribution"),
    _span("typicality.typical_set_size"),
    _span("typicality.jointly_typical_pair_count"),
    _span("typicality.jointly_typical_type_keys"),
    ("typicality.joint_ball_size", "count", "computed", None),
    (
        "typicality.ball_matrices_per_s",
        "1/s",
        "rate",
        ("typicality.joint_ball_size", "graph.build_graph.implicit.s"),
    ),
    _span("graph.build_graph", "implicit"),
    _self("graph.build_graph", "implicit"),
    _span("graph.degree_of"),
    _span("graph.build_graph", "explicit"),
    _self("graph.build_graph", "explicit"),
    _span("graph.stats"),
    _span("graph.check_degree_bound"),
    _span("graph.export_graph"),
    _self("graph.export_graph"),
    _span("graph.import_graph"),
    ("graph.pairs_scanned", "count", "computed", None),
    ("graph.edges", "count", "output", None),
    ("graph.csv_bytes", "bytes", "output", None),
    ("graph.pairs_per_s", "1/s", "rate", ("graph.pairs_scanned", "graph.build_graph.explicit.s")),
    _span("subgraphs.build_exact_type_subgraph"),
    _span("subgraphs.export_subgraph"),
    _span("subgraphs.import_subgraph"),
    ("subgraphs.pairs_scanned", "count", "computed", None),
    ("subgraphs.edges", "count", "output", None),
    _span("deviation.exact_pair_moments"),
    _self("deviation.exact_pair_moments"),
    _span("deviation.lll_lower_bounds"),
    *(_span("deviation.lll_lower_bounds", f"n{n}") for n in SWEEP_POINTS),
    _span("deviation.suen"),
    _span("deviation.exponent_report"),
    _span("deviation.simulate"),
    _self("deviation.simulate"),
    ("deviation.trials", "count", "computed", None),
    ("deviation.codewords_drawn", "count", "computed", None),
    ("deviation.pair_tests", "count", "computed", None),
    ("deviation.pair_tests_per_s", "1/s", "rate", ("deviation.pair_tests", "deviation.simulate.s")),
    ("deviation.max_codebook_log2", "bits", "computed", None),
    _span("diagnostics.fano_distribution"),
    _span("diagnostics.wring"),
    _span("diagnostics.pinsker_check"),
    ("diagnostics.edges_in", "count", "output", None),
    ("diagnostics.wring_steps", "count", "output", None),
    *(_span(f"cli.{sub}") for sub in ("graph", "subgraph", "wring", "simulate")),
    ("cli.self_s", "s", "self", None),
    ("cli.simulate.trials_per_s", "1/s", "rate", ("deviation.trials", "cli.simulate.s")),
    ("cli.graph.edges_per_s", "1/s", "rate", ("graph.edges", "cli.graph.s")),
    ("cli.subgraph.edges_per_s", "1/s", "rate", ("subgraphs.edges", "cli.subgraph.s")),
    ("trace.overhead_s", "s", "overhead", None),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def per_layer(spans: list[dict], counts: dict) -> dict:
    """Per-layer values of one traced repetition (overhead is added later).

    `counts` holds the computed and output counts the workload supplies; a
    count the workload does not have is 0.
    """
    own = self_times(spans)
    out = {}
    for name, _, kind, source in PER_LAYER:
        if kind == "span":
            out[name] = busy_time(spans, *source)
        elif kind == "self" and source is None:
            out[name] = sum(own[s["id"]] for s in spans if s["name"].startswith("cli."))
        elif kind == "self":
            span_name, tag = source
            out[name] = sum(
                own[s["id"]]
                for s in spans
                if s["name"] == span_name and (tag is None or s["tag"] == tag)
            )
        elif kind in ("computed", "output"):
            out[name] = counts.get(name, 0)
    for name, _, kind, source in PER_LAYER:
        if kind == "rate":
            count, span = source
            out[name] = out[count] / out[span] if out[span] > 0 else 0.0
    return out
