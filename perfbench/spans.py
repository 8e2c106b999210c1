"""Per-layer metrics from the spans the launcher records.

A layer's self time is the time its spans cover minus the time their
direct child spans cover; calls in one process never overlap, so that
is the span duration minus the children's durations.
"""

from launcher import WRAPS

# The JSON output of a record counts towards the "cli.main" layer (the
# per-record handler), not the wait for input; its spans are not calls.
FOLD = {"cli.emit": "cli.main"}
LAYERS = tuple(dict.fromkeys(FOLD.get(name, name) for _, _, name in WRAPS))
PER_RECORD = ("spectrum.minimal_polynomial", "walkreg.walk_regularity")


def _route(order, report):
    """vertex_basis when the order is D = d(d+1)/2, edge_gram when it is m."""
    d = report.get("d") if isinstance(report, dict) else None
    if d is not None and order == d * (d + 1) // 2:
        return "vertex_basis"
    if isinstance(report, dict) and order == report.get("edges"):
        return "edge_gram"
    return None


def layer_metrics(trace, reports):
    """Metrics for the records in `reports` (record id -> report dict).

    A layer none of whose wrapped attributes exists is left out, so it
    reads as absent rather than as zero.
    """
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, record, order in spans:
        if parent >= 0:
            child[parent] += end - start
    missing = set(trace["missing"])
    present = {FOLD.get(name, name) for module, attr, name in WRAPS
               if "%s.%s" % (module, attr) not in missing}
    calls = {}
    self_s = {}
    kernel = {"vertex_basis_s": 0.0, "edge_gram_s": 0.0, "order_sum": 0, "ops_computed": 0.0}
    traced_s = 0.0
    for k, (name, start, end, parent, record, order) in enumerate(spans):
        if record not in reports:
            continue
        own = end - start - child[k]
        calls[name] = calls.get(name, 0) + 1
        layer = FOLD.get(name, name)
        self_s[layer] = self_s.get(layer, 0.0) + own
        if layer == "cli.main":
            traced_s += end - start
        if name == "kernels.psd_rank":
            route = _route(order, reports[record])
            if route is not None:
                kernel[route + "_s"] += own
            kernel["order_sum"] += order
            kernel["ops_computed"] += order ** 3 / 3
    out = {}
    for layer in LAYERS:
        if layer in present:
            out[layer + ".calls"] = calls.get(layer, 0)
            out[layer + ".self_s"] = self_s.get(layer, 0.0)
    if "kernels.psd_rank.calls" in out:
        for key, value in kernel.items():
            out["kernels.psd_rank." + key] = value
        out["kernels.psd_rank.share"] = (
            out["kernels.psd_rank.self_s"] / traced_s if traced_s else 0.0)
    for layer in PER_RECORD:
        if layer + ".calls" in out:
            out[layer + ".calls_per_record"] = out[layer + ".calls"] / len(reports)
    return out


def calls_by_record(trace, name):
    """record id -> number of spans called `name` in that record."""
    out = {}
    for span in trace["spans"]:
        if span[0] == name:
            out[span[4]] = out.get(span[4], 0) + 1
    return out
