"""Batch front end: generate families, certify graph6 streams, check maps.

Input graphs arrive one graph6 record per line (file path or '-' for
stdin). Reports leave in input order regardless of --jobs, one JSON
object per line (or CSV with a versioned header comment), with a summary
footer. Per-line failures become error reports; the stream never aborts:
an exception that is not a UvcoreError becomes an error record with code
"Internal". The size budgets apply to every subcommand that reads graphs.
"""

import argparse
import json
import sys
import traceback
from contextlib import contextmanager
from dataclasses import fields
from multiprocessing import Pool

from . import families
from .certify import (
    CertReport,
    augmented_graph,
    characteristic_polynomial,
    core_certificate,
    spectral_data,
)
from .errors import InputUnreadable, MalformedMap, SizeBudgetExceeded, UvcoreError
from .graphs import parse_graph6, write_graph6
from .homs import (
    hamming_hom_exists,
    hamming_hom_map,
    kneser_hom_exists,
    kneser_hom_map,
    q_cube_core_classification,
    q_kneser_necessary,
    verify_homomorphism,
    VertexMap,
)

CSV_VERSION = "uvcore-certify-csv v1"
CSV_COLUMNS = [
    "id", "n", "degree", "srg", "tau", "d", "edges",
    "rank", "target", "verdict", "core", "reasons", "ms",
]


@contextmanager
def _output(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii") as f:
            yield f


def _read_stream(ns, body):
    """body(out, (index, line) per non-empty input line); blank lines take
    no index. An unopenable input gives one InputUnreadable record, exit 1.
    """
    with _output(ns.output) as out:
        # graph6 is ASCII; any other byte survives decoding as a lone
        # surrogate, which parse_graph6 refuses: an error record per line
        try:
            if ns.input == "-":
                sys.stdin.reconfigure(encoding="ascii", errors="surrogateescape")
                f = sys.stdin
            else:
                f = open(ns.input, "r", encoding="ascii", errors="surrogateescape")
        except OSError as exc:
            _emit_jsonl(out, _error_record(InputUnreadable(str(exc))))
            return 1
        with f:
            return body(out, enumerate(filter(None, map(str.strip, f))))


def _report_dict(rep: CertReport):
    # CSV_COLUMNS order; graph_id, the first field, is reported as "id"
    obj = {"id": rep.graph_id}
    for f in fields(rep)[1:]:
        v = getattr(rep, f.name)
        obj[f.name] = list(v) if isinstance(v, tuple) else v
    return obj


def _error_record(exc, index=None):
    known = isinstance(exc, UvcoreError)
    if not known:
        traceback.print_exc()  # to stderr; the stream goes on
    rec = {"error": exc.code if known else "Internal"}
    if index is not None:
        rec["index"] = index
    rec["detail"] = str(exc) if known else "%s: %s" % (type(exc).__name__, exc)
    return rec


def _parse_within_budget(line, vbudget, ebudget):
    g = parse_graph6(line)
    if g.n > vbudget:
        raise SizeBudgetExceeded(
            "%d vertices exceeds budget %d" % (g.n, vbudget)
        )
    if g.edge_count() > ebudget:
        raise SizeBudgetExceeded(
            "%d edges exceeds budget %d" % (g.edge_count(), ebudget)
        )
    return g


def _certify_line(args):
    index, line, vbudget, ebudget = args
    try:
        g = _parse_within_budget(line, vbudget, ebudget)
        rep = core_certificate(g, graph_id=index)
        return index, _report_dict(rep), None
    except Exception as exc:  # one failing record must not end the stream
        return index, None, _error_record(exc, index)


def _emit_jsonl(out, obj):
    out.write(json.dumps(obj, separators=(", ", ": ")))
    out.write("\n")


def _emit_csv_row(out, obj):
    row = []
    for col in CSV_COLUMNS:
        v = obj.get(col)
        if isinstance(v, list):
            v = ";".join(str(x) for x in v)
        row.append("" if v is None else str(v))
    out.write(",".join(row) + "\n")


def cmd_certify(ns):
    csv = ns.format == "csv"
    emit = _emit_csv_row if csv else _emit_jsonl

    def certify_stream(out, records):
        tasks = ((index, line, ns.budget_vertices, ns.budget_edges)
                 for index, line in records)
        counts = {"total": 0, "tight": 0, "loose": 0, "certified_core": 0, "errors": 0}
        # stream: lines are consumed lazily and results come back in input
        # order (imap), so arbitrarily long lists run in bounded memory
        if csv:
            out.write("# %s\n" % CSV_VERSION)
            out.write(",".join(CSV_COLUMNS) + "\n")
        if ns.jobs > 1:
            pool = Pool(ns.jobs)
            results = pool.imap(_certify_line, tasks, chunksize=1)
        else:
            pool = None
            results = map(_certify_line, tasks)
        try:
            for _, rep, err in results:
                counts["total"] += 1
                if err is not None:
                    counts["errors"] += 1
                    emit(out, {"id": err["index"], "core": "error",
                               "reasons": [err["error"]]} if csv else err)
                    continue
                counts["tight"] += rep["verdict"] == "tight"
                counts["loose"] += rep["verdict"] == "loose"
                counts["certified_core"] += rep["core"] == "certified"
                emit(out, rep)
        finally:
            if pool is not None:
                pool.close()
                pool.join()
        if csv:
            out.write("# summary %s\n" % json.dumps(counts, sort_keys=True))
        else:
            _emit_jsonl(out, {"summary": counts})
        return min(counts["errors"], 100)

    return _read_stream(ns, certify_stream)


# family -> (parameter names, generator of (*params, vertex_budget=,
# edge_budget=)); a last name ending in "..." takes one or more integers
GENERATORS = {
    "kneser": ("n r", families.kneser),
    "q-kneser": ("q n r", families.q_kneser),
    "hamming-h": ("n k", families.hamming_h),
    "hamming-h-prime": ("n k", families.hamming_h_prime),
    "q-cube": ("m j", families.q_cube),
    "cayley-z2": ("n weight...", lambda n, *w, **kw: families.cayley_z2(n, w, **kw)),
}


def _emit_graph6(out, g):
    out.write(write_graph6(g).decode("ascii") + "\n")


def _checked(ns, name, table):
    """table[name]'s function; a wrong ns.params count is a usage error."""
    signature, fn = table[name]
    want, got, more = len(signature.split()), len(ns.params), signature.endswith("...")
    if got < want or (got > want and not more):
        ns.usage_error("%s takes %s%d integer parameters (%s), got %d" % (
            name, "at least " if more else "", want, signature, got))
    return fn


def cmd_gen(ns):
    generate = _checked(ns, ns.family, GENERATORS)
    return _emit_one(
        ns,
        lambda: generate(*ns.params, vertex_budget=ns.budget_vertices,
                         edge_budget=ns.budget_edges),
        _emit_graph6,
    )


def _map_stream(ns, emit):
    """Call emit(out, graph) per input line; failures become error records."""

    def map_records(out, records):
        errors = 0
        for index, line in records:
            try:
                emit(out, _parse_within_budget(line, ns.budget_vertices, ns.budget_edges))
            except Exception as exc:  # one failing record must not end the stream
                errors += 1
                _emit_jsonl(out, _error_record(exc, index))
        return min(errors, 100)

    return _read_stream(ns, map_records)


def cmd_augment(ns):
    return _map_stream(ns, lambda out, g: _emit_graph6(out, augmented_graph(g)))


def cmd_spectra(ns):
    def emit(out, g):
        sd = spectral_data(g)
        phi = characteristic_polynomial(g, sd)
        _emit_jsonl(out, {"phi": phi, "tau": sd.tau, "d": sd.d})

    return _map_stream(ns, emit)


def _map_obj(vm):
    return {"source_n": vm.source_n, "target_n": vm.target_n, "image": list(vm.image)}


# kind -> (parameter names, JSON object computed from the integer parameters)
HOM_CHECKS = {
    "kneser": ("n r n2 r2", lambda *p: {"exists": kneser_hom_exists(*p)}),
    "kneser-map": ("n r m", lambda *p: _map_obj(kneser_hom_map(*p))),
    "hamming": ("n k n2 k2", lambda *p: {"exists": hamming_hom_exists(*p)}),
    "hamming-map": ("n k m", lambda *p: _map_obj(hamming_hom_map(*p))),
    "q-kneser": ("q n r q2 n2 r2",
                 lambda *p: {"necessary_condition": q_kneser_necessary(*p)}),
    "q-cube-class": ("n k", lambda *p: {"case": q_cube_core_classification(*p)}),
}


def _emit_one(ns, compute, emit=_emit_jsonl):
    """Emit compute()'s result; a UvcoreError becomes an error record, exit 1."""
    with _output(ns.output) as out:
        try:
            obj = compute()
        except UvcoreError as exc:
            _emit_jsonl(out, _error_record(exc))
            return 1
        emit(out, obj)
    return 0


def cmd_hom(ns):
    check = _checked(ns, ns.kind, HOM_CHECKS)
    return _emit_one(ns, lambda: check(*ns.params))


def _read(path, first_line=False):
    try:
        with open(path, encoding="ascii") as f:
            return f.readline() if first_line else f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputUnreadable(str(exc))


def _verify_map(ns):
    g = parse_graph6(_read(ns.source, first_line=True))
    h = parse_graph6(_read(ns.target, first_line=True))
    try:
        image = json.loads(_read(ns.map))
    except ValueError as exc:
        raise MalformedMap("map is not JSON: %s" % exc)
    if not isinstance(image, list):
        raise MalformedMap("map must be a JSON array")
    v = verify_homomorphism(g, h, VertexMap(g.n, h.n, tuple(image)))
    return {"is_hom": v.is_hom, "is_injective": v.is_injective,
            "is_induced_embedding": v.is_induced_embedding}


def cmd_hom_verify(ns):
    return _emit_one(ns, lambda: _verify_map(ns))


def build_parser():
    ap = argparse.ArgumentParser(
        prog="uvcore",
        description="exact vector-coloring certificates and family generators",
    )
    ap.add_argument("--output", default=None, help="output path (default stdout)")
    ap.add_argument("--budget-vertices", type=int,
                    default=families.DEFAULT_VERTEX_BUDGET)
    ap.add_argument("--budget-edges", type=int,
                    default=families.DEFAULT_EDGE_BUDGET)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit one family member as graph6")
    g.add_argument("family", choices=list(GENERATORS))
    g.add_argument("params", type=int, nargs="+")
    g.set_defaults(func=cmd_gen, usage_error=g.error)

    c = sub.add_parser("certify", help="certify a stream of graph6 lines")
    c.add_argument("input", nargs="?", default="-")
    c.add_argument("--jobs", type=int, default=1)
    c.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    c.set_defaults(func=cmd_certify)

    a = sub.add_parser("augment", help="emit the inner-product augmentation")
    a.add_argument("input", nargs="?", default="-")
    a.set_defaults(func=cmd_augment)

    s = sub.add_parser("spectra", help="characteristic polynomial and tau, d")
    s.add_argument("input", nargs="?", default="-")
    s.set_defaults(func=cmd_spectra)

    h = sub.add_parser("hom", help="family homomorphism checks and maps")
    h.add_argument("kind", choices=list(HOM_CHECKS))
    h.add_argument("params", type=int, nargs="+")
    h.set_defaults(func=cmd_hom, usage_error=h.error)

    hv = sub.add_parser("hom-verify", help="verify a user-supplied vertex map")
    hv.add_argument("--source", required=True, help="graph6 file (first line)")
    hv.add_argument("--target", required=True, help="graph6 file (first line)")
    hv.add_argument("--map", required=True,
                    help="JSON array mapping source index to target index")
    hv.set_defaults(func=cmd_hom_verify)
    return ap


def main(argv=None):
    ns = build_parser().parse_args(argv)
    return ns.func(ns)


if __name__ == "__main__":
    sys.exit(main())
