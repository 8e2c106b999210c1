"""Run `uvcore.cli` with a span around every call into a pipeline layer.

Usage: python -u perfbench/launcher.py SPANS_JSON [uvcore cli arguments]

Before calling `uvcore.cli.main`, the launcher replaces the module
attributes in WRAPS with wrappers that record a span (name, start, end,
parent span, record id, matrix order). Spans stay in memory and are
written to SPANS_JSON when the CLI returns. Nothing inside `src/` is
changed; an attribute that no longer exists is listed under "missing"
and its layer is reported as absent.
"""

import importlib
import json
import sys
import time

# (module, attribute, span name). The certify pipeline looks these names
# up in the namespace of the calling module, so each is wrapped where it
# is called from, not where it is defined.
WRAPS = (
    ("uvcore.cli", "_certify_line", "cli.main"),
    ("uvcore.cli", "_emit_jsonl", "cli.emit"),
    ("uvcore.cli", "parse_graph6", "graphs.parse_graph6"),
    ("uvcore.cli", "core_certificate", "certify.core_certificate"),
    ("uvcore.certify", "spectral_data", "certify.spectral_data"),
    ("uvcore.certify", "canonical_gram", "certify.canonical_gram"),
    ("uvcore.certify", "uvc_test", "certify.uvc_test"),
    ("uvcore.certify", "is_locally_injective_gram", "certify.is_locally_injective_gram"),
    ("uvcore.certify", "walk_regularity", "walkreg.walk_regularity"),
    ("uvcore.certify", "minimal_polynomial", "spectrum.minimal_polynomial"),
    ("uvcore.walkreg", "minimal_polynomial", "spectrum.minimal_polynomial"),
    ("uvcore.certify", "charpoly", "exact.charpoly"),
    ("uvcore.certify", "psd_rank", "kernels.psd_rank"),
    ("uvcore.certify", "is_connected", "graphs.predicates"),
    ("uvcore.certify", "is_regular", "graphs.predicates"),
    ("uvcore.certify", "srg_params", "graphs.predicates"),
    ("uvcore.certify", "is_bipartite", "graphs.predicates"),
    ("uvcore.certify", "is_complete_multipartite", "graphs.predicates"),
    ("uvcore.certify", "distance_two_graph", "graphs.predicates"),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # each span: [name, start, end, parent index or -1, record id, order]
        self.spans = []
        self.stack = []
        self.record = None
        self.missing = []

    def wrap(self, module_name, attr, name):
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append("%s.%s" % (module_name, attr))
            return
        starts_record = name == "cli.main"
        sized = name == "kernels.psd_rank"

        def traced(*args, **kwargs):
            if starts_record:
                # _certify_line((index, line, vbudget, ebudget))
                self.record = args[0][0]
            order = len(args[0]) if sized else None
            parent = self.stack[-1] if self.stack else -1
            span = [name, self.clock(), None, parent, self.record, order]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self.stack.pop()

        setattr(module, attr, traced)

    def dump(self, path):
        with open(path, "w", encoding="ascii") as f:
            json.dump({"spans": self.spans, "missing": self.missing}, f)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    for module_name, attr, name in WRAPS:
        tracer.wrap(module_name, attr, name)
    from uvcore import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
