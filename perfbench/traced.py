"""In-process timing of one ``archspread`` command, run as a child of ``run.py``.

    python3 perfbench/traced.py --out FILE [--trace] -- <archspread argv>

Times ``import archspread.cli`` and one ``cli.main(argv)``. With ``--trace``
it first wraps the public layer functions at every module attribute that
holds them, so each call records a span (name, start, end, parent, whether it
raised, and counts taken at the boundary). Spans stay in memory and are
written to FILE, with the timings, after ``main`` returns. The exit code is
``main``'s.
"""

import sys
import time

_t0 = time.perf_counter()
import archspread.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import functools  # noqa: E402
import json  # noqa: E402

# Span name -> (defining module, attribute). The layer is the first component.
TARGETS = {
    "io.parse_bundle": ("archspread.io", "parse_bundle"),
    "encoding.extract_sequence": ("archspread.encoding", "extract_sequence"),
    "encoding.build_encoding": ("archspread.encoding", "build_encoding"),
    "model.validate_solution_set": ("archspread.model", "validate_solution_set"),
    "distance.distance_matrix": ("archspread.distance", "distance_matrix"),
    "indicators.indicators_for": ("archspread.indicators", "indicators_for"),
    "indicators.spread_correlation": ("archspread.indicators", "spread_correlation"),
    "projection.mds_project": ("archspread.projection", "mds_project"),
    "io.write_report": ("archspread.io", "write_report"),
    "io.emit_scatter_svg": ("archspread.io", "emit_scatter_svg"),
}


def _distance_counts(args, result):
    return {"n": len(args[0].solutions), "l_pad": result.l_pad}


def _encoding_counts(args, result):
    steps = {(st.name, st.args) for s in args[0] for sol in s.solutions for st in sol.sequence}
    return {"distinct_steps": len(steps)}


def _projection_counts(args, result):
    return {"n": len(args[0])}


COUNTS = {
    "distance.distance_matrix": _distance_counts,
    "encoding.build_encoding": _encoding_counts,
    "projection.mds_project": _projection_counts,
}


class Tracer:
    """Records nested spans; one instance per traced command."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, raised, counts]
        self._stack = []

    def wrap(self, name, fn):
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, 0.0, False, {}]
            self.spans.append(span)
            self._stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span[6] = counts(args, result)
            return result

        return traced

    def install(self):
        """Wrap each target wherever an archspread module holds a reference to it."""
        missing = []
        for name, (module, attr) in TARGETS.items():
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                missing.append(name)
                continue
            wrapped = self.wrap(name, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "archspread":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        return missing


def main():
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, command = argv[:split], argv[split + 1:]
    out = opts[opts.index("--out") + 1]
    record = {"import_s": IMPORT_S}
    tracer = None
    run = cli.main
    if "--trace" in opts:
        tracer = Tracer()
        record["missing"] = tracer.install()
        run = tracer.wrap("cli.main", cli.main)
    start = time.perf_counter()
    try:
        code = run(command)
    finally:
        record["main_s"] = time.perf_counter() - start
        if tracer is not None:
            record["spans"] = tracer.spans
        with open(out, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
