"""Outside-in spans around the public functions of each tauberlab layer.

The tracer replaces a function in every tauberlab namespace that binds it
(the package, the defining module and any module that imported it by name),
so calls are caught where their callers resolve them and no module of the
program is edited.  Target classes get their ``log_amplitude`` wrapped on the
class.  Spans stay in memory as lists

    [id, parent_id, name, start_ns, end_ns, op, info, error]

where ``info`` is the point count for ``log_amplitude``, ``tol_met`` for
``log_transform`` and the output length for renderers; ``error`` is the class
name of an exception that left the span.  ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# Functions wrapped, by defining module.  Every binding of the same object in
# any tauberlab namespace is replaced.
FUNCTIONS = {
    "params": ["validate", "saddle_analysis", "recover_primal"],
    "transform": ["locate_peak", "log_transform", "sample_at_psi"],
    "asymptotics": ["evaluate_sweep", "verify_equivalence", "fit_exponent"],
    "report": ["render_report", "render_samples_csv"],
    "measures": [
        "parse_measure_text",
        "load_measure",
        "measure_transform_kohlbecker",
        "measure_transform_kasahara",
        "kohlbecker_panel_bracket",
        "kasahara_panel_bracket",
        "kasahara_via_parts",
    ],
}
# Methods wrapped on their class: (module, class, method, span name).
METHODS = [
    ("targets", "PurePower", "log_amplitude", "targets.log_amplitude"),
    ("targets", "PerturbedPower", "log_amplitude", "targets.log_amplitude"),
    ("targets", "MeasureTarget", "log_amplitude", "targets.log_amplitude"),
    ("measures", "TabulatedMeasure", "cumulative", "measures.cumulative"),
    ("measures", "TabulatedMeasure", "tail", "measures.tail"),
]

ID, PARENT, NAME, START, END, OP, INFO, ERROR = range(8)


def _info_points(args, result):
    return int(np.size(args[-1]))


def _info_tol_met(args, result):
    return bool(result.tol_met)


def _info_length(args, result):
    return len(result)


INFO_OF = {
    "targets.log_amplitude": _info_points,
    "transform.log_transform": _info_tol_met,
    "report.render_report": _info_length,
    "report.render_samples_csv": _info_length,
}


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, info=None):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [len(tracer.spans), tracer._stack[-1] if tracer._stack else -1,
                   name, time.perf_counter_ns(), 0, tracer.op, None, None]
            tracer.spans.append(rec)
            tracer._stack.append(rec[ID])
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    rec[INFO] = info(args, result)
                return result
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter_ns()
                tracer._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_op(self, op: int) -> None:
        self.op = op

    def install(self) -> None:
        import tauberlab

        namespaces = [tauberlab] + [
            mod for name, mod in sorted(sys.modules.items())
            if name.startswith("tauberlab.") and mod is not None
        ]
        for module_name, names in FUNCTIONS.items():
            module = sys.modules[f"tauberlab.{module_name}"]
            for fname in names:
                original = getattr(module, fname)
                span_name = f"{module_name}.{fname}"
                wrapper = self.span(span_name, original, INFO_OF.get(span_name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._restore.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        for module_name, cls_name, meth, span_name in METHODS:
            cls = getattr(sys.modules[f"tauberlab.{module_name}"], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self.span(span_name, original, INFO_OF.get(span_name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()



def dump_spans(spans: list[list], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


def load_spans(path, op_offset: int = 0, id_offset: int = 0) -> list[list]:
    """Read spans written by :func:`dump_spans`, renumbering ids and ops."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            rec[ID] += id_offset
            if rec[PARENT] >= 0:
                rec[PARENT] += id_offset
            rec[OP] += op_offset
            spans.append(rec)
    return spans


def self_times(spans: list[list]) -> list[int]:
    """Duration of each span minus the time its direct children cover (ns).

    Spans are single-threaded and properly nested, so children never overlap
    and their durations can be summed.
    """
    child_ns = defaultdict(int)
    index = {rec[ID]: i for i, rec in enumerate(spans)}
    for rec in spans:
        if rec[PARENT] >= 0 and rec[PARENT] in index:
            child_ns[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - child_ns[rec[ID]] for rec in spans]


def nesting_violations(spans: list[list]) -> int:
    """Spans whose interval is not inside their parent's, or whose children
    together last longer than the parent.  0 for a correct tracer."""
    index = {rec[ID]: rec for rec in spans}
    bad = 0
    for rec in spans:
        parent = index.get(rec[PARENT])
        if parent is not None and not (
            parent[START] <= rec[START] <= rec[END] <= parent[END]
        ):
            bad += 1
    return bad + sum(1 for t in self_times(spans) if t < 0)
