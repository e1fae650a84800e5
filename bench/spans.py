"""In-memory span recorder wrapped around infobell's public functions.

A span is (name, start, end, parent, child time, op); the op index
ties the spans of one workload operation together. Spans live in a list
until the run writes them out. Wrapping replaces every binding of a target
function in every loaded infobell module, so calls that go through a
module-level alias (``expsim.info_distance``, ``fitting.golden_section_min``,
``cli.fit_werner``, ...) are recorded like direct ones. Wrappers only
observe: arguments and results pass through untouched, which is what
lets the traced run reproduce the untraced outputs bit for bit.

Standard library only, so the traced CLI entry point can load it next
to the package.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) of each recorded function; dotted attributes are methods.
TARGETS = (
    ("states", "joint_probabilities"),
    ("states", "JointDistribution.__post_init__"),
    ("states", "DensityMatrix.__post_init__"),
    ("infogeo", "violation"),
    ("infogeo", "max_violation"),
    ("infogeo", "info_distance"),
    ("infogeo", "shannon_entropy"),
    ("infogeo", "golden_section_min"),
    ("infogeo", "reactivity"),
    ("infogeo", "stream_rng"),
    ("infogeo", "info_area"),
    ("infogeo", "info_volume"),
    ("expsim", "propagate_error"),
    ("expsim", "simulate_schumacher_run"),
    ("expsim", "estimate_distribution"),
    ("fitting", "fit_werner"),
    ("fitting", "model_curve"),
    ("tomography", "mle_reconstruct"),
    ("tomography", "mode_probabilities"),
    ("tomography", "linear_inversion"),
    ("tomography", "chsh"),
    ("tomography", "correlation"),
)

# fit_werner's coordinate descent stops after this many rounds without saying so.
FIT_ROUND_CAP = 200

NAME, START, END, PARENT, CHILD, OP = range(6)


class Recorder:
    """Spans of one process, plus per-name call counts and numeric notes."""

    def __init__(self):
        self.spans = []
        self.calls = {}
        self.notes = {}
        self._stack = []
        self.op = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        self.calls[name] = self.calls.get(name, 0) + 1
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def note(self, key: str, value: float) -> None:
        self.notes[key] = self.notes.get(key, 0.0) + value


def _estimate_distribution_notes(rec, args, kwargs, result):
    record = args[0] if args else kwargs["record"]
    clamped = int(((record.counts - record.accidental_estimate) < 0).sum())
    rec.note("expsim.estimate_distribution.clamped_bins", clamped)


def _mle_notes(rec, args, kwargs, result):
    rec.note("tomography.mle_reconstruct.rounds", result.n_iterations)
    rec.note("tomography.mle_reconstruct.converged", 1.0 if result.converged else 0.0)


_NOTES = {
    "expsim.estimate_distribution": _estimate_distribution_notes,
    "tomography.mle_reconstruct": _mle_notes,
}


def _wrap(rec: Recorder, name: str, fn):
    notes = _NOTES.get(name)

    if name == "infogeo.golden_section_min":
        @functools.wraps(fn)
        def golden(f, *args, **kwargs):
            def counted(x):
                rec.note("infogeo.golden_section_min.evals", 1)
                return f(x)

            index = rec.open(name)
            try:
                return fn(counted, *args, **kwargs)
            finally:
                rec.close(index)

        return golden

    if name == "fitting.fit_werner":
        @functools.wraps(fn)
        def fit(*args, **kwargs):
            before = rec.calls.get("infogeo.golden_section_min", 0)
            index = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(index)
                rounds = (rec.calls.get("infogeo.golden_section_min", 0) - before) // 2
                rec.note("fitting.fit_werner.rounds", rounds)
                rec.note("fitting.fit_werner.cap_hits", 1 if rounds >= FIT_ROUND_CAP else 0)

        return fit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if notes is not None:
            notes(rec, args, kwargs, result)
        return result

    return wrapper


def install(rec: Recorder):
    """Wrap every target in every loaded infobell module; returns a function that undoes it."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "infobell" or n.startswith("infobell.")]
    undo = []
    for module_name, attr in TARGETS:
        owner = sys.modules[f"infobell.{module_name}"]
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap(rec, f"{module_name}.{cls_name}.constructed", original))
            undo.append((cls, method, original))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(rec, name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))

    def restore():
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return restore


def summarize(spans) -> dict:
    """Per-name totals: calls, total seconds and self seconds (total minus child spans)."""
    out = {}
    for span in spans:
        entry = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - span[CHILD]
    return out


def dump(rec: Recorder, fh) -> None:
    json.dump({"spans": rec.spans, "notes": rec.notes}, fh)


def merge(rec: Recorder, fh, op: int) -> None:
    """Append spans and notes dumped by another process, re-rooted under op ``op``."""
    payload = json.load(fh)
    offset = len(rec.spans)
    for name, start, end, parent, child, _ in payload["spans"]:
        rec.spans.append([name, start, end, parent + offset if parent >= 0 else -1, child, op])
        rec.calls[name] = rec.calls.get(name, 0) + 1
    for key, value in payload["notes"].items():
        rec.note(key, value)


def write_csv(rec: Recorder, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("op,name,start,end,parent\n")
        for name, start, end, parent, _, op in rec.spans:
            fh.write(f"{op},{name},{start!r},{end!r},{parent}\n")
