"""Spans around the library's public functions, recorded from outside.

``Tracer.install()`` replaces every public function of the layer modules
(and ``verify.Check.run``) with a timing wrapper, in every ``cordial``
module namespace that binds it, so calls between modules are seen too;
``uninstall()`` puts the originals back.  Nothing in the library changes.

Each call becomes a span (id, parent, name, start, end, self time, note).
Self time is the span's duration minus the time its children covered.
Per-labeling functions called hundreds of thousands of times (the leaf
set below, and each step of the labeling and orientation generators) are
not kept as spans: they add their time to the calling span's children and
to a per-name (calls, seconds, items) counter, so the trace stays small.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

LAYERS = ("graphs", "engine", "search", "quasigroup", "bounds", "verify", "cli")

LEAVES = frozenset({
    "engine.arc_label",
    "engine.gamma_triple",
    "engine.is_balanced_triple",
    "engine.is_friendly",
    "engine.lambda_count",
})


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _labeling_mask(report):
    return None if report is None else report.labeling.mask


# Small facts about a call that per-layer metrics need, taken after the
# call has been timed: (args, kwargs, result) -> JSON-able value.
NOTES = {
    "engine.is_cordial": lambda a, k, r: (a[0].vertex_count, _labeling_mask(r)),
    "engine.is_orientable": lambda a, k, r: (a[0].vertex_count, _labeling_mask(r)),
    "search.noncordial_orientations": lambda a, k, r: (
        r.total_orientations_scanned if r is not None else 0,
        _arg(a, k, 2, "jobs") or 1,
    ),
    "search.tournament_survey": lambda a, k, r: r.total if r is not None else 0,
    "search.path_cordial_dp": lambda a, k, r: a[0].vertex_count,
    "quasigroup.is_subset_q_cordial": lambda a, k, r: (
        a[0].vertex_count, list(a[1].label_subset), None if r is None else list(r)
    ),
    "bounds.verify_bound": lambda a, k, r: r.graphs_checked if r is not None else 0,
}


class Tracer:
    def __init__(self, cordial):
        self.cordial = cordial
        self.clock = time.perf_counter
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open spans: [id, start, child seconds]
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds, items]
        self.next_id = 1
        self._originals: list[tuple] = []  # (namespace, attribute, original)

    # -- recording ---------------------------------------------------------

    def _open(self):
        """Push a span; return (parent id, frame [id, start, child seconds])."""
        frame = [self.next_id, self.clock(), 0.0]
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else 0
        self.stack.append(frame)
        return parent, frame

    def _close(self, parent, frame, name, note):
        end = self.clock()
        self.stack.pop()
        duration = end - frame[1]
        if self.stack:
            self.stack[-1][2] += duration
        return (frame[0], parent, name, frame[1], end, duration - frame[2], note)

    @contextlib.contextmanager
    def span(self, name, note=None):
        """A span opened by the benchmark itself."""
        parent, frame = self._open()
        try:
            yield
        finally:
            self.spans.append(self._close(parent, frame, name, note))

    def _leaf_time(self, name, seconds, items=0):
        if self.stack:
            self.stack[-1][2] += seconds
        rec = self.leaves.setdefault(name, [0, 0.0, 0])
        rec[0] += 1
        rec[1] += seconds
        rec[2] += items

    def take(self):
        """Return and clear the spans and leaf counters recorded so far."""
        spans, leaves = self.spans, self.leaves
        self.spans, self.leaves = [], {}
        return spans, leaves

    # -- wrappers ----------------------------------------------------------

    def _wrap_span(self, name, fn):
        tracer = self
        note_fn = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, frame = tracer._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span = tracer._close(parent, frame, name, None)
                if note_fn:
                    span = span[:-1] + (note_fn(args, kwargs, result),)
                tracer.spans.append(span)

        return traced

    def _wrap_leaf(self, name, fn):
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leaf_time(name, clock() - t0)

        return traced

    def _wrap_generator(self, name, fn):
        """Time each step of a generator; steps are leaf intervals."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    tracer._leaf_time(name, clock() - t0)
                    return
                tracer._leaf_time(name, clock() - t0, 1)
                yield item

        return traced

    def _wrap_check_run(self, fn):
        tracer = self

        @functools.wraps(fn)
        def run(check):
            with tracer.span(f"verify.{check.name}", note=check.budget_seconds):
                return fn(check)

        return run

    # -- installation ------------------------------------------------------

    def install(self):
        C = self.cordial
        replace = {}
        for layer in LAYERS:
            module = getattr(C, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    replace[id(obj)] = self._wrap_generator(name, obj)
                elif name in LEAVES:
                    replace[id(obj)] = self._wrap_leaf(name, obj)
                else:
                    replace[id(obj)] = self._wrap_span(name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != C.__name__ and not mod_name.startswith(C.__name__ + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replace:
                    self._originals.append((module, attr, obj))
                    setattr(module, attr, replace[id(obj)])
        check_cls = C.verify.Check
        self._originals.append((check_cls, "run", check_cls.run))
        check_cls.run = self._wrap_check_run(check_cls.run)

    def uninstall(self):
        while self._originals:
            namespace, attr, obj = self._originals.pop()
            setattr(namespace, attr, obj)

    # -- output ------------------------------------------------------------

    def write(self, path, rounds):
        """Write recorded rounds as JSON lines: one header per round, then
        its spans as [id, parent, name, start, end, self_s, note]."""
        with open(path, "w", encoding="utf-8") as fh:
            for label, (spans, leaves) in rounds:
                fh.write(json.dumps({"round": label, "leaves": leaves}) + "\n")
                for span in spans:
                    fh.write(json.dumps(span) + "\n")


def layer_of(name: str) -> str | None:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def round_sums(spans, leaves, friendly_rank, assignment_rank) -> dict[str, float]:
    """Additive totals of one traced round, from which metrics are derived.

    ``friendly_rank`` and ``assignment_rank`` count the labelings a scan
    read up to its witness (the benchmark's own counting, see oracle).
    """
    by_id = {s[0]: s for s in spans}

    def root_note(span):
        while span[1] in by_id:
            span = by_id[span[1]]
        return span[6]

    sums: dict[str, float] = {}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    for sid, parent, name, start, end, self_s, note in spans:
        duration = end - start
        layer = layer_of(name)
        if layer:
            add(f"{layer}.self_s", self_s)
        if name in ("engine.is_cordial", "engine.is_orientable"):
            add(f"{name}.s", duration)
            n, mask = note
            add("engine.no.s" if mask is None else "engine.yes.s", duration)
            add("engine.labelings", friendly_rank(n, mask))
            add("engine.scan.s", duration)
        elif name == "search.noncordial_orientations":
            total, jobs = note
            if jobs <= 1:
                add("search.orientations", total)
                add("search.orientations.s", duration)
            if root_note(by_id[sid]) == "jobs-pair":
                add(f"search.jobs{min(jobs, 2)}.s", duration)
        elif name == "search.tournament_survey":
            add("search.tournaments", note)
            add("search.tournaments.s", duration)
        elif name == "search.path_cordial_dp":
            add("search.dp.vertices", note)
            add("search.dp.s", duration)
        elif name == "quasigroup.is_subset_q_cordial":
            n, subset, f = note
            add("quasigroup.is_subset_q_cordial.s", duration)
            add("quasigroup.assignments", assignment_rank(n, subset, f))
        elif name == "bounds.verify_bound":
            add("bounds.verify_bound.s", duration)
            add("bounds.graphs", note)
        elif name == "cli.run":
            add("cli.run.s", self_s)
        elif name.startswith("verify.") and note is not None:
            add(f"{name}.s", duration)
            add(f"{name}.budget_use", duration / note)
    for name, (calls, seconds, items) in leaves.items():
        layer = layer_of(name)
        if layer:
            add(f"{layer}.self_s", seconds)
        add(f"{name}.calls", calls)
        add(f"{name}.leaf_s", seconds)
        add(f"{name}.items", items)
    return sums
