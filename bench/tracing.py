"""Layer-by-layer tracing of ktsim from outside the package.

The tracer wraps the public functions named in ``TRACED`` (and the
orchestrator's file writes) in every loaded ``ktsim`` module, records
one span per call with a link to the span that was open when it started,
and keeps the spans in memory until the caller writes them out. No ktsim
source is touched, and everything is restored when ``installed()`` exits.

Per traced job it reports, for each traced function, the number of calls
and the self time (span duration minus the part of it covered by child
spans), plus work counts, the share of distinct results among calls
(``useful_ratio``) and the share of self time spent in stages that do not
depend on the channel policy.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import pathlib
import sys
import time
from collections import Counter
from typing import Callable, Sequence

#: module -> public functions (``Class.method`` for methods) timed as spans.
TRACED = {
    "config": ("scenario_from_dict",),
    "knowledge": ("build_ground_truth", "sample_agent_pool", "rectify"),
    "experimenting": ("design_experiment", "sample_dataset", "export_dataset"),
    "mining": ("mine", "phi_coefficient"),
    "labeling": ("build_effective_prior", "reinterpret", "label"),
    "metrics": ("openness",),
    "orchestrator": (
        "run",
        "sweep",
        "RunResult.to_json_text",
        "write_run_outputs",
        "write_sweep_outputs",
    ),
    "cli": ("main",),
}

#: Span around each file write of the orchestrator module: a ``Path.write_text``
#: call, or a file it opened with ``Path.open`` for writing, from open to close.
WRITE_SPAN = "orchestrator.write"

SPAN_NAMES = tuple(f"{m}.{f}" for m, names in TRACED.items() for f in names) + (WRITE_SPAN,)

#: Stages whose results do not depend on the channel policy.
INVARIANT_STAGES = (
    "knowledge.build_ground_truth",
    "knowledge.sample_agent_pool",
    "knowledge.rectify",
    "experimenting.design_experiment",
    "experimenting.sample_dataset",
)


def _json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


#: Content digest of a stage's result, for ``<stage>.useful_ratio``.
DIGESTS: dict[str, Callable] = {
    "knowledge.build_ground_truth": lambda gt: _json_digest(gt.to_json()),
    "knowledge.sample_agent_pool": lambda pool: _json_digest([kb.to_json() for kb in pool.priors]),
    "knowledge.rectify": lambda kb: _json_digest(kb.to_json()),
    "experimenting.design_experiment": lambda design: _json_digest(design.to_json()),
    "experimenting.sample_dataset": lambda out: out[0].sha256() + _json_digest(out[1].to_json()),
    "mining.mine": lambda info: _json_digest(info.to_json()),
}

#: Work counts: metric name -> (span name, count taken from (args, result)).
WORK_COUNTS = {
    "knowledge.team_claims": ("knowledge.rectify", lambda args, kb: len(kb)),
    "experimenting.dataset_cells": ("experimenting.sample_dataset", lambda args, out: int(out[0].rows.size)),
    "mining.patterns": ("mining.mine", lambda args, info: len(info.patterns)),
    "labeling.prior_claims": ("labeling.build_effective_prior", lambda args, prior: len(prior.claims)),
    "labeling.patterns_vetoed": (
        "labeling.reinterpret",
        lambda args, info: len(args[0].patterns) - len(info.patterns),
    ),
    "labeling.claims_emitted": ("labeling.label", lambda args, lk: len(lk.entries)),
    "metrics.claims_scored": (
        "metrics.openness",
        lambda args, report: sum(len(lk.entries) for lk in args[0]) + report.union_size,
    ),
    # to_json_text output is ASCII (json.dumps escapes the rest), so len == bytes.
    "orchestrator.serialized_bytes": ("orchestrator.RunResult.to_json_text", lambda args, text: len(text)),
}


class _SpannedFile:
    """A file opened for writing whose lifetime, open to close, is one
    ``WRITE_SPAN``; the code writing it inside a ``with`` block is covered."""

    def __init__(self, tracer: "Tracer", opener: Callable) -> None:
        self._tracer = tracer
        self._span = tracer.begin(WRITE_SPAN)
        try:
            self._file = opener()
        except BaseException:
            tracer.end(self._span)
            raise

    def __getattr__(self, name):
        return getattr(self._file, name)

    def __iter__(self):
        return iter(self._file)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self) -> None:
        if self._span is not None:
            try:
                self._file.close()
            finally:
                self._tracer.end(self._span)
                self._span = None


def self_times(spans: Sequence[Sequence]) -> list[int]:
    """Self time of each ``(name, start, end, parent)`` span, in the clock's units.

    A span's self time is its duration minus the length of the union of its
    direct children's intervals, clipped to the span itself.
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span[3], []).append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """In-memory span recorder for one process; not thread-safe."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self._kept: dict[str, list] = {name: [] for name in DIGESTS}
        self._open: list[int] = []
        self._counters = {}
        for metric, (span, count) in WORK_COUNTS.items():
            self._counters.setdefault(span, []).append((metric, count))

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        for kept in self._kept.values():
            kept.clear()

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.spans)
        self.spans.append([name, 0, 0, self._open[-1] if self._open else -1])
        self._open.append(index)
        self.spans[index][1] = time.perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._open.remove(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, open_spans = self.spans, self._open
        kept = self._kept.get(name)
        counters = self._counters.get(name, ())
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, open_spans[-1] if open_spans else -1]
            spans.append(span)
            open_spans.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            # Results are digested after the job, so digesting is not timed.
            if kept is not None:
                kept.append(result)
            for metric, count in counters:
                counts[metric] += count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every traced ktsim function through this tracer."""
        import ktsim  # noqa: F401 - loads every submodule

        patches = []
        modules = [m for n, m in sys.modules.items() if n == "ktsim" or n.startswith("ktsim.")]
        try:
            for module_name, names in TRACED.items():
                module = importlib.import_module(f"ktsim.{module_name}")
                for qualname in names:
                    name = f"{module_name}.{qualname}"
                    if "." in qualname:
                        cls_name, attr = qualname.split(".")
                        owner = getattr(module, cls_name)
                        original = owner.__dict__[attr]
                        patches.append((owner, attr, original))
                        setattr(owner, attr, self.wrap(name, original))
                        continue
                    original = getattr(module, qualname)
                    wrapped = self.wrap(name, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                patches.append((mod, key, original))
                                setattr(mod, key, wrapped)
            original_write = pathlib.Path.write_text
            traced_write = self.wrap(WRITE_SPAN, original_write)

            def write_text(path, *args, **kwargs):
                if sys._getframe(1).f_globals.get("__name__") == "ktsim.orchestrator":
                    return traced_write(path, *args, **kwargs)
                return original_write(path, *args, **kwargs)

            original_open = pathlib.Path.open

            def open_(path, mode="r", *args, **kwargs):
                if "r" in mode or sys._getframe(1).f_globals.get("__name__") != "ktsim.orchestrator":
                    return original_open(path, mode, *args, **kwargs)
                return _SpannedFile(self, lambda: original_open(path, mode, *args, **kwargs))

            patches.append((pathlib.Path, "write_text", original_write))
            pathlib.Path.write_text = write_text
            patches.append((pathlib.Path, "open", original_open))
            pathlib.Path.open = open_
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset."""
        own = self_times(self.spans)
        calls = Counter()
        self_ns = Counter()
        for span, ns in zip(self.spans, own):
            calls[span[0]] += 1
            self_ns[span[0]] += ns
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for metric in WORK_COUNTS:
            out[metric] = self.counts[metric]
        for name, digest in DIGESTS.items():
            results = self._kept[name]
            out[f"{name}.useful_ratio"] = len({digest(r) for r in results}) / len(results) if results else 0.0
        total = sum(own)
        invariant = sum(self_ns[name] for name in INVARIANT_STAGES)
        out["orchestrator.invariant_time_share"] = invariant / total if total else 0.0
        return out

    def span_records(self, job: int) -> list[dict]:
        """Spans as JSON-able dicts, times in ns from the first span's start."""
        if not self.spans:
            return []
        origin = min(span[1] for span in self.spans)
        return [
            {
                "job": job,
                "id": index,
                "parent": parent,
                "name": name,
                "start_ns": start - origin,
                "end_ns": end - origin,
                "self_ns": own,
            }
            for index, ((name, start, end, parent), own) in enumerate(zip(self.spans, self_times(self.spans)))
        ]
