"""Span recording for the traced benchmark run.

The benchmark never edits the library. It measures each layer from outside
by replacing the module attributes the layers call through with timing
wrappers: the defining attribute and every ``from ... import`` alias of it
in any loaded ``magicarp`` module (found by identity, so a refactor that
adds or drops an alias is followed automatically).

A span is ``(span_id, parent_id, name, start, end, work)``; ``work`` is the
layer's own count (matrices exponentiated, objective points, ...). Zero-length
marker spans carry counts read from return values (iterations, stop reasons).
Spans stay in memory until the run ends.

Campaign cells run in forked pool workers. A fork starts the child with an
empty span list; the child appends its spans to ``spans-<pid>.jsonl`` in the
recorder's worker directory after every cell, and ``collect_worker_spans``
merges those files back into the parent.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np


class Recorder:
    def __init__(self, worker_dir: Path):
        self.spans: list[tuple] = []
        self.worker_dir = worker_dir
        self._stack: list[int] = []
        self._next = 0
        self._home_pid = os.getpid()
        self._pid = self._home_pid
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._stack = []
        self._next = 0
        self._pid = os.getpid()

    @property
    def in_worker(self) -> bool:
        return self._pid != self._home_pid

    def open(self) -> tuple[int, int | None]:
        self._next += 1
        sid = (self._pid << 32) | self._next
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def close(self, sid: int, parent: int | None, name: str, start: float, end: float, work) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, work))

    def mark(self, name: str, work) -> None:
        now = perf_counter()
        sid, parent = self.open()
        self.close(sid, parent, name, now, now, work)

    def flush_worker_spans(self) -> None:
        path = self.worker_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect_worker_spans(self) -> None:
        """Merge, then delete, the span files that forked workers wrote."""
        for path in sorted(self.worker_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(tuple(json.loads(line)) for line in fh)
            path.unlink()


def _traced(rec: Recorder, name: str, fn, work=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent = rec.open()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(sid, parent, name, start, perf_counter(), work(*args, **kwargs) if work else 0)

    return wrapper


def _matrices(h, *args, **kwargs) -> int:
    """Matrices in a (..., d, d) stack."""
    return int(np.prod(np.shape(h)[:-2]))


def _points(xs, *args, **kwargs) -> int:
    """Points in a (B, n) stack, or 1 for a single (n,) vector."""
    return int(np.prod(np.shape(xs)[:-1]))


def _traced_minimize(rec: Recorder, fn):
    """BFGS wrapper: spans around the callables it is handed, markers for its result."""

    @functools.wraps(fn)
    def wrapper(fun, grad, x0, *args, batch_fun=None, **kwargs):
        fun = _traced(rec, "optimizer.fun", fun)
        grad = _traced(rec, "optimizer.grad", grad)
        if batch_fun is not None:
            batch_fun = _traced(rec, "optimizer.ladder", batch_fun, _points)
        sid, parent = rec.open()
        start = perf_counter()
        try:
            result = fn(fun, grad, x0, *args, batch_fun=batch_fun, **kwargs)
            rec.mark("optimizer.iterations", result.iterations)
            rec.mark(f"optimizer.stop.{result.stop_reason}", 1)
            if batch_fun is not None:
                rec.mark("optimizer.accepted", result.iterations)
            return result
        finally:
            rec.close(sid, parent, "optimizer.minimize_bfgs", start, perf_counter(), 0)

    return wrapper


def _traced_cell(rec: Recorder, fn):
    traced = _traced(rec, "bench.cell", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return traced(*args, **kwargs)
        finally:
            if rec.in_worker:
                rec.flush_worker_spans()

    return wrapper


def _hooks(rec: Recorder):
    """(module, attribute, wrapper factory) for every traced layer boundary.

    The wrapper replaces the attribute and every alias of it, except for
    ``bench.optimize``: only the campaign's own binding marks a cell.
    """
    span = lambda name, work=None: lambda fn: _traced(rec, name, fn, work)  # noqa: E731
    return [
        ("magicarp.propagation", "expm_ihermitian", span("propagation.expm_ihermitian", _matrices)),
        ("magicarp.propagation", "propagate", span("propagation.propagate")),
        ("magicarp.shooting", "batch_objective", span("shooting.batch_objective", _points)),
        ("magicarp.shooting", "gradient", span("shooting.gradient")),
        ("magicarp.shooting", "optimality_certificate", span("shooting.optimality_certificate")),
        ("magicarp.optimizer", "minimize_bfgs", lambda fn: _traced_minimize(rec, fn)),
        ("magicarp.grape", "grape_gradient", span("grape.grape_gradient")),
        ("magicarp.grape", "grape_objective", span("grape.grape_objective")),
        ("magicarp.bench", "run_campaign", span("bench.run_campaign")),
        ("magicarp.bench", "optimize", lambda fn: _traced_cell(rec, fn)),
        ("magicarp.cli", "main", span("cli.main")),
        ("magicarp.qudit", "nearest_neighbor_control_set", span("qudit.nearest_neighbor_control_set")),
        ("magicarp.qudit", "target_gate", span("qudit.target_gate")),
    ]


class Tracing:
    """Context manager that installs the wrappers and restores every attribute on exit.

    ``missing`` lists hooks whose defining attribute does not exist in the
    library under test; their layers report zero.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracing":
        modules = [m for n, m in list(sys.modules.items()) if n == "magicarp" or n.startswith("magicarp.")]
        for module_name, attr, factory in _hooks(self.rec):
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = factory(original)
            if (module_name, attr) == ("magicarp.bench", "optimize"):
                self._patch(sys.modules[module_name], attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        basis_cls = sys.modules["magicarp.qudit"].GeneratorBasis
        if "create" in basis_cls.__dict__:
            create = basis_cls.__dict__["create"].__func__
            self._patch(basis_cls, "create", classmethod(_traced(self.rec, "qudit.GeneratorBasis.create", create)))
        else:
            self.missing.append("magicarp.qudit.GeneratorBasis.create")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


# -- aggregation -------------------------------------------------------------


def layer_metrics(spans: list[tuple], n_steps: int, workers: int) -> dict[str, float]:
    """Per-layer totals of one traced pass (every metric but ``trace.overhead_s``)."""
    by_id = {s[0]: s for s in spans}
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    work: dict[str, float] = {}
    child_s: dict[int, float] = {}
    for sid, parent, name, start, end, w in spans:
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + (end - start)
        work[name] = work.get(name, 0) + w
        if parent is not None:
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)

    def self_s(name: str) -> float:
        return sum(s[4] - s[3] - child_s.get(s[0], 0.0) for s in spans if s[2] == name)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    gradient_points = sum(
        s[5] for s in spans
        if s[2] == "shooting.batch_objective" and s[1] in by_id and by_id[s[1]][2] == "shooting.gradient"
    )
    qudit_s = sum(
        s[4] - s[3] for s in spans
        if s[2].startswith("qudit.") and not (s[1] in by_id and by_id[s[1]][2].startswith("qudit."))
    )
    c, t, n = calls.get, secs.get, work.get
    return {
        "propagation.expm_ihermitian.calls": c("propagation.expm_ihermitian", 0),
        "propagation.expm_ihermitian.matrices": n("propagation.expm_ihermitian", 0),
        "propagation.expm_ihermitian.s": t("propagation.expm_ihermitian", 0.0),
        "propagation.expm_ihermitian.us_per_matrix": 1e6 * ratio(
            t("propagation.expm_ihermitian", 0.0), n("propagation.expm_ihermitian", 0)
        ),
        "propagation.propagate.calls": c("propagation.propagate", 0),
        "propagation.propagate.s": t("propagation.propagate", 0.0),
        "shooting.batch_objective.calls": c("shooting.batch_objective", 0),
        "shooting.batch_objective.points": n("shooting.batch_objective", 0),
        "shooting.batch_objective.s": t("shooting.batch_objective", 0.0),
        "shooting.batch_objective.us_per_point_step": 1e6 * ratio(
            t("shooting.batch_objective", 0.0), n("shooting.batch_objective", 0) * n_steps
        ),
        "shooting.gradient.calls": c("shooting.gradient", 0),
        "shooting.gradient.s": t("shooting.gradient", 0.0),
        "shooting.gradient.points_per_call": ratio(gradient_points, c("shooting.gradient", 0)),
        "shooting.optimality_certificate.s": t("shooting.optimality_certificate", 0.0),
        "optimizer.minimize_bfgs.calls": c("optimizer.minimize_bfgs", 0),
        "optimizer.minimize_bfgs.self_s": self_s("optimizer.minimize_bfgs"),
        "optimizer.iterations": n("optimizer.iterations", 0),
        "optimizer.fun_calls": c("optimizer.fun", 0),
        "optimizer.grad_calls": c("optimizer.grad", 0),
        "optimizer.ladder.calls": c("optimizer.ladder", 0),
        "optimizer.ladder.points": n("optimizer.ladder", 0),
        "optimizer.ladder.s": t("optimizer.ladder", 0.0),
        "optimizer.ladder.useful_ratio": ratio(n("optimizer.accepted", 0), n("optimizer.ladder", 0)),
        "optimizer.stop.tol": c("optimizer.stop.tol", 0),
        "optimizer.stop.stall": c("optimizer.stop.stall", 0),
        "optimizer.stop.max_iters": c("optimizer.stop.max_iters", 0),
        "optimizer.stop.line_search": c("optimizer.stop.line_search", 0),
        "grape.grape_gradient.calls": c("grape.grape_gradient", 0),
        "grape.grape_gradient.s": t("grape.grape_gradient", 0.0),
        "grape.grape_objective.calls": c("grape.grape_objective", 0),
        "grape.grape_objective.s": t("grape.grape_objective", 0.0),
        "bench.run_campaign.s": t("bench.run_campaign", 0.0),
        "bench.cell.count": c("bench.cell", 0),
        "bench.cell.s": t("bench.cell", 0.0),
        "bench.pool.busy_ratio": ratio(t("bench.cell", 0.0), workers * t("bench.run_campaign", 0.0)),
        "cli.main.self_s": self_s("cli.main"),
        "qudit.setup.s": qudit_s,
    }
