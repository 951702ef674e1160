"""Span tracer that wraps module-level functions from outside the package.

The package resolves its collaborators through module globals at call time
(``coopd2d.netsim._run_trial`` calls ``_drop``, ``schedule``, ... by global
name; ``coopd2d.experiments`` calls the names it imported from the other
modules).  Replacing those globals with timing wrappers therefore records a
span at every layer boundary without editing the package.

Spans live in flat in-memory lists while the traced pass runs and are
written once, after the originals are restored.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import time
from array import array

# (module, attribute, layer name).  The same layer may be reached through
# several bindings: ``coopd2d.experiments`` holds its own references to the
# netsim functions it calls outside a campaign.
TARGETS = (
    ("coopd2d.netsim", "_run_range", "netsim.trial_loop"),
    ("coopd2d.netsim", "_run_trial", "netsim.trial"),
    ("coopd2d.netsim", "_drop", "netsim.drop"),
    ("coopd2d.netsim", "schedule", "netsim.schedule"),
    ("coopd2d.netsim", "zf_rates", "netsim.zf_rates"),
    ("coopd2d.netsim", "noncoop_rates", "netsim.noncoop_rates"),
    ("coopd2d.netsim", "_tdma_throughput", "netsim.tdma"),
    ("coopd2d.cli", "main", "cli.main"),
    ("coopd2d.cli", "cmd_optimize_bandwidth", "experiments.cmd_optimize_bandwidth"),
    ("coopd2d.cli", "cmd_validate", "experiments.cmd_validate"),
    ("coopd2d.experiments", "analytic_point", "experiments.analytic_point"),
    ("coopd2d.experiments", "grid_search_eta", "experiments.grid_search_eta"),
    ("coopd2d.experiments", "write_csv", "experiments.write_csv"),
    ("coopd2d.experiments", "build_popularity", "catalog.build_popularity"),
    ("coopd2d.experiments", "coop_probability", "clusters.coop_probability"),
    ("coopd2d.experiments", "path_gain_moments", "geometry.path_gain_moments"),
    ("coopd2d.experiments", "noncoop_link_rate", "rates.link_rates"),
    ("coopd2d.experiments", "coop_link_rate", "rates.link_rates"),
    ("coopd2d.experiments", "expected_coop_users_exact", "population.exact"),
    ("coopd2d.experiments", "expected_coop_users_mc", "population.mc"),
    ("coopd2d.experiments", "optimize_eta", "bandwidth.optimize_eta"),
    ("coopd2d.experiments", "drop_snapshot", "experiments.drop_snapshot"),
    ("coopd2d.experiments", "_empirical_moment", "experiments.empirical_moment"),
    ("coopd2d.experiments", "run_campaign", "experiments.run_campaign"),
    ("coopd2d.experiments", "schedule", "netsim.schedule"),
    ("coopd2d.experiments", "zf_rates", "netsim.zf_rates"),
    ("coopd2d.experiments", "noncoop_rates", "netsim.noncoop_rates"),
)

# Spans of these layers open a new group: the trial index of a campaign
# trial, or a running id per analytic operating point.
_TRIAL = "netsim.trial"
_POINT = "experiments.analytic_point"


class Tracer:
    """Records nested spans of wrapped calls; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.name_of = array("q")  # layer code per span
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.group = array("q")  # trial index or point id, inherited
        self.root = array("q")  # enclosing trial/point span, or -1
        self.labels: dict[int, str] = {}  # trial span -> strategy
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._points = 0
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around its own call."""
        idx = self._open(self._layer(name), None)
        try:
            yield
        finally:
            self._close(idx)

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, layer in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append("%s.%s" % (module_name, attr))
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, self._layer(layer)))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _layer(self, name: str) -> int:
        if name not in self._code:
            self._code[name] = len(self.names)
            self.names.append(name)
        return self._code[name]

    def _open(self, code: int, group: int | None) -> int:
        idx = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        self.name_of.append(code)
        self.parent.append(parent)
        if group is None:
            self.group.append(self.group[parent] if parent >= 0 else -1)
            self.root.append(self.root[parent] if parent >= 0 else -1)
        else:
            self.group.append(group)
            self.root.append(idx)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, code: int):
        tracer = self
        name = self.names[code]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            group = None
            if name == _TRIAL:  # _run_trial(config, trial_index)
                group = args[1] if len(args) > 1 and isinstance(args[1], int) else -1
            elif name == _POINT:
                group = tracer._points
                tracer._points += 1
            idx = tracer._open(code, group)
            if name == _TRIAL and args:
                tracer.labels[idx] = getattr(args[0], "strategy", "?")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def summary(self) -> dict[str, dict]:
        """Per layer: calls, self time, calls per trial strategy, loop spans.

        Self time is the span's duration minus that of its direct children.
        ``looped`` counts the spans (and their self time) that have a
        ``netsim.trial_loop`` child, i.e. campaigns run in this process.
        """
        n = len(self.start)
        loop = self._code.get("netsim.trial_loop")
        child_ns = [0] * n
        has_loop = [False] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
                has_loop[p] = has_loop[p] or self.name_of[i] == loop
        out: dict[str, dict] = {}
        for i in range(n):
            rec = out.setdefault(
                self.names[self.name_of[i]],
                {"calls": 0, "self_ns": 0, "in_trial": {}, "looped": 0, "looped_ns": 0},
            )
            self_ns = self.end[i] - self.start[i] - child_ns[i]
            rec["calls"] += 1
            rec["self_ns"] += self_ns
            if has_loop[i]:
                rec["looped"] += 1
                rec["looped_ns"] += self_ns
            label = self.labels.get(self.root[i])
            if label is not None:
                rec["in_trial"][label] = rec["in_trial"].get(label, 0) + 1
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("span,name,start_ns,end_ns,parent,group\n")
            for i in range(len(self.start)):
                fh.write(
                    "%d,%s,%d,%d,%d,%d\n"
                    % (
                        i,
                        self.names[self.name_of[i]],
                        self.start[i],
                        self.end[i],
                        self.parent[i],
                        self.group[i],
                    )
                )

