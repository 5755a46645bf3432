"""Timing delegates: per-layer spans taken from outside the program.

Nothing under ``src/`` knows about this file. A :class:`Tracer` replaces
a method on an object (or, where the object is built out of reach, on its
class) by a delegate that times the call and forwards it unchanged; every
replacement is recorded and undone by :meth:`Tracer.restore`.

Each delegate call is one span. Self time is computed online as the
span's duration minus the time its direct child spans covered, so a
traced round costs a constant amount of memory; the raw spans
``(name, start, end, parent, trial)`` are kept only when a trace file was
asked for (``keep_spans=True``) and are written once, by
:meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Sequence, Tuple

__all__ = ["Tracer"]

#: ``Simulation`` methods that copy whole-execution state. ``snapshot``
#: calls ``fork`` internally, so their durations nest; callers sum the
#: *self* times.
FORK_METHODS = ("fork", "snapshot", "restore")


class Tracer:
    """Records spans for the calls it was asked to delegate."""

    def __init__(self, keep_spans: bool = False) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self._stats: Dict[str, List[float]] = {}
        #: One ``[child seconds, span index]`` entry per open span.
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        #: Index of the trial whose spans are being recorded.
        self.trial = -1
        #: span name -> its index in the written trace
        self._names: Dict[str, int] = {}
        self._spans = None
        if keep_spans:
            # name index, start, end, parent span index, trial index
            self._spans = (array("H"), array("d"), array("d"),
                           array("l"), array("l"))

    # -- spans ------------------------------------------------------------#

    def wrap(self, name: str, fn):
        """A delegate that forwards to ``fn`` and records one span."""
        stats = self._stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self._spans
        clock = time.perf_counter
        name_index = self._names.setdefault(name, len(self._names))

        def delegate(*args, **kwargs):
            index = -1
            if spans is not None:
                index = len(spans[0])
                spans[0].append(name_index)
                spans[1].append(0.0)
                spans[2].append(0.0)
                spans[3].append(int(stack[-1][1]) if stack else -1)
                spans[4].append(self.trial)
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if spans is not None:
                    spans[1][index] = start
                    spans[2][index] = end

        return delegate

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as one span (for whole-call timings)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def take(self) -> Dict[str, Tuple[int, float, float]]:
        """Per-name ``(calls, total_s, self_s)`` since the last take."""
        out = {
            name: (int(calls), total, own)
            for name, (calls, total, own) in self._stats.items() if calls
        }
        for entry in self._stats.values():
            entry[0], entry[1], entry[2] = 0, 0.0, 0.0
        return out

    def write_spans(self, path: str) -> None:
        """Write every kept span to ``path`` as one JSON document."""
        names, starts, ends, parents, trials = self._spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "names": list(self._names),
                "columns": ["name", "start", "end", "parent", "trial"],
                "spans": [
                    [names[i], starts[i], ends[i], parents[i], trials[i]]
                    for i in range(len(names))
                ],
            }, handle)
            handle.write("\n")

    # -- delegates --------------------------------------------------------#

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (instance or class) by a delegate."""
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def patch_class(self, cls: type, attr: str, name: str) -> None:
        """Delegate ``attr`` on the class in ``cls``'s MRO that defines
        it, once — subclasses sharing an inherited method (Ears and Sears
        share ``EpidemicGossip.on_step``) must not stack two delegates."""
        owner = next(k for k in cls.__mro__ if attr in vars(k))
        if not any(p[0] is owner and p[1] == attr for p in self._patches):
            self.patch(owner, attr, name)

    def restore(self, keep: int = 0) -> None:
        """Undo the replacements made through :meth:`patch`, newest
        first, until only the oldest ``keep`` remain."""
        while len(self._patches) > keep:
            owner, attr, had_own, previous = self._patches.pop()
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    @contextmanager
    def scope(self) -> Iterator[None]:
        """Undo, on exit, every replacement made inside the ``with``."""
        mark = len(self._patches)
        try:
            yield
        finally:
            self.restore(mark)

    def install(self, sim, kind: str) -> None:
        """Delegates on one built simulation's layer objects.
        Instance-level, so they never touch another simulation — which
        also means they do not follow a ``fork`` (see
        :meth:`install_classes`)."""
        self._patch_layers(
            self.patch, sim.adversary, sim.network, sim.metrics,
            [handle.algorithm for handle in sim.processes.values()],
            "consensus.on_step" if kind == "consensus" else "core.on_step",
        )
        if sim.monitor is not None:
            self.patch(sim.monitor, "check", "sim.monitor.check")

    def install_classes(self, adversary: type, network: type,
                        metrics: type, algorithms: Sequence[type]) -> None:
        """Class-level delegates, for simulations built out of reach
        (``run_lower_bound`` constructs and forks its own)."""
        self._patch_layers(self.patch_class, adversary, network, metrics,
                           algorithms, "core.on_step")

    def install_state_copies(self, simulation: type) -> None:
        """Class-level delegates on ``fork``/``snapshot``/``restore``."""
        for attr in FORK_METHODS:
            self.patch_class(simulation, attr, "sim.engine." + attr)

    @staticmethod
    def _patch_layers(patch, adversary, network, metrics, algorithms,
                      on_step_name: str) -> None:
        patch(adversary, "schedule_at", "adversary.schedule")
        patch(adversary, "crashes_at", "adversary.schedule")
        patch(adversary, "assign_delay", "adversary.delay")
        patch(adversary, "next_event_at", "adversary.next_event")
        patch(network, "enqueue", "sim.network.enqueue")
        patch(network, "collect", "sim.network.collect")
        for attr in ("record_send", "record_delivery", "record_scheduled"):
            patch(metrics, attr, "sim.metrics.record")
        for algorithm in algorithms:
            patch(algorithm, "on_step", on_step_name)
