"""Exception types for the asynchronous simulation substrate.

All substrate-level failures raise a subclass of :class:`SimulationError` so
callers can distinguish misconfiguration and model violations from ordinary
Python errors raised inside algorithm code. :class:`Registry`, the one
table type for every set of names in the package, lives here too, so
that its miss (:class:`UnknownNameError`) is a configuration error.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Dict, Iterator


class SimulationError(Exception):
    """Base class for all simulation substrate errors."""


class ConfigurationError(SimulationError):
    """A simulation was constructed with inconsistent parameters."""


class CrashBudgetExceeded(SimulationError):
    """The adversary attempted to crash more than ``f`` processes."""


class InvalidScheduleError(SimulationError):
    """The adversary produced a schedule that is not a subset of live pids."""


class InvalidDelayError(SimulationError):
    """The adversary assigned a non-positive message delay."""


class AlgorithmError(SimulationError):
    """An algorithm violated the process API contract."""


class IncompleteRunError(SimulationError):
    """A run that was required to complete did not.

    Raised by :meth:`Simulation.run(..., strict=True)
    <repro.sim.engine.Simulation.run>`, with diagnostics: the engine's
    stop ``reason``, the number of ``steps`` executed, the ``in_flight``
    message count at stop time, and the set of live pids that report
    themselves ``quiescent``.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = None,
        steps: int = None,
        in_flight: int = None,
        quiescent: frozenset = None,
        result=None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.steps = steps
        self.in_flight = in_flight
        self.quiescent = quiescent
        self.result = result


class InvariantViolation(SimulationError):
    """A runtime safety invariant failed during an execution.

    Raised by the observers in :mod:`repro.sim.invariants` the moment a
    paper property (gossip validity/integrity, crash consistency, the
    declared (d, δ) bounds, consensus agreement/validity/irrevocability)
    stops holding. Carries the invariant's name, the global step, the
    offending pid (when one exists) and a small state digest of the
    simulation at violation time.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        step: int = None,
        pid: int = None,
        digest: dict = None,
    ) -> None:
        super().__init__(
            f"[{invariant}] {message}"
            + (f" (step={step}" + (f", pid={pid})" if pid is not None
                                   else ")") if step is not None else "")
        )
        self.invariant = invariant
        self.step = step
        self.pid = pid
        self.digest = digest or {}


class UnknownNameError(ConfigurationError, KeyError):
    """A name was looked up in a :class:`Registry` that does not hold it.

    Both a :class:`ConfigurationError` (the substrate's misconfiguration
    type) and a :class:`KeyError` (a registry is a mapping).
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # KeyError would repr()-quote the message
        return self.message


class Registry(Mapping):
    """A fixed ``name -> entry`` table, built once from a dict; a missing
    name raises :class:`UnknownNameError` listing the choices and the
    closest one."""

    def __init__(self, kind: str, entries: Mapping[str, Any]) -> None:
        self.kind = kind
        self._entries: Dict[str, Any] = dict(entries)

    def __getitem__(self, name: str) -> Any:
        try:
            return self._entries[name]
        except KeyError:
            pass
        import difflib

        message = f"unknown {self.kind} {name!r}; choose from {sorted(self)}"
        close = difflib.get_close_matches(str(name), list(self), n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        raise UnknownNameError(message)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
