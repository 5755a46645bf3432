"""The declarative :class:`RunSpec`: one frozen description of one run.

The paper's evaluation is a matrix of executions — algorithm × adversary ×
scenario × (n, f, d, δ) × seed.  A :class:`RunSpec` is one cell of that
matrix as plain data: every field is JSON-native (or ``None``), so a spec
can be written to disk, shipped to a worker process, diffed, and — most
importantly — hashed.  :attr:`RunSpec.spec_hash` is a stable canonical
digest used by :mod:`repro.store` to dedupe and resume sweeps: two specs
describing the same execution always hash identically, whatever field
order or Python value representations (tuple vs. list) produced them.

Specs say *what* to run; :mod:`repro.spec.builder` turns one into a live
:class:`~repro.sim.engine.Simulation` and :mod:`repro.spec.registry`
resolves every name it mentions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..sim.errors import ConfigurationError
from ..sim.topology import normalize_topology

__all__ = ["RunSpec", "SPEC_SCHEMA_VERSION"]

#: Version of the serialized spec layout.  Bump when a field changes
#: meaning; readers refuse versions they do not know.
SPEC_SCHEMA_VERSION = 1

KINDS = ("gossip", "consensus")

#: Fields always serialized, even at their default values — the identity
#: coordinates of a run.  Everything else is omitted at its default, so
#: adding a new defaulted knob later never changes existing hashes.
_IDENTITY_FIELDS = ("kind", "algorithm", "n", "d", "delta", "seed")


def _plain(value: Any) -> Any:
    """Recursively convert to JSON-native shapes (tuples become lists)."""
    if isinstance(value, MappingABC):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class RunSpec:
    """One declarative execution: problem kind, algorithm, regime, seed.

    Fields:
        kind: ``"gossip"`` or ``"consensus"``.
        algorithm: a gossip-algorithm name, a consensus transport name, or
            ``"ben-or"`` (the transport-free consensus protocol).
        n, f, d, delta, seed: the paper's execution coordinates.  ``f``
            defaults per kind (0 for gossip, ``(n-1)//2`` for consensus).
        params: algorithm knobs as a JSON mapping — the fields of the
            algorithm's parameter dataclass (``{"eps": 0.25}`` for
            SEARS) or its constructor keywords (``{"budget": 1}`` for
            ``sparse``); ``docs/specs.md`` lists them. A
            :mod:`repro.core.params` object is accepted and stored as
            the mapping of its non-default fields, so
            ``SearsParams(eps=0.25)`` and ``{"eps": 0.25}`` are one spec.
        crashes: ``None`` (failure-free), an int (that many random early
            victims), ``{"events": {t: [pids]}}`` (an explicit plan), or
            ``{"name": ..., **knobs}`` (a registered crash-plan factory).
        scenario: a registered scenario name; supplies (d, δ) and, unless
            ``crashes`` is set explicitly, the crash workload.
        adversary: ``{"name": ..., **knobs}`` selecting a registered
            adversary family (default: the uniform oblivious adversary).
        topology: communication graph restricting who may gossip with
            whom — a registered family name or ``{"name": ..., **knobs}``
            (default: the paper's complete graph; gossip only).
        values: consensus initial values (one per process).
        majority: override the gossip completion notion.
        measure_bits / max_steps: instrumentation and limit knobs, as in
            the legacy entry points.
        check_invariants: attach the kind's runtime safety invariants
            (:func:`repro.sim.invariants.default_invariants`) so the run
            raises :class:`~repro.sim.errors.InvariantViolation` the step
            a paper property is broken.  Defaults off (the observer-free
            fast path); hash-stable because defaulted fields are omitted
            from the serialization.
        engine: execution strategy (``"auto"``/``"stepwise"``/``"leap"``/
            ``"batch"``); round-trips through serialization but never
            enters the spec hash.  The scalar engines are bit-identical
            to each other; ``"batch"`` (the vectorized batched-trial
            engine) is seed-deterministic and distribution-equivalent,
            falling back to scalar execution for ineligible cells.
    """

    kind: str = "gossip"
    algorithm: str = "ears"
    n: int = 64
    f: Optional[int] = None
    d: int = 1
    delta: int = 1
    seed: int = 0
    params: Optional[Mapping[str, Any]] = None
    crashes: Optional[Union[int, Mapping[str, Any]]] = None
    scenario: Optional[str] = None
    adversary: Optional[Mapping[str, Any]] = None
    values: Optional[Tuple[Any, ...]] = None
    majority: Optional[bool] = None
    measure_bits: bool = False
    max_steps: Optional[int] = None
    check_invariants: bool = False
    #: Communication topology: ``None`` / ``"complete"`` (the paper's
    #: model — both normalize to ``None``, so an explicit complete
    #: topology hashes like the default and pre-topology spec hashes
    #: never move), a registered family name (``"ring"``, ``"gnp"``,
    #: ``"random-regular"``, ``"small-world"``) or ``{"name": ...,
    #: **knobs}`` with family knobs (e.g. ``{"name": "gnp", "p": 0.2}``).
    #: The graph is a pure function of ``(topology, seed, n)``. Gossip
    #: only; consensus transports assume the complete graph.
    topology: Optional[Union[str, Mapping[str, Any]]] = None
    #: Execution strategy: ``"auto"`` (time-leap fast path with stepwise
    #: fallback), ``"stepwise"`` (reference loop), ``"leap"``, or
    #: ``"batch"`` (the vectorized batched-trial engine, scalar fallback
    #: for ineligible cells). Not part of the spec's identity: it is
    #: excluded from :meth:`canonical_json` / :attr:`spec_hash` and
    #: artifact stores dedupe across engines — the scalar engines are
    #: bit-identical, and a batch run answers the same statistical
    #: question as the scalar run of the same seed (the conformance
    #: suite KS-gates the equivalence), so a cached record under either
    #: engine satisfies the spec.
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown run kind {self.kind!r}; choose from {list(KINDS)}"
            )
        for name, value in (("n", self.n), ("d", self.d),
                            ("delta", self.delta)):
            if value < 1:
                raise ConfigurationError(
                    f"{name} must be >= 1, got {value}")
        if self.f is not None and not 0 <= self.f < self.n:
            raise ConfigurationError(
                f"f must be in [0, n={self.n}), got {self.f}")
        if isinstance(self.crashes, int) and self.crashes < 0:
            raise ConfigurationError(
                f"crashes must be >= 0, got {self.crashes}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigurationError(
                f"max_steps must be >= 1, got {self.max_steps}")
        if self.scenario is not None and self.adversary is not None:
            raise ConfigurationError(
                "a spec sets either 'scenario' or 'adversary', not both"
            )
        if self.engine not in ("auto", "stepwise", "leap", "batch"):
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; choose from "
                "['auto', 'stepwise', 'leap', 'batch']"
            )
        if dataclasses.is_dataclass(self.params):
            object.__setattr__(self, "params", {
                knob.name: getattr(self.params, knob.name)
                for knob in fields(self.params)
                if getattr(self.params, knob.name) != knob.default
            })
        for name in ("params", "adversary"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, dict(value))
        if isinstance(self.crashes, MappingABC):
            object.__setattr__(self, "crashes", dict(self.crashes))
        if self.values is not None:
            object.__setattr__(self, "values", tuple(self.values))
        # Canonicalize at construction so "complete" (in any spelling)
        # serializes — and hashes — exactly like the default, and unknown
        # families fail here rather than at build time.
        object.__setattr__(
            self, "topology", normalize_topology(self.topology)
        )
        if self.topology is not None and self.kind == "consensus":
            raise ConfigurationError(
                "consensus runs assume the complete graph; topology is a "
                "gossip-only field"
            )

    # -- derived coordinates --------------------------------------------- #

    @property
    def resolved_f(self) -> int:
        """The failure bound with the kind-specific default applied."""
        if self.f is not None:
            return self.f
        return 0 if self.kind == "gossip" else (self.n - 1) // 2

    def replace(self, **changes: Any) -> "RunSpec":
        """A copy with ``changes`` applied (specs are immutable)."""
        return dataclasses.replace(self, **changes)

    # -- serialization ---------------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native form; defaulted knobs are omitted for hash
        stability across future schema growth."""
        out: Dict[str, Any] = {"schema": SPEC_SCHEMA_VERSION}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name in _IDENTITY_FIELDS or value != spec_field.default:
                out[spec_field.name] = _plain(value)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        payload = dict(data)
        schema = payload.pop("schema", SPEC_SCHEMA_VERSION)
        if not isinstance(schema, int) or not 1 <= schema <= SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported spec schema version {schema!r}; this build "
                f"reads versions 1..{SPEC_SCHEMA_VERSION}"
            )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown RunSpec field(s) {unknown}; "
                f"known fields: {sorted(known)}"
            )
        return cls(**payload)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "RunSpec":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    @classmethod
    def load_many(cls, path: str) -> List["RunSpec"]:
        """Load a batch of specs: a JSON array of spec objects, a single
        spec object, or JSONL (one spec per line)."""
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        stripped = text.lstrip()
        if stripped.startswith("["):
            return [cls.from_dict(item) for item in json.loads(text)]
        if stripped.startswith("{") and "\n{" not in text:
            try:
                return [cls.from_dict(json.loads(text))]
            except json.JSONDecodeError:
                pass  # multiple pretty-printed objects: fall through
        return [
            cls.from_json(line)
            for line in text.splitlines() if line.strip()
        ]

    # -- identity ---------------------------------------------------------#

    def canonical_json(self) -> str:
        """The canonical serialization the hash is computed over.

        Execution-strategy knobs (``engine``) are stripped: the time-leap
        engine is bit-identical to stepwise, so the same run under a
        different engine must dedupe to the same artifact.
        """
        data = self.to_dict()
        data.pop("engine", None)
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @property
    def spec_hash(self) -> str:
        """Stable 64-bit hex digest of the canonical serialization."""
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:16]
