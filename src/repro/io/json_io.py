"""JSON persistence of analysis problems and schedules.

The on-disk problem format bundles the task graph, the mapping, the platform,
the arbiter *name* (arbiters are reconstructed through the registry — custom
parameterizations must be re-applied programmatically) and the horizon::

    {
      "format": "repro-problem",
      "version": 1,
      "name": "...",
      "graph": {...},        # repro.model.serialization.graph_to_dict
      "mapping": {...},      # repro.model.serialization.mapping_to_dict
      "platform": {...},     # Platform.to_dict
      "arbiter": "round-robin",
      "horizon": null
    }

Schedules are stored with ``Schedule.to_dict`` under a ``repro-schedule``
envelope so files are self-describing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..arbiter import create_arbiter
from ..core import AnalysisProblem, Schedule
from ..core.kernel import (
    KEEP_HORIZON,
    CompiledProblem,
    OverlayProblem,
    ParamOverlay,
    PatchedProblem,
    StructureOverlay,
)
from ..errors import ModelError, SerializationError
from ..model import MemoryDemand, graph_to_dict, mapping_from_dict, mapping_to_dict
from ..model.serialization import unvalidated_graph_from_dict
from ..platform import Platform

__all__ = [
    "problem_to_dict",
    "problem_from_dict",
    "overlay_to_dict",
    "overlay_from_dict",
    "structure_delta_to_dict",
    "structure_delta_from_dict",
    "delta_to_dict",
    "delta_from_dict",
    "is_structure_delta",
    "save_problem",
    "load_problem",
    "save_schedule",
    "load_schedule",
    "batch_results_to_dict",
    "batch_results_from_dict",
    "save_batch_results",
    "load_batch_results",
]

PathLike = Union[str, Path]

_PROBLEM_FORMAT = "repro-problem"
_SCHEDULE_FORMAT = "repro-schedule"
_BATCH_FORMAT = "repro-batch"
_OVERLAY_FORMAT = "repro-overlay"
_STRUCTURE_DELTA_FORMAT = "repro-structure-delta"
_VERSION = 1

#: every key an overlay record may carry — anything else is a wire-format
#: error (a version-skewed client must fail loudly, not silently lose fields
#: and poison digest-keyed cache entries)
_OVERLAY_KEYS = frozenset(
    {"format", "version", "name", "wcet", "accesses", "has_horizon", "horizon"}
)

#: keys a structure-delta record may carry, per delta kind (beyond the
#: envelope keys shared by every kind)
_DELTA_ENVELOPE_KEYS = frozenset({"format", "version", "name", "kind"})
_DELTA_KIND_KEYS = {
    "noop": frozenset(),
    "add_task": frozenset(
        {"task", "wcet", "core", "accesses", "min_release", "deadline", "position"}
    ),
    "remove_task": frozenset({"task"}),
    "add_edge": frozenset({"producer", "consumer", "volume"}),
    "remove_edge": frozenset({"producer", "consumer"}),
    "remap_task": frozenset({"task", "core", "position"}),
}


def _reject_unknown_keys(
    data: Dict[str, Any], allowed: "frozenset[str]", context: str
) -> None:
    """Raise a clean wire-format error when ``data`` carries foreign keys."""
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SerializationError(
            f"{context} carries unknown key(s) {', '.join(map(repr, unknown))}; "
            "a version-skewed peer must be upgraded, not silently truncated"
        )


def problem_to_dict(problem: AnalysisProblem) -> Dict[str, Any]:
    """Serialize an analysis problem to a JSON-compatible dictionary."""
    return {
        "format": _PROBLEM_FORMAT,
        "version": _VERSION,
        "name": problem.name,
        "graph": graph_to_dict(problem.graph),
        "mapping": mapping_to_dict(problem.mapping),
        "platform": problem.platform.to_dict(),
        "arbiter": problem.arbiter.name,
        "horizon": problem.horizon,
    }


def problem_from_dict(data: Dict[str, Any]) -> AnalysisProblem:
    """Deserialize an analysis problem; raises :class:`SerializationError` on bad input."""
    if data.get("format") != _PROBLEM_FORMAT:
        raise SerializationError(
            f"not a {_PROBLEM_FORMAT} document (format={data.get('format')!r})"
        )
    try:
        platform = Platform.from_dict(data["platform"])
        # AnalysisProblem.validate checks the graph, once
        graph = unvalidated_graph_from_dict(data["graph"])
        mapping = mapping_from_dict(data["mapping"])
        arbiter = create_arbiter(str(data.get("arbiter", "round-robin")), platform)
        horizon = data.get("horizon")
        return AnalysisProblem(
            graph=graph,
            mapping=mapping,
            platform=platform,
            arbiter=arbiter,
            horizon=None if horizon is None else int(horizon),
            name=str(data.get("name", graph.name)),
        )
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"invalid problem document: {exc}") from exc


def overlay_to_dict(probe: OverlayProblem) -> Dict[str, Any]:
    """Serialize the *delta* of an overlay probe (not its base problem).

    One of the two delta record kinds (see :func:`delta_to_dict`): a batch
    of probes ships one ``repro-problem`` parent document plus one small
    record per probe.  ``wcet``/``accesses`` are full per-task vectors in the
    base graph's task order (``null`` = keep the base vector); the horizon is
    a tri-state (``has_horizon=false`` keeps the base problem's).
    """
    overlay = probe.overlay
    return {
        "format": _OVERLAY_FORMAT,
        "version": _VERSION,
        "name": probe.name,
        "wcet": None if overlay.wcet is None else list(overlay.wcet),
        "accesses": (
            None
            if overlay.demand is None
            else [
                {str(bank): count for bank, count in demand.items()}
                for demand in overlay.demand
            ]
        ),
        "has_horizon": not overlay.keeps_horizon,
        "horizon": None if overlay.keeps_horizon else overlay.horizon,
    }


def overlay_from_dict(data: Dict[str, Any], kernel: CompiledProblem) -> OverlayProblem:
    """Deserialize an overlay record against an already-compiled kernel.

    The vectors are aligned with the kernel's task ids, i.e. the insertion
    order of the base graph — which the ``repro-problem`` format preserves,
    so base + overlays round-trip the wire consistently.

    :raises SerializationError: on a foreign document, unknown keys,
        mismatched vector lengths or malformed values.
    """
    if not isinstance(data, dict) or data.get("format") != _OVERLAY_FORMAT:
        found = data.get("format") if isinstance(data, dict) else type(data).__name__
        raise SerializationError(f"not a {_OVERLAY_FORMAT} document (format={found!r})")
    _reject_unknown_keys(data, _OVERLAY_KEYS, f"{_OVERLAY_FORMAT} record")
    try:
        wcet = data.get("wcet")
        accesses = data.get("accesses")
        demand = (
            None
            if accesses is None
            else tuple(
                MemoryDemand({int(bank): int(count) for bank, count in record.items()})
                for record in accesses
            )
        )
        horizon: Any = KEEP_HORIZON
        if bool(data.get("has_horizon")):
            horizon = None if data.get("horizon") is None else int(data["horizon"])
        overlay = ParamOverlay(
            wcet=None if wcet is None else [int(value) for value in wcet],
            demand=demand,
            horizon=horizon,
        )
        name = data.get("name")
        return OverlayProblem(
            kernel, overlay, name=None if name is None else str(name)
        )
    except ModelError as exc:
        raise SerializationError(f"invalid overlay record: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"invalid overlay record: {exc}") from exc


def structure_delta_to_dict(
    delta: StructureOverlay, *, name: Optional[str] = None
) -> Dict[str, Any]:
    """Serialize a structural delta (one edit against a base problem).

    The other delta record kind (see :func:`delta_to_dict`).  Only the
    fields the delta's ``kind`` uses are emitted; ``name`` labels the probe
    (the patched problem's name).
    """
    record: Dict[str, Any] = {
        "format": _STRUCTURE_DELTA_FORMAT,
        "version": _VERSION,
        "kind": delta.kind,
    }
    if name is not None:
        record["name"] = name
    kind = delta.kind
    if kind in ("add_task", "remove_task", "remap_task"):
        record["task"] = delta.task
    if kind == "add_task":
        record["wcet"] = delta.wcet
        record["core"] = delta.core
        if delta.demand is not None:
            record["accesses"] = {
                str(bank): count for bank, count in delta.demand.items()
            }
        if delta.min_release:
            record["min_release"] = delta.min_release
        if delta.deadline is not None:
            record["deadline"] = delta.deadline
    if kind in ("add_edge", "remove_edge"):
        record["producer"] = delta.producer
        record["consumer"] = delta.consumer
    if kind == "add_edge" and delta.volume:
        record["volume"] = delta.volume
    if kind in ("add_task", "remap_task"):
        if kind == "remap_task":
            record["core"] = delta.core
        if delta.position is not None:
            record["position"] = delta.position
    return record


def structure_delta_from_dict(
    data: Dict[str, Any],
) -> "Tuple[StructureOverlay, Optional[str]]":
    """Deserialize ``(delta, probe name)`` from a structure-delta record.

    Unknown and extra keys are rejected outright — the record keys a
    digest-addressed cache, so a field this reader would silently drop means
    the sender speaks a newer dialect and the digests no longer agree.

    :raises SerializationError: on a foreign document, unknown kind or keys,
        or malformed values.
    """
    if not isinstance(data, dict) or data.get("format") != _STRUCTURE_DELTA_FORMAT:
        found = data.get("format") if isinstance(data, dict) else type(data).__name__
        raise SerializationError(
            f"not a {_STRUCTURE_DELTA_FORMAT} document (format={found!r})"
        )
    kind = data.get("kind")
    allowed = _DELTA_KIND_KEYS.get(str(kind)) if kind is not None else None
    if allowed is None:
        raise SerializationError(
            f"unknown structure-delta kind {kind!r}; "
            f"expected one of {', '.join(sorted(_DELTA_KIND_KEYS))}"
        )
    _reject_unknown_keys(
        data,
        _DELTA_ENVELOPE_KEYS | allowed,
        f"{_STRUCTURE_DELTA_FORMAT} record (kind={kind})",
    )
    name = data.get("name")
    try:
        if kind == "noop":
            delta = StructureOverlay.noop()
        elif kind == "add_task":
            accesses = data.get("accesses")
            delta = StructureOverlay.add_task(
                str(data["task"]),
                wcet=int(data["wcet"]),
                core=int(data["core"]),
                demand=(
                    None
                    if accesses is None
                    else MemoryDemand(
                        {int(bank): int(count) for bank, count in accesses.items()}
                    )
                ),
                min_release=int(data.get("min_release", 0)),
                deadline=(
                    None if data.get("deadline") is None else int(data["deadline"])
                ),
                position=(
                    None if data.get("position") is None else int(data["position"])
                ),
            )
        elif kind == "remove_task":
            delta = StructureOverlay.remove_task(str(data["task"]))
        elif kind == "add_edge":
            delta = StructureOverlay.add_edge(
                str(data["producer"]),
                str(data["consumer"]),
                volume=int(data.get("volume", 0)),
            )
        elif kind == "remove_edge":
            delta = StructureOverlay.remove_edge(
                str(data["producer"]), str(data["consumer"])
            )
        else:  # remap_task — the kind set was validated above
            delta = StructureOverlay.remap_task(
                str(data["task"]),
                int(data["core"]),
                position=(
                    None if data.get("position") is None else int(data["position"])
                ),
            )
    except ModelError as exc:
        raise SerializationError(f"invalid structure-delta record: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"invalid structure-delta record: {exc}") from exc
    return delta, None if name is None else str(name)


def delta_to_dict(probe: OverlayProblem) -> Dict[str, Any]:
    """Wire record of a probe's delta against its parent kernel.

    A parameter probe becomes a ``repro-overlay`` record, a structural probe
    a ``repro-structure-delta`` record; :func:`delta_from_dict` reads either.
    """
    if probe.delta is None:
        return overlay_to_dict(probe)
    return structure_delta_to_dict(probe.delta, name=probe.name)


def is_structure_delta(record: Any) -> bool:
    """True for a ``repro-structure-delta`` record (its probe can warm-start)."""
    return isinstance(record, dict) and record.get("format") == _STRUCTURE_DELTA_FORMAT


def delta_from_dict(
    data: Dict[str, Any],
    parent: CompiledProblem,
    *,
    parent_schedule: Optional[Schedule] = None,
) -> OverlayProblem:
    """Probe for a delta record against the already-compiled ``parent``.

    Dispatches on the record's ``format``: a ``repro-overlay`` record binds
    its parameter vectors to ``parent``; a ``repro-structure-delta`` record
    patches ``parent`` (sharing its untouched tables) and, when
    ``parent_schedule`` is given, warm-starts the analyzers from the
    parent's solution.  Parameter probes ignore ``parent_schedule``.

    :raises SerializationError: for wire-format problems; model, mapping and
        platform errors from applying a structural edit propagate as-is.
    """
    if is_structure_delta(data):
        delta, name = structure_delta_from_dict(data)
        return PatchedProblem(parent, delta, name=name, parent_schedule=parent_schedule)
    if isinstance(data, dict) and data.get("format") == _OVERLAY_FORMAT:
        return overlay_from_dict(data, parent)
    found = data.get("format") if isinstance(data, dict) else type(data).__name__
    raise SerializationError(
        f"not a {_OVERLAY_FORMAT} or {_STRUCTURE_DELTA_FORMAT} record (format={found!r})"
    )


def save_problem(problem: AnalysisProblem, path: PathLike) -> Path:
    """Write a problem to ``path`` as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(problem_to_dict(problem), indent=2), encoding="utf-8")
    return path


def load_problem(path: PathLike) -> AnalysisProblem:
    """Load a problem from a JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read problem file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SerializationError(f"problem file {path} does not contain a JSON object")
    return problem_from_dict(data)


def save_schedule(schedule: Schedule, path: PathLike) -> Path:
    """Write a schedule to ``path`` as JSON; returns the path."""
    path = Path(path)
    document = {"format": _SCHEDULE_FORMAT, "version": _VERSION, **schedule.to_dict()}
    path.write_text(json.dumps(document, indent=2), encoding="utf-8")
    return path


def batch_results_to_dict(schedules: Iterable[Schedule]) -> Dict[str, Any]:
    """Self-describing ``repro-batch`` document for many schedules.

    The in-memory form behind :func:`save_batch_results`; also the wire format
    of the :mod:`repro.service` batch API responses.
    """
    schedules = list(schedules)
    return {
        "format": _BATCH_FORMAT,
        "version": _VERSION,
        "count": len(schedules),
        "schedules": [schedule.to_dict() for schedule in schedules],
    }


def batch_results_from_dict(data: Dict[str, Any]) -> List[Optional[Schedule]]:
    """Schedules of a :func:`batch_results_to_dict` document.

    ``null`` records are preserved as ``None``: the service's ``POST /batch``
    responses carry ``null`` at failed submission positions (the engine's
    partial-failure contract), and this loader accepts exactly what that
    endpoint emits.  Documents written by :func:`save_batch_results` never
    contain ``null``.
    """
    if not isinstance(data, dict) or data.get("format") != _BATCH_FORMAT:
        found = data.get("format") if isinstance(data, dict) else type(data).__name__
        raise SerializationError(f"not a {_BATCH_FORMAT} document (format={found!r})")
    try:
        return [
            None if record is None else Schedule.from_dict(record)
            for record in data.get("schedules", [])
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"invalid schedule record in batch document: {exc}") from exc


def save_batch_results(schedules: Iterable[Schedule], path: PathLike) -> Path:
    """Write many schedules (one batch run) to ``path`` as a single JSON document."""
    path = Path(path)
    path.write_text(json.dumps(batch_results_to_dict(schedules), indent=2), encoding="utf-8")
    return path


def load_batch_results(path: PathLike) -> List[Schedule]:
    """Load the schedules of a :func:`save_batch_results` document."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read batch file {path}: {exc}") from exc
    try:
        return batch_results_from_dict(data)
    except SerializationError as exc:
        raise SerializationError(f"{exc} [{path}]") from exc


def load_schedule(path: PathLike) -> Schedule:
    """Load a schedule from a JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read schedule file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SerializationError(f"schedule file {path} does not contain a JSON object")
    if data.get("format") != _SCHEDULE_FORMAT:
        raise SerializationError(
            f"not a {_SCHEDULE_FORMAT} document (format={data.get('format')!r})"
        )
    return Schedule.from_dict(data)
