"""JSON-friendly (de)serialization of task graphs and mappings.

The on-disk format is a plain dictionary so it can be embedded in larger
documents (see :mod:`repro.io.json_io` which serializes whole analysis
problems and schedules).

Format of a task graph::

    {
      "name": "demo",
      "tasks": [
        {"name": "a", "wcet": 10, "accesses": {"0": 5}, "min_release": 0,
         "deadline": null, "metadata": {}},
        ...
      ],
      "dependencies": [
        {"producer": "a", "consumer": "b", "volume": 2},
        ...
      ]
    }

Format of a mapping::

    {"0": ["a", "b"], "1": ["c"]}
"""

from __future__ import annotations

from sys import intern
from typing import Any, Dict, Mapping as TMapping

from ..errors import SerializationError
from .mapping import Mapping
from .task import MemoryDemand, Task
from .taskgraph import TaskGraph

__all__ = [
    "task_to_dict",
    "task_from_dict",
    "graph_to_dict",
    "graph_from_dict",
    "mapping_to_dict",
    "mapping_from_dict",
]


def task_to_dict(task: Task) -> Dict[str, Any]:
    """Serialize a single task."""
    return {
        "name": task.name,
        "wcet": task.wcet,
        "accesses": {str(bank): count for bank, count in task.demand.items()},
        "min_release": task.min_release,
        "deadline": task.deadline,
        "metadata": dict(task.metadata),
    }


def task_from_dict(data: TMapping[str, Any]) -> Task:
    """Deserialize a single task."""
    try:
        accesses = {int(bank): int(count) for bank, count in dict(data.get("accesses", {})).items()}
        return Task(
            # interned, like edge endpoints and mapping entries: equal names are
            # one object, so name-keyed lookups in validation hit on identity
            name=intern(str(data["name"])),
            wcet=int(data["wcet"]),
            demand=MemoryDemand(accesses),
            min_release=int(data.get("min_release", 0)),
            deadline=None if data.get("deadline") is None else int(data["deadline"]),
            metadata=dict(data.get("metadata", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"invalid task record: {exc}") from exc


def graph_to_dict(graph: TaskGraph) -> Dict[str, Any]:
    """Serialize a task graph."""
    return {
        "name": graph.name,
        "tasks": [task_to_dict(task) for task in graph.tasks()],
        "dependencies": [
            {"producer": dep.producer, "consumer": dep.consumer, "volume": dep.volume}
            for dep in graph.dependencies()
        ],
    }


def graph_from_dict(data: TMapping[str, Any]) -> TaskGraph:
    """Deserialize a task graph (validated)."""
    graph = unvalidated_graph_from_dict(data)
    graph.validate()
    return graph


def unvalidated_graph_from_dict(data: TMapping[str, Any]) -> TaskGraph:
    """Deserialize a task graph for a decoder that validates it later, with its problem."""
    try:
        graph = TaskGraph(name=str(data.get("name", "taskgraph")))
        for record in data.get("tasks", []):
            graph.add_task(task_from_dict(record))
        for record in data.get("dependencies", []):
            graph.add_dependency(
                intern(str(record["producer"])),
                intern(str(record["consumer"])),
                int(record.get("volume", 0)),
            )
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"invalid task graph record: {exc}") from exc
    return graph


def mapping_to_dict(mapping: Mapping) -> Dict[str, Any]:
    """Serialize a mapping (core ids become string keys for JSON)."""
    return {str(core): list(order) for core, order in mapping.items()}


def mapping_from_dict(data: TMapping[Any, Any]) -> Mapping:
    """Deserialize a mapping."""
    try:
        return Mapping({int(core): [intern(str(name)) for name in order] for core, order in data.items()})
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"invalid mapping record: {exc}") from exc
