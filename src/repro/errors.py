"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class at API boundaries.  More specific subclasses are
used throughout the code base so that tests (and users) can distinguish between
modelling mistakes (e.g. a cyclic task graph) and analysis outcomes (e.g. an
unschedulable task set).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all exceptions raised by the library."""


class ModelError(ReproError):
    """A model object (task, graph, mapping, platform) is ill-formed."""


class GraphError(ModelError):
    """The task graph violates a structural constraint (duplicate task, cycle...)."""


class CyclicDependencyError(GraphError):
    """The task graph contains a dependency cycle and therefore is not a DAG."""

    def __init__(self, cycle: list[str] | None = None) -> None:
        self.cycle = list(cycle) if cycle else []
        if self.cycle:
            message = "task graph contains a cycle: " + " -> ".join(self.cycle)
        else:
            message = "task graph contains a cycle"
        super().__init__(message)


class UnknownTaskError(GraphError):
    """A task name was referenced but never declared in the graph."""

    def __init__(self, name: str) -> None:
        self.task_name = name
        super().__init__(f"unknown task: {name!r}")


class MappingError(ModelError):
    """The task-to-core mapping or per-core ordering is invalid."""


class PlatformError(ModelError):
    """The platform description is invalid (unknown core, bank, ...)."""


class ArbiterError(ModelError):
    """An arbiter is mis-configured or received inconsistent demands."""


class AnalysisError(ReproError):
    """The response-time analysis could not be carried out."""


class UnschedulableError(AnalysisError):
    """The task set was proven unschedulable within the given horizon.

    The analysis functions normally *return* a schedule flagged as
    unschedulable rather than raising; this exception is only used by the
    convenience wrappers that are documented to raise.
    """

    def __init__(self, message: str = "task set is unschedulable", *, schedule=None) -> None:
        super().__init__(message)
        self.schedule = schedule


class ConvergenceError(AnalysisError):
    """A fixed-point iteration failed to converge within the iteration budget."""


class DeadlockError(AnalysisError):
    """The incremental analysis stalled: tasks remain but none can ever start.

    This happens when the per-core execution order contradicts the dependency
    order (e.g. core 0 must run A before B, but A depends on a task that runs
    after B on core 1).
    """

    def __init__(self, remaining: list[str]) -> None:
        self.remaining = list(remaining)
        super().__init__(
            "analysis deadlocked with %d unscheduled task(s): %s"
            % (len(self.remaining), ", ".join(sorted(self.remaining)[:8]))
        )


class ValidationError(ReproError):
    """A computed schedule violates one of its invariants."""


class SerializationError(ReproError):
    """A problem or schedule could not be serialized or deserialized."""


class EngineError(ReproError):
    """The batch-analysis engine was misconfigured or a batch run failed."""


class BatchExecutionError(EngineError):
    """One or more jobs of a batch failed; completed results are preserved.

    ``failures`` maps submission indices to ``"<job name>: <error>"``
    descriptions (indices, because job names need not be unique); ``results``
    holds the schedules of the jobs that *did* complete (``None`` at failed
    positions, in submission order), so callers can keep — and cache —
    finished work instead of discarding the whole batch.  ``results_cached``
    is True when the completed schedules were persisted to the result cache
    (a retry then only recomputes the failed jobs).
    """

    def __init__(self, message: str, *, failures=None, results=None, results_cached=False) -> None:
        super().__init__(message)
        self.failures = dict(failures or {})
        self.results = list(results or [])
        self.results_cached = bool(results_cached)


class CacheError(EngineError):
    """The result cache is corrupt or its directory cannot be used."""


class ServiceError(ReproError):
    """The analysis service (runtime, job queue or API server) was misused.

    Raised e.g. when submitting work to a closed :class:`repro.service`
    runtime/queue, or when a :class:`~repro.service.ServiceClient` cannot
    reach the server or receives an error response from it.

    ``status`` carries the HTTP status code when the error originated from an
    HTTP error response, and is ``None`` for transport/protocol failures (the
    server unreachable, invalid JSON, ...): a 4xx means the request itself is
    bad, while no status or a 5xx points at the server.
    """

    def __init__(self, message: str, *, status: int | None = None) -> None:
        super().__init__(message)
        self.status = None if status is None else int(status)


class QueueFullError(ServiceError):
    """The job queue's backpressure bound was hit and the submission gave up."""


class SimulationError(ReproError):
    """The execution simulator detected an inconsistent configuration."""


class GenerationError(ReproError):
    """A workload generator received invalid parameters."""


class DataflowError(ReproError):
    """A dataflow (SDF) graph or DSL program is invalid."""


class WcetError(ReproError):
    """The WCET estimation substrate received an invalid program model."""
