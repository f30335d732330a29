"""Job specification for the batch-analysis engine.

An :class:`AnalysisJob` is the unit of work the engine schedules: an
:class:`~repro.core.AnalysisProblem` plus the name of the algorithm to run on
it (resolved through :func:`repro.core.analyzer.analyze`, i.e. the plug-in
registry — custom algorithms registered with
:func:`~repro.core.analyzer.register_algorithm` work transparently).

Content digests
---------------
The engine keys its result cache by a *canonical content digest* of the
problem, split into two halves:

* the **structure digest** — a SHA-256 over a normalized JSON rendering of
  everything a :class:`~repro.core.kernel.ParamOverlay` cannot change: task
  names/minimal releases/deadlines/metadata (sorted by name), dependencies
  (``[producer, consumer, volume]`` triples, sorted), the mapping, the
  platform, and the arbiter signature;
* the **overlay digest** — a SHA-256 over the parameter vectors an overlay
  *can* change: per-task WCET and memory demand (in sorted-name order) plus
  the horizon.

:func:`problem_digest` combines the two.  Two problems with identical content
— however they were constructed (a plain :class:`AnalysisProblem` or an
:class:`~repro.core.kernel.OverlayProblem` delta against a compiled kernel),
in whatever process — produce the same digest pair, which is what makes
on-disk cache entries reusable across runs and machines, *and* lets the cache
and the intra-batch dedup stratify hundreds of probe variants of one problem
by their shared structure half.

Jobs travel to worker processes as payloads that are JSON-compatible except
for the arbiter, which rides along as the live object so parameterized
policies survive the process boundary intact (the JSON problem format only
records the arbiter's registry name), and the algorithm registration, which
rides along as the registered function whenever it is picklable.  Re-registering
that function in the worker (see :meth:`AnalysisJob.from_payload`) is what
makes runtime-registered plug-in algorithms work under the ``spawn``
multiprocessing start method, where workers do not inherit the parent's
registry: only import-time registrations would otherwise be visible.
Probe jobs ship their *parent problem once per chunk* (the executor factors
it into a side table) plus a small per-job delta record; workers memoize the
compiled parent per full content digest and task order, so a chunk of N
probes of one parent compiles that parent once, not N times.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading
import weakref
from collections import OrderedDict
from operator import attrgetter
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..core import AnalysisProblem, CompiledProblem, OverlayProblem, Schedule
from ..core.analyzer import analyze, get_algorithm, register_algorithm
from ..errors import AnalysisError, EngineError
from ..model import mapping_to_dict, task_to_dict

__all__ = [
    "SCHEMA_VERSION",
    "canonical_problem_dict",
    "problem_digest",
    "split_problem_digests",
    "AnalysisJob",
]

#: bump when the digest recipe or the cached schedule format changes —
#: old on-disk cache entries are then ignored rather than misread.
#: v2: the digest split into structure + overlay halves.
#: v3: dependencies render as sorted ``[producer, consumer, volume]`` triples.
SCHEMA_VERSION = 3


def _normalize(value: Any, depth: int = 0) -> Any:
    """Recursively render ``value`` as deterministic JSON-compatible data.

    Objects are rendered as their qualified type name plus their normalized
    ``__dict__`` (never ``repr``, whose default includes the memory address
    and would give a different digest in every process).  ``depth`` bounds
    pathological nesting/cycles.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if depth >= 8:
        return f"<depth-limit:{type(value).__name__}>"
    if isinstance(value, dict):
        return {
            str(key): _normalize(item, depth + 1)
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_normalize(item, depth + 1) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_normalize(item, depth + 1) for item in value), key=repr)
    state = getattr(value, "__dict__", None)
    if isinstance(state, dict):
        return {
            "__type__": f"{type(value).__module__}.{type(value).__qualname__}",
            "state": _normalize(state, depth + 1),
        }
    return f"{type(value).__module__}.{type(value).__qualname__}"


def _arbiter_signature(arbiter: Any) -> Dict[str, Any]:
    """Deterministic rendering of an arbiter *including its parameters*.

    The registry-facing arbiter ``name`` alone is not enough: two
    ``weighted-round-robin`` arbiters with different weights produce different
    interference bounds and must not share cache entries.  Arbiters keep their
    configuration in plain instance attributes, so the signature normalizes
    those recursively.
    """
    state: Dict[str, Any] = {}
    for klass in reversed(type(arbiter).__mro__):  # __slots__ attributes count too
        slots = getattr(klass, "__slots__", ()) or ()
        for slot in ([slots] if isinstance(slots, str) else slots):
            if hasattr(arbiter, slot):
                state[slot] = getattr(arbiter, slot)
    instance_dict = getattr(arbiter, "__dict__", None)
    if isinstance(instance_dict, dict):
        state.update(instance_dict)
    return {
        "type": type(arbiter).__name__,
        "name": arbiter.name,
        "state": _normalize(state),
    }


def canonical_problem_dict(problem: AnalysisProblem) -> Dict[str, Any]:
    """Normalized, order-independent dict rendering of a problem.

    Unlike :func:`repro.io.json_io.problem_to_dict` (which preserves
    construction order for human readability) this sorts every collection so
    the rendering — and therefore the digest — does not depend on the order in
    which tasks or dependencies were added.  Tasks are records sorted by name;
    each dependency is one ``[producer, consumer, volume]`` triple, and the
    triples are sorted (``(producer, consumer)`` is unique in a graph, so the
    volume never decides the order).  The graph name is left out: names are
    labels, not content (hits are relabeled).
    """
    graph = {
        "tasks": [task_to_dict(task) for task in sorted(problem.graph, key=attrgetter("name"))],
        "dependencies": sorted(
            (dep.producer, dep.consumer, dep.volume) for dep in problem.graph.dependencies()
        ),
    }
    platform = problem.platform.to_dict()
    platform.pop("name", None)  # labels again: only structure and latencies count
    platform.pop("description", None)
    for record in platform.get("cores", []):
        record.pop("name", None)
    for record in platform.get("banks", []):
        record.pop("name", None)
    return {
        "graph": graph,
        "mapping": mapping_to_dict(problem.mapping),
        "platform": platform,
        "arbiter": _arbiter_signature(problem.arbiter),
        "horizon": problem.horizon,
    }


def _digest_payload(payload_obj: Any, context: str) -> str:
    """SHA-256 of the canonical JSON rendering of ``payload_obj``."""
    try:
        payload = json.dumps(payload_obj, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise EngineError(f"problem {context!r} cannot be digested: {exc}") from exc
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _split_canonical(problem: AnalysisProblem) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """(structure, parameters) halves of the canonical problem rendering.

    The parameters half carries exactly what a
    :class:`~repro.core.kernel.ParamOverlay` can change — per-task WCET and
    demand vectors (in the canonical sorted-by-name task order) plus the
    horizon; the structure half is everything else.
    """
    canonical = canonical_problem_dict(problem)
    tasks = canonical["graph"]["tasks"]
    params = {
        "wcet": [record.pop("wcet") for record in tasks],
        "accesses": [record.pop("accesses") for record in tasks],
        "horizon": canonical.pop("horizon"),
    }
    return canonical, params


def _kernel_digests(kernel: CompiledProblem) -> Tuple[str, str, str]:
    """(structure, parameters, parent key) digests of a kernel's own problem.

    Both halves come from one canonical rendering; the parent key (see
    :func:`_kernel_digest`) digests them together with the kernel's task
    order.  All three are cached on the kernel, so probes of it never
    re-walk the graph.
    """
    if kernel._digests is None:
        structure, params = _split_canonical(kernel.problem)
        name = kernel.problem.name
        halves = (_digest_payload(structure, name), _digest_payload(params, name))
        kernel._digests = (*halves, _digest_payload([*halves, kernel.names], name))
    return kernel._digests


def _kernel_digest(kernel: CompiledProblem) -> str:
    """Full content digest of a kernel's own problem plus its task order.

    The key of everything a worker shares between probes of one parent: the
    kernel memo, the chunk structure table and the factored warm-start
    schedules.  The structure half alone is not enough — two parents with
    one different WCET share it, and their probes must not share a kernel.
    Nor is the content digest: it ignores task insertion order, while a
    probe's delta record carries its vectors in its own parent's task order.
    """
    return _kernel_digests(kernel)[2]


def _overlay_params_digest(probe: OverlayProblem) -> str:
    """Overlay digest of a probe, byte-identical to the materialized problem's.

    The parameter vectors are rendered exactly like
    :func:`_split_canonical` renders the materialized problem (sorted-name
    task order, ``{str(bank): count}`` demand dicts), so
    ``split_problem_digests(probe) == split_problem_digests(probe.materialize())``
    holds by construction — the cache-correctness property the test suite
    asserts.
    """
    kernel = probe.kernel
    wcet = probe.wcet_vector()
    demand = probe.demand_vector()
    params = {
        "wcet": [wcet[i] for i in kernel.sorted_order],
        "accesses": [
            {str(bank): count for bank, count in demand[i].items()}
            for i in kernel.sorted_order
        ],
        "horizon": probe.horizon,
    }
    return _digest_payload(params, probe.name)


def _combine_digests(structure: str, overlay: str) -> str:
    """Fold the two digest halves into the single content digest."""
    return hashlib.sha256(f"{structure}:{overlay}".encode("utf-8")).hexdigest()


def split_problem_digests(
    problem: Union[AnalysisProblem, OverlayProblem]
) -> Tuple[str, str]:
    """``(structure digest, overlay digest)`` of a problem or overlay probe.

    For an :class:`~repro.core.kernel.OverlayProblem` the structure half comes
    from the (cached) kernel digest and the overlay half from the resolved
    parameter vectors — no materialization, no graph walk.  For a plain
    problem both halves are derived from the canonical rendering.  The two
    paths agree: an overlay probe and its materialized problem digest
    identically and therefore share cache entries.
    """
    if isinstance(problem, OverlayProblem):
        return _kernel_digests(problem.kernel)[0], _overlay_params_digest(problem)
    structure, params = _split_canonical(problem)
    return (
        _digest_payload(structure, problem.name),
        _digest_payload(params, problem.name),
    )


#: worker-side memo of compiled parent kernels keyed by full content digest
#: and task order: a chunk of probes of one parent compiles that parent once,
#: not per job
_KERNEL_MEMO: "OrderedDict[str, CompiledProblem]" = OrderedDict()
_KERNEL_MEMO_LIMIT = 32
_KERNEL_MEMO_LOCK = threading.Lock()


def _kernel_memo_get(digest: str) -> Optional[CompiledProblem]:
    """Memoized kernel for ``digest``, or None."""
    with _KERNEL_MEMO_LOCK:
        kernel = _KERNEL_MEMO.get(digest)
        if kernel is not None:
            _KERNEL_MEMO.move_to_end(digest)
        return kernel


def _kernel_memo_put(digest: str, kernel: CompiledProblem) -> CompiledProblem:
    """Insert into the bounded LRU memo; returns the kernel now memoized.

    Called parent-side when a probe payload is built: ``fork`` workers
    started after that inherit the memo, so the parent problem is never
    compiled (or even re-parsed) a second time.  ``spawn`` workers, which
    share nothing, compile their own copy once per parent.  A kernel
    already memoized under ``digest`` wins (another thread may have won the
    compile race).
    """
    with _KERNEL_MEMO_LOCK:
        kernel = _KERNEL_MEMO.setdefault(digest, kernel)
        _KERNEL_MEMO.move_to_end(digest)
        while len(_KERNEL_MEMO) > _KERNEL_MEMO_LIMIT:
            _KERNEL_MEMO.popitem(last=False)
        return kernel


#: trial-pickle verdicts per live function object (a batch re-checks each
#: registered function once, not once per job; entries die with the function)
_PORTABLE_MEMO: "weakref.WeakKeyDictionary[Any, bool]" = weakref.WeakKeyDictionary()


def _portable_algorithm(name: str) -> Optional[Any]:
    """The registered function for ``name`` if it can cross a spawn boundary.

    Returns ``None`` for unknown names (the worker will raise the proper
    unknown-algorithm error) and for functions pickle rejects (closures such
    as the ``cached-*`` wrappers, lambdas): shipping those would fail the
    whole chunk at submission, whereas leaving them out preserves the old
    registry-based behaviour.  Functions defined in ``__main__`` are not
    shipped either: ``pickle.dumps`` succeeds on them by reference, but a
    ``spawn`` worker re-imports the main script with its ``if __name__ ==
    "__main__"`` guard false, so guard-defined functions would not resolve and
    the failed unpickle would kill the worker (``BrokenProcessPool``) instead
    of producing a clean per-job error.
    """
    try:
        function = get_algorithm(name)
    except AnalysisError:
        return None
    if getattr(function, "__module__", "__main__") == "__main__":
        return None
    try:
        portable = _PORTABLE_MEMO.get(function)
    except TypeError:  # not weak-referenceable (e.g. a partial): check every time
        portable = None
    if portable is None:
        try:
            pickle.dumps(function)
            portable = True
        except Exception:  # noqa: BLE001 - any pickling failure means "do not ship"
            portable = False
        try:
            _PORTABLE_MEMO[function] = portable
        except TypeError:
            pass
    return function if portable else None


def problem_digest(problem: Union[AnalysisProblem, OverlayProblem]) -> str:
    """SHA-256 hex digest of the canonical problem content.

    The combination of the two :func:`split_problem_digests` halves; identical
    for an overlay probe and for the equivalent materialized problem.
    """
    return _combine_digests(*split_problem_digests(problem))


def _warm_schedule_from_payload(
    warm_data: Any, structures: Optional[Mapping[str, Any]]
) -> Optional[Schedule]:
    """The parent schedule a probe job warm-starts from, if it has one.

    The executor may have factored the (chunk-wide) parent schedule out of
    the payload into the structure table under a ``warm:`` key; a string is
    that reference.  A missing or unresolvable schedule degrades to ``None``
    — the job then runs cold, which is always correct.
    """
    if isinstance(warm_data, str):
        warm_data = structures.get(warm_data) if structures is not None else None
    if not isinstance(warm_data, Mapping):
        return None
    return Schedule.from_dict(warm_data)


def _rebuild_problem(problem_data: Mapping[str, Any], arbiter: Any) -> AnalysisProblem:
    """Worker-side problem reconstruction with the live-arbiter override.

    The live object supersedes the recorded name — and custom arbiters may
    not be registered in the worker at all, so the by-name lookup must not
    even be attempted when one rides along.
    """
    from ..io.json_io import problem_from_dict  # local import: io depends on core

    if arbiter is not None:
        problem_data = {**problem_data, "arbiter": "round-robin"}
    problem = problem_from_dict(problem_data)
    if arbiter is not None:
        problem = problem.with_arbiter(arbiter)
    return problem


@dataclass
class AnalysisJob:
    """One unit of batch work: run ``algorithm`` on ``problem``.

    ``problem`` may be a plain :class:`~repro.core.AnalysisProblem` or an
    :class:`~repro.core.kernel.OverlayProblem` (compiled kernel + parameter
    delta); the two digest identically for identical content, so either form
    hits the same cache entries.  ``index`` is the job's position in the
    submitted batch; the engine uses it to restore deterministic result
    ordering regardless of which worker finishes first.
    """

    problem: Union[AnalysisProblem, OverlayProblem]
    algorithm: str = "incremental"
    index: int = 0
    _split: Optional[Tuple[str, str]] = field(default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.problem.name

    @property
    def split_digests(self) -> Tuple[str, str]:
        """(structure, overlay) digest pair (computed once, then memoized)."""
        if self._split is None:
            self._split = split_problem_digests(self.problem)
        return self._split

    @property
    def structure_digest(self) -> str:
        """Digest of the overlay-invariant problem structure."""
        return self.split_digests[0]

    @property
    def overlay_digest(self) -> str:
        """Digest of the overlay-controlled parameters (wcet, demand, horizon)."""
        return self.split_digests[1]

    @property
    def digest(self) -> str:
        """Combined content digest of the problem."""
        return _combine_digests(*self.split_digests)

    @property
    def cache_key(self) -> str:
        """Cache key: problem content + algorithm + schema version."""
        return f"{self.digest}:{self.algorithm.strip().lower()}:v{SCHEMA_VERSION}"

    def run(self) -> Schedule:
        """Execute the job in-process through the algorithm registry."""
        return analyze(self.problem, self.algorithm)

    # ------------------------------------------------------------------
    # process-boundary transport
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """Payload for shipping the job to a worker process.

        Everything but the arbiter travels as JSON-compatible data.  The
        arbiter rides along as the live object (the pool pickles payloads
        anyway): the JSON problem format records only the arbiter *name*, and
        rebuilding by name would silently drop custom parameterizations —
        parallel results must match serial ones exactly.

        The registered algorithm *function* also rides along when it survives
        pickling (module-level plug-ins pickle as cheap by-reference stubs).
        Workers re-register it before running, so runtime-registered
        algorithms work under the ``spawn`` start method, not just ``fork``.
        Closures and lambdas are silently left out — those still rely on the
        worker's own registry (inherited under ``fork``, import-time under
        ``spawn``), which keeps the engine's built-in ``cached-*`` wrappers
        working unchanged.

        A probe job (an :class:`~repro.core.kernel.OverlayProblem`, whatever
        its delta) ships its *parent* problem under ``base_problem``, the
        parent's content-and-order key under ``base_digest``, its delta record
        under ``delta`` and — when it carries a warm start — the parent
        schedule under ``warm_start``.  The executor factors the parent and
        its schedule out into a per-chunk structure table keyed by
        ``base_digest`` (see :func:`repro.engine.executor.run_jobs_on`), so
        N probes of one parent pay for one parent payload, and the worker
        memoizes the compiled parent under the same key.
        """
        from ..io.json_io import delta_to_dict, problem_to_dict

        payload: Dict[str, Any] = {
            "index": self.index,
            "algorithm": self.algorithm,
            "split_digests": list(self.split_digests),
            "algorithm_function": _portable_algorithm(self.algorithm),
        }
        problem = self.problem
        if isinstance(problem, OverlayProblem):
            parent = problem.parent
            base_digest = _kernel_digest(parent)
            payload["base_problem"] = problem_to_dict(parent.problem)
            payload["base_digest"] = base_digest
            payload["delta"] = delta_to_dict(problem)
            payload["arbiter"] = parent.problem.arbiter
            if problem.warm is not None:
                payload["warm_start"] = problem.warm.schedule.to_dict()
            # fork children reuse the live parent kernel instead of
            # re-parsing and recompiling it
            _kernel_memo_put(base_digest, parent)
        else:
            payload["problem"] = problem_to_dict(problem)
            payload["arbiter"] = problem.arbiter
        return payload

    @classmethod
    def from_payload(
        cls,
        payload: Mapping[str, Any],
        structures: Optional[Mapping[str, Any]] = None,
    ) -> "AnalysisJob":
        """Rebuild a job from :meth:`to_payload` output (in a worker process).

        ``structures`` is the chunk's structure table: parent-problem
        documents keyed by ``base_digest`` (and factored parent schedules
        under ``warm:``-prefixed keys), referenced by probe payloads whose
        own ``base_problem`` entry was factored out by the executor.
        """
        from ..io.json_io import delta_from_dict

        try:
            function = payload.get("algorithm_function")
            if function is not None:
                # make the parent's runtime registration visible in this
                # process (a no-op re-registration everywhere else)
                register_algorithm(str(payload["algorithm"]), function, overwrite=True)
            split = payload.get("split_digests")
            split_pair = (
                (str(split[0]), str(split[1]))
                if isinstance(split, (list, tuple)) and len(split) == 2
                else None
            )
            delta_data = payload.get("delta")
            if delta_data is not None:
                # memo first: a chunk of probes of one parent parses and
                # compiles the parent once, not once per job
                base_digest = str(payload["base_digest"])
                parent = _kernel_memo_get(base_digest)
                if parent is None:
                    problem_data = payload.get("base_problem")
                    if problem_data is None and structures is not None:
                        problem_data = structures.get(base_digest)
                    if problem_data is None:
                        raise EngineError(
                            "probe job payload carries no base problem and no "
                            "matching chunk structure entry"
                        )
                    base = _rebuild_problem(problem_data, payload.get("arbiter"))
                    parent = _kernel_memo_put(base_digest, CompiledProblem.compile(base))
                problem: Union[AnalysisProblem, OverlayProblem] = delta_from_dict(
                    delta_data,
                    parent,
                    parent_schedule=_warm_schedule_from_payload(
                        payload.get("warm_start"), structures
                    ),
                )
            else:
                problem = _rebuild_problem(payload["problem"], payload.get("arbiter"))
            return cls(
                problem=problem,
                algorithm=str(payload["algorithm"]),
                index=int(payload["index"]),
                _split=split_pair,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise EngineError(f"invalid job payload: {exc}") from exc
