"""Unit tests for :class:`repro.model.Mapping`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Mapping, Task, TaskGraph
from repro.errors import MappingError, ReproError, UnknownTaskError
from repro.generators import fixed_ls_workload
from repro.io.json_io import problem_from_dict, problem_to_dict


def simple_graph() -> TaskGraph:
    graph = TaskGraph()
    for name in ("a", "b", "c", "d"):
        graph.add_task(Task(name=name, wcet=10))
    graph.add_dependency("a", "b")
    graph.add_dependency("b", "c")
    graph.add_dependency("a", "d")
    return graph


class TestAssignment:
    def test_assign_and_query(self):
        mapping = Mapping()
        mapping.assign("a", 0)
        mapping.assign("b", 0)
        mapping.assign("c", 1)
        assert mapping.core_of("a") == 0
        assert mapping.core_of("c") == 1
        assert mapping.order_on(0) == ["a", "b"]
        assert mapping.cores() == [0, 1]
        assert mapping.task_count == 3
        assert mapping.core_count == 2

    def test_constructor_from_dict(self):
        mapping = Mapping({0: ["a", "b"], 2: ["c"]})
        assert mapping.order_on(0) == ["a", "b"]
        assert mapping.core_of("c") == 2

    def test_double_assignment_rejected(self):
        mapping = Mapping()
        mapping.assign("a", 0)
        with pytest.raises(MappingError):
            mapping.assign("a", 1)

    def test_negative_core_rejected(self):
        with pytest.raises(MappingError):
            Mapping().assign("a", -1)

    def test_unmapped_query_raises(self):
        with pytest.raises(MappingError):
            Mapping().core_of("ghost")

    def test_unassign(self):
        mapping = Mapping({0: ["a", "b"]})
        mapping.unassign("a")
        assert mapping.order_on(0) == ["b"]
        with pytest.raises(MappingError):
            mapping.unassign("a")

    def test_position_and_neighbours(self):
        mapping = Mapping({0: ["a", "b", "c"]})
        assert mapping.position_on_core("b") == 1
        assert mapping.predecessor_on_core("a") is None
        assert mapping.predecessor_on_core("b") == "a"
        assert mapping.successor_on_core("b") == "c"
        assert mapping.successor_on_core("c") is None

    def test_same_core(self):
        mapping = Mapping({0: ["a", "b"], 1: ["c"]})
        assert mapping.same_core("a", "b")
        assert not mapping.same_core("a", "c")

    def test_insert_position(self):
        mapping = Mapping({0: ["a", "c"]})
        mapping.assign("b", 0, position=1)
        assert mapping.order_on(0) == ["a", "b", "c"]


class TestValidation:
    def test_complete_and_consistent(self):
        graph = simple_graph()
        mapping = Mapping({0: ["a", "b"], 1: ["c", "d"]})
        mapping.validate(graph)  # does not raise

    def test_missing_task_rejected_when_complete_required(self):
        graph = simple_graph()
        mapping = Mapping({0: ["a", "b", "c"]})
        with pytest.raises(MappingError):
            mapping.validate(graph)
        mapping.validate(graph, require_complete=False)

    def test_unknown_task_rejected(self):
        graph = simple_graph()
        mapping = Mapping({0: ["a", "b", "c", "d", "ghost"]})
        with pytest.raises(UnknownTaskError):
            mapping.validate(graph)

    def test_order_contradicting_dependencies_rejected(self):
        graph = simple_graph()
        # b depends on a but is ordered before a on core 0
        mapping = Mapping({0: ["b", "a"], 1: ["c", "d"]})
        with pytest.raises(MappingError):
            mapping.validate(graph)

    def test_contradiction_names_the_offending_pair(self):
        graph = simple_graph()
        mapping = Mapping({0: ["c", "d", "a"], 1: ["b"]})
        with pytest.raises(MappingError, match="core 0: task 'c' is ordered before its dependency 'a'"):
            mapping.validate(graph)

    def test_cross_core_order_deadlock_passes(self):
        """A cycle through two cores' orders is no same-core contradiction."""
        graph = TaskGraph()
        for name in ("a", "b", "c", "d"):
            graph.add_task(Task(name=name, wcet=5))
        graph.add_dependency("a", "d")
        graph.add_dependency("c", "b")
        Mapping({0: ["b", "a"], 1: ["d", "c"]}).validate(graph)

    def test_load(self):
        graph = simple_graph()
        mapping = Mapping({0: ["a", "b"], 1: ["c", "d"]})
        assert mapping.load(graph) == {0: 20, 1: 20}


class TestValueSemantics:
    def test_roundtrip_dict(self):
        mapping = Mapping({0: ["a"], 3: ["b", "c"]})
        assert Mapping.from_dict(mapping.to_dict()) == mapping

    def test_copy_is_independent(self):
        mapping = Mapping({0: ["a"]})
        clone = mapping.copy()
        clone.assign("b", 0)
        assert mapping.task_count == 1
        assert clone.task_count == 2


# ----------------------------------------------------------------------
# the linear order check against the transitive walk it replaced
# ----------------------------------------------------------------------


def walk_validate(mapping: Mapping, graph: TaskGraph, *, require_complete: bool = True) -> None:
    """The O(n·(n+e)) check ``Mapping.validate`` ran before its Kahn pass."""
    for task in mapping.mapped_tasks():
        if task not in graph:
            raise UnknownTaskError(task)
    if require_complete:
        unmapped = [t.name for t in graph if not mapping.is_mapped(t.name)]
        if unmapped:
            raise MappingError("tasks not mapped to any core: " + ", ".join(sorted(unmapped)[:8]))
    for core, order in mapping.items():
        for name in order:
            preds = graph.transitive_predecessors(name)
            conflict = preds & set(order[order.index(name) + 1 :])
            if conflict:
                raise MappingError(
                    f"core {core}: task {name!r} is ordered before its dependency "
                    f"{sorted(conflict)[0]!r}"
                )


def outcome(check, *args, **kwargs):
    try:
        check(*args, **kwargs)
    except ReproError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def mapped_dags(draw):
    """A random DAG with random per-core orders, some tasks left unmapped.

    The draws hold valid orders, same-core contradictions (direct or through
    other cores) and cross-core deadlocks.  For the last, a crossed pair is
    planted: core 0 runs ``b`` before ``a``, core 1 runs ``d`` before ``c``,
    and the edges ``a -> d`` and ``c -> b`` close a cycle through both orders.
    """
    count = draw(st.integers(1, 10))
    # permuted labels, so name order differs from insertion order
    names = [f"t{label}" for label in draw(st.permutations(range(count)))]
    graph = TaskGraph()
    for name in names:
        graph.add_task(Task(name=name, wcet=1))
    forward = [(i, j) for i in range(count) for j in range(i + 1, count)]
    if forward:
        for i, j in draw(st.sets(st.sampled_from(forward))):
            graph.add_dependency(names[i], names[j])
    cores = draw(st.integers(1, 4))
    placement = draw(st.lists(st.integers(0, cores - 1), min_size=count, max_size=count))
    orders = []
    for core in range(cores):
        order = [n for n, c in zip(names, placement) if c == core]
        # index order never contradicts the graph; a shuffle often does
        orders.append(order if draw(st.booleans()) else list(draw(st.permutations(order))))
    if cores > 1 and count >= 4 and draw(st.booleans()):
        picked = draw(st.lists(st.integers(0, count - 1), min_size=4, max_size=4, unique=True))
        a, c, d, b = (names[i] for i in sorted(picked))
        graph.add_dependency(a, d)
        graph.add_dependency(c, b)
        orders = [[n for n in order if n not in (a, b, c, d)] for order in orders]
        orders[0] += [b, a]
        orders[1] += [d, c]
    unmapped = draw(st.sets(st.sampled_from(names), max_size=2))
    return graph, Mapping(
        {core: [n for n in order if n not in unmapped] for core, order in enumerate(orders)}
    )


@settings(max_examples=400, deadline=None)
@given(case=mapped_dags(), require_complete=st.booleans())
def test_kahn_pass_agrees_with_the_transitive_walk(case, require_complete):
    graph, mapping = case
    assert outcome(mapping.validate, graph, require_complete=require_complete) == outcome(
        walk_validate, mapping, graph, require_complete=require_complete
    )


def test_valid_problem_never_walks_transitive_predecessors(monkeypatch):
    """Validating a valid problem costs one linear pass, at build and at decode."""

    def forbidden(self, name):
        raise AssertionError("validation walked transitive_predecessors")

    monkeypatch.setattr(TaskGraph, "transitive_predecessors", forbidden)
    problem = fixed_ls_workload(400, 64, seed=2020).to_problem()
    problem.validate()
    decoded = problem_from_dict(problem_to_dict(problem))
    assert decoded.task_count == 400
