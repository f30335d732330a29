"""Wire format of structural deltas: round-trips and strict key rejection."""

import pytest

from repro.core import StructureOverlay, analyze_incremental, compile_problem
from repro.errors import SerializationError
from repro.generators import ChainsConfig, generate_chains
from repro.io import (
    delta_from_dict,
    delta_to_dict,
    overlay_from_dict,
    structure_delta_from_dict,
    structure_delta_to_dict,
)


@pytest.fixture
def kernel():
    workload = generate_chains(
        ChainsConfig(chains=3, length=4, core_count=3, bank_count=2, seed=8)
    )
    return compile_problem(workload.to_problem(horizon=100_000))


def _all_kinds(kernel):
    names = [kernel.names[index] for index in kernel.topo_order]
    return [
        StructureOverlay.noop(),
        StructureOverlay.add_task("extra", wcet=7, core=1, demand={0: 2, 1: 1}),
        StructureOverlay.remove_task(names[-1]),
        StructureOverlay.add_edge(names[0], names[5], volume=3),
        StructureOverlay.remove_edge(names[0], names[1]),
        StructureOverlay.remap_task(names[2], core=2),
    ]


class TestRoundTrip:
    def test_every_kind_round_trips(self, kernel):
        for delta in _all_kinds(kernel):
            record = structure_delta_to_dict(delta, name=f"probe-{delta.kind}")
            rebuilt, name = structure_delta_from_dict(record)
            assert name == f"probe-{delta.kind}"
            assert rebuilt.kind == delta.kind
            assert structure_delta_to_dict(rebuilt) == structure_delta_to_dict(delta)

    def test_name_is_optional(self, kernel):
        record = structure_delta_to_dict(StructureOverlay.noop())
        assert "name" not in record
        _, name = structure_delta_from_dict(record)
        assert name is None

    def test_delta_from_dict_applies_and_warm_starts(self, kernel):
        parent_schedule = analyze_incremental(kernel.problem)
        names = [kernel.names[index] for index in kernel.topo_order]
        record = structure_delta_to_dict(
            StructureOverlay.remap_task(names[1], core=2), name="what-if"
        )
        probe = delta_from_dict(record, kernel, parent_schedule=parent_schedule)
        assert probe.name == "what-if"
        assert probe.parent is kernel
        assert probe.warm is not None
        assert delta_to_dict(probe) == record


class TestStrictKeyRejection:
    """Satellite hardening: version-skewed peers fail loudly, not silently."""

    def test_unknown_key_rejected_with_key_name_in_message(self):
        record = structure_delta_to_dict(StructureOverlay.noop())
        record["speculative"] = True
        with pytest.raises(SerializationError, match="speculative"):
            structure_delta_from_dict(record)

    def test_key_from_another_kind_rejected(self, kernel):
        names = [kernel.names[index] for index in kernel.topo_order]
        record = structure_delta_to_dict(StructureOverlay.remove_task(names[0]))
        record["core"] = 1  # remap_task vocabulary on a remove_task record
        with pytest.raises(SerializationError, match="core"):
            structure_delta_from_dict(record)

    def test_unknown_kind_rejected(self):
        record = {
            "format": "repro-structure-delta",
            "version": 1,
            "kind": "swap_tasks",
        }
        with pytest.raises(SerializationError, match="swap_tasks"):
            structure_delta_from_dict(record)

    def test_foreign_document_rejected(self):
        with pytest.raises(SerializationError, match="repro-structure-delta"):
            structure_delta_from_dict({"format": "repro-overlay", "version": 1})
        with pytest.raises(SerializationError):
            structure_delta_from_dict("not-a-record")

    def test_overlay_reader_still_rejects_unknown_keys(self, kernel):
        overlay_record = {
            "format": "repro-overlay",
            "version": 1,
            "has_horizon": False,
            "mystery": 1,
        }
        with pytest.raises(SerializationError, match="mystery"):
            overlay_from_dict(overlay_record, kernel)
