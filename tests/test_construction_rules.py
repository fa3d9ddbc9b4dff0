"""Configs and labeled sets check their rules once, when they are made: a
value that exists is valid, `dataclasses.replace` included, and no field can
be assigned afterwards."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from chainrisk import labels
from chainrisk.errors import InvalidConfig, InvalidInput
from chainrisk.graph import SmeGraph
from chainrisk.labels import TEST, TRAIN, VAL, LabeledSet
from chainrisk.pipeline import GridSpec, TaskData, TrainConfig
from chainrisk.synthgen import GenConfig

SPLIT = np.repeat([TRAIN, VAL, TEST], 2)


def node_set():
    return LabeledSet(examples=np.arange(6), labels=np.array([0, 1] * 3), split=SPLIT)


@pytest.mark.parametrize("made, bad", [
    (TrainConfig(), {"dropout": 1.5}),
    (TrainConfig(), {"patience": 200}),
    (GridSpec(), {"dropouts": ()}),
    (GenConfig(num_smes=100), {"num_smes": 5}),
    (GenConfig(num_smes=100), {"tier_shares": (0.5, 0.5, 0.5)}),
])
def test_replace_with_a_bad_value_raises(made, bad):
    with pytest.raises(InvalidConfig):
        replace(made, **bad)


def test_no_field_can_be_assigned():
    for made, name in ((TrainConfig(), "dropout"), (GridSpec(), "dropouts"),
                       (GenConfig(num_smes=100), "num_smes"), (node_set(), "labels")):
        with pytest.raises(FrozenInstanceError):
            setattr(made, name, getattr(made, name))


@pytest.mark.parametrize("examples, row, message", [
    (np.array([4, 1, 7, 1, 9, 3]), 3, "duplicate node 1"),
    (np.array([[0, 1], [2, 5], [3, 4], [0, 2], [2, 5], [1, 6]]), 4, "duplicate pair (2, 5)"),
    (np.array([[0, 1], [2, 5], [4, 3], [0, 2], [2, 6], [1, 6]]), 2, "pair (4, 3) is not in canonical order u < v"),
])
def test_a_rejected_example_raises_when_the_set_is_made(examples, row, message):
    with pytest.raises(InvalidInput) as err:
        LabeledSet(examples=examples, labels=np.array([0, 1] * 3), split=SPLIT)
    assert (err.value.row, str(err.value)) == (row, message)


def test_build_runs_no_example_check(monkeypatch):
    g = SmeGraph.from_edge_list(6, [(0, 1), (1, 2), (3, 4)], np.eye(6))
    labeled = node_set()

    def called(examples):
        raise AssertionError("TaskData.build checked the examples again")

    monkeypatch.setattr(labels, "first_invalid_example", called)
    data = TaskData.build(g, labeled)
    assert np.array_equal(data.examples, labeled.examples)
