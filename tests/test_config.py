"""Fuzzed configs: both parsers raise only InvalidConfig, and the CLI turns
every rejection into exit 2 that names the config file, without a
traceback. Parse-level only: no config here reaches generation or training."""

import contextlib
import io
import json
import os
import tempfile
from dataclasses import fields

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainrisk.cli import main
from chainrisk.errors import InvalidConfig
from chainrisk.pipeline import TrainConfig
from chainrisk.synthgen import GenConfig, gen_config_from_dict

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def configs(keys):
    """Random JSON values, mostly objects over the config's own keys and
    unknown keys shorter than "grid", which `train` reads apart."""
    numbers = st.integers(-5, 400) | st.floats(-2.0, 2.0) | st.lists(st.floats(0.0, 1.0), max_size=6)
    objects = st.dictionaries(st.sampled_from(keys) | st.text(max_size=3), numbers | json_values, max_size=6)
    return objects | objects | json_values


TRAIN_KEYS = [f.name for f in fields(TrainConfig)]
GEN_KEYS = [f.name for f in fields(GenConfig)] + ["preset"]


def parses_or_rejects(parse, raw):
    """True when `parse` accepts `raw`, False when it raises InvalidConfig;
    any other exception fails the test."""
    try:
        parse(raw)
    except InvalidConfig:
        return False
    return True


def cli_error(raw, argv):
    """main(argv + [--config <raw as a file>]) must exit 2 without a traceback
    and name the config file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv(tmp) + ["--config", path])
    assert code == 2 and "Traceback" not in err.getvalue() and path in err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(configs(TRAIN_KEYS))
def test_train_config_parser_raises_only_invalid_config(raw):
    parses_or_rejects(TrainConfig.from_dict, raw)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(configs(GEN_KEYS))
def test_generator_config_parser_raises_only_invalid_config(raw):
    parses_or_rejects(gen_config_from_dict, raw)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(configs(TRAIN_KEYS))
def test_train_cli_rejects_without_traceback(raw):
    assume(not parses_or_rejects(TrainConfig.from_dict, raw))
    cli_error(raw, lambda tmp: ["train", "dp", "--no-enrich", "--data", os.path.join(tmp, "data"),
                                "--out", os.path.join(tmp, "out")])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(configs(GEN_KEYS))
def test_generate_cli_rejects_without_traceback(raw):
    assume(not parses_or_rejects(gen_config_from_dict, raw))  # an accepted config would generate
    cli_error(raw, lambda tmp: ["generate", "--out", os.path.join(tmp, "out")])
