import ast
import importlib
import inspect
import pkgutil
from dataclasses import fields
from pathlib import Path

import pytest

import ttrnn
from ttrnn.config import RunConfig, build_config
from ttrnn.errors import ConfigError, DataError, ShapeError
from ttrnn.features import SynthConfig, assemble
from ttrnn.neural import TrainConfig

BASES = (ConfigError, DataError, ShapeError)


class TestRankSpellings:
    @pytest.mark.parametrize(
        "text, full",
        [
            ("6", (1, 6, 6, 6, 6, 1)),  # scalar
            ("2,3,4,5", (1, 2, 3, 4, 5, 1)),  # interior list
            ("1,2,3,4,5,1", (1, 2, 3, 4, 5, 1)),  # full list
        ],
    )
    def test_spellings(self, text, full):
        assert RunConfig(ranks=text).rank_tuple() == full

    @pytest.mark.parametrize(
        "text", ["2,2", "1,2,2,2,2,2,1", "0", "2,0,2,2", "2,2,2,2,2,1", "two"]
    )
    def test_wrong_length_or_zero_ranks(self, text):
        with pytest.raises(ConfigError):
            build_config(overrides={"ranks": text})


class TestLearningRate:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_rejected(self, value):
        with pytest.raises(ConfigError):
            build_config(overrides={"learning_rate": value})

    def test_finite_positive_accepted(self):
        assert build_config(overrides={"learning_rate": "0.5"}).learning_rate == 0.5


def test_every_exception_has_exactly_one_base():
    """A class outside the taxonomy would reach the user as a traceback."""
    found = []
    for info in pkgutil.iter_modules(ttrnn.__path__):
        if info.name == "__main__":  # runs the command line on import
            continue
        module = importlib.import_module(f"ttrnn.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or not issubclass(cls, BaseException):
                continue
            if cls in BASES:
                continue
            found.append(cls.__qualname__)
            assert sum(issubclass(cls, base) for base in BASES) == 1, cls
    assert len(found) >= 19, found


def test_model_layers_import_no_settings_or_pipeline_module():
    """tensor, ttformat, neural and interpret sit below config, features, cli and backtest.

    Within them tensor and ttformat sit below neural and interpret, and interpret
    below neural, so interpret can use ttformat's chain products without a cycle.
    """
    package = Path(ttrnn.__file__).parent
    pipeline = {"config", "features", "cli", "backtest"}
    above = {"tensor": {"neural", "interpret"}, "ttformat": {"neural", "interpret"},
             "neural": set(), "interpret": {"neural"}}
    for name, model_layers_above in above.items():
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:  # from .x import ...
                    imported.add(node.module.split(".")[0])
                else:  # from . import x, y
                    imported.update(alias.name for alias in node.names)
        assert not imported & (pipeline | model_layers_above), (name, imported)


def test_comma_lists_and_header_blocks_are_read_only_in_ttformat():
    """cli, config and neural call neither header_fields nor .split(",")."""
    package = Path(ttrnn.__file__).parent
    for name in ("cli", "config", "neural"):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            assert called != "header_fields", (name, node.lineno)
            comma = [a for a in node.args if isinstance(a, ast.Constant) and a.value == ","]
            assert not (called == "split" and comma), (name, node.lineno)


def test_readme_config_key_table_matches_run_config():
    """README's "Config keys" table lists RunConfig's fields, in order, with their defaults."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config keys\n\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]  # after header and rule
    documented = {key.strip().strip("`"): default.strip() for key, default in rows}
    defaults = {f.name: f.default for f in fields(RunConfig)}
    assert list(documented) == list(defaults)
    for key, default in defaults.items():
        text = documented[key]
        assert type(default)("" if text == "*(empty)*" else text.strip("`")) == default, key


def test_run_config_defaults_agree_with_the_layers_it_configures():
    """A default changed in one table and not the other would make the CLI and the library differ."""
    run = RunConfig()
    assert run.train_config() == TrainConfig()  # ranks through rank_tuple()
    synth = SynthConfig()
    assert (run.synth_days, run.signal_strength, run.target) == (
        synth.days, synth.signal_strength, synth.target)
    assert run.split == inspect.signature(assemble).parameters["split"].default
