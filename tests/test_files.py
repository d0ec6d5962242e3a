"""Run files: artifacts written whole or not at all, and CSVs read from outside."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ttrnn
from ttrnn import neural
from ttrnn.cli import main
from ttrnn.errors import DataError
from ttrnn.features import SynthConfig, load_panel, read_manifest, synth_panel, write_panel
from ttrnn.files import write_csv
from ttrnn.interpret import core_change, read_core_change_csv, write_core_change_csv


def small_model(seed):
    return neural.init_model((2, 3), (2, 2), (1, 2, 1), np.random.default_rng(seed))


class TestAtomicWrites:
    def test_failed_checkpoint_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "checkpoint.txt"
        neural.save_model(small_model(1), ckpt)
        old = ckpt.read_bytes()
        model = small_model(2)
        encode = neural._b64_values

        def fail_on_feedback(values):
            if values is model.feedback:
                raise RuntimeError("disk full")
            return encode(values)

        monkeypatch.setattr(neural, "_b64_values", fail_on_feedback)
        with pytest.raises(RuntimeError, match="disk full"):
            neural.save_model(model, ckpt)
        assert ckpt.read_bytes() == old
        assert list(tmp_path.iterdir()) == [ckpt]  # no .part file is left

    def test_failed_csv_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "track.csv"
        write_csv(path, ["day", "value"], [[1, 0.5], [2, 0.25]])
        old = path.read_bytes()

        def rows():
            yield [1, 0.125]
            raise RuntimeError("halfway")

        with pytest.raises(RuntimeError, match="halfway"):
            write_csv(path, ["day", "value"], rows())
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_artifact_has_the_default_file_mode(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        write_csv(tmp_path / "track.csv", ["day"], [[1]])
        assert (tmp_path / "track.csv").stat().st_mode == plain.stat().st_mode


def test_oversized_csv_field_is_data_error(tmp_path, capsys):
    log = tmp_path / "core_change.csv"
    log.write_text("core,epoch,normalized_change\n1,2,0.5\n" + "x" * 200_000 + "\n")
    assert main(["report-cores", "--log", str(log)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {log}: field larger than field limit"), err
    assert err.count("\n") == 1, err


# --- a fuzz property over the CSVs a run reads --------------------------------

CELLS = ["nan", "x", "1e999", ""]


def damaged(data: bytes, kind, at, column, cell) -> bytes:
    """``data`` with one line dropped or doubled, cut short, a 0xff byte put in, or a cell swapped."""
    if kind == "cut":
        return data[: at % (len(data) + 1)]
    if kind == "xff":
        k = at % (len(data) + 1)
        return data[:k] + b"\xff" + data[k:]
    lines = data.split(b"\n")
    i = at % len(lines)
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        cells = lines[i].split(b",")
        cells[column % len(cells)] = cell.encode()
        lines[i] = b",".join(cells)
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    """A 50-day panel's CSVs and a core_change.csv, with the reader of each."""
    root = tmp_path_factory.mktemp("run_files")
    manifest = Path(write_panel(synth_panel(SynthConfig(days=50), 3), root / "data"))
    rng = np.random.default_rng(4)
    shapes = [(1, 2, 2, 2), (2, 3, 2, 1)]
    log = core_change([[rng.normal(size=s) for s in shapes] for _ in range(4)])
    write_core_change_csv(log, root / "core_change.csv")
    return {
        "core_change.csv": (root / "core_change.csv", read_core_change_csv),
        "manifest.csv": (manifest, read_manifest),
        "EQ3.csv": (manifest.parent / "EQ3.csv", lambda _: load_panel(manifest)),
    }


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    name=st.sampled_from(["core_change.csv", "manifest.csv", "EQ3.csv"]),
    kind=st.sampled_from(["drop", "duplicate", "cut", "xff", "cell"]),
    at=st.integers(0, 10**6),
    column=st.integers(0, 5),
    cell=st.sampled_from(CELLS),
)
@example(name="core_change.csv", kind="xff", at=40, column=0, cell="")
def test_damaged_csv_is_read_or_is_data_error(run_files, name, kind, at, column, cell):
    path, read = run_files[name]
    original = path.read_bytes()
    path.write_bytes(damaged(original, kind, at, column, cell))
    try:
        read(path)
    except DataError:
        pass
    finally:
        path.write_bytes(original)


# --- the pipeline under a locale that is not UTF-8 ------------------------------

# runs each command in argv[1] (JSON) and names EQ1 "EQé1" in the manifest synth writes
PIPELINE = r"""
import json, sys, warnings
from pathlib import Path

warnings.filterwarnings("error", category=EncodingWarning, module=r"ttrnn\.")
from ttrnn.cli import main

for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(f"ttrnn {argv[0]} exited {code}")
    if argv[0] == "synth":
        manifest = Path(sys.argv[2])
        manifest.write_bytes(manifest.read_bytes().replace(b"\nEQ1,", "\nEQ\u00e91,".encode()))
"""


def test_pipeline_reads_utf8_under_the_c_locale(tmp_path):
    """Run files are read as UTF-8 under the C locale, and no ttrnn module opens text in the
    locale's encoding (an EncodingWarning from one is an error)."""
    manifest, out = tmp_path / "data" / "manifest.csv", tmp_path / "run"
    tensor = tmp_path / "tensor.txt"
    tensor.write_text("tensor dims=2,3\n1.0 2.0 3.0 4.0 5.0 6.0\n", encoding="utf-8")
    run = ["--out-dir", str(out), "--data-manifest", str(manifest), "--hidden-dims", "2,2,2,2,2",
           "--epochs", "2", "--ranks", "2", "--batch-size", "8", "--seed", "11"]
    commands = [
        ["synth", "--out-dir", str(tmp_path), "--synth-days", "60"],
        ["features", *run],
        ["train", *run],
        ["backtest", *run, "--checkpoint", str(out / "checkpoint.txt")],
        ["report-cores", "--log", str(out / "core_change.csv")],
        ["decompose", "--input", str(tensor), "--out", str(tmp_path / "cores.txt")],
    ]
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(ttrnn.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-c", PIPELINE, json.dumps(commands),
         str(manifest)],
        env=env, capture_output=True, encoding="utf-8", errors="replace", timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "EQ\u00e91".encode() in (out / "features.csv").read_bytes()


def test_run_files_are_handled_only_in_files():
    """Outside files: no module imports csv, calls json.dump or os.makedirs, and only
    config calls open or names UnicodeDecodeError.

    config opens the --config file itself, because its errors are ConfigErrors.
    """
    package = Path(ttrnn.__file__).parent
    for source in package.glob("*.py"):
        if source.stem == "files":
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            where = (source.name, getattr(node, "lineno", None))
            if isinstance(node, ast.Import):
                assert "csv" not in [alias.name for alias in node.names], where
            if isinstance(node, ast.ImportFrom):
                assert node.module != "csv", where
            if isinstance(node, ast.Attribute) and node.attr == "dump":
                assert getattr(node.value, "id", None) != "json", where
            if isinstance(node, ast.Attribute) and node.attr == "makedirs":
                assert getattr(node.value, "id", None) != "os", where
            if isinstance(node, ast.Name) and node.id in ("UnicodeDecodeError", "open"):
                assert source.stem == "config", where
