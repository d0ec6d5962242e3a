"""No damaged input file ends in a traceback: ``cli.main`` on mutated run files.

Each example damages one input of a command that succeeds on the clean
file: a v3 checkpoint of a hidden 2^5, rank 2 model (v1 and v2 files stop
at their first line), a ``core_change.csv``, a ``--config`` file or a
panel manifest.  The command must end with a documented exit code and at
most one stderr line, and a report it writes must hold no NaN or
infinity.  In process, a numpy RuntimeWarning is an error too (see
pyproject.toml).
"""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttrnn
from test_cli import FAST
from ttrnn.cli import main

CONFIG = """\
# the reduced model of the command-line tests
synth_days = 60
signal_strength = 0.5
target = FX6
split = 0.9
seq_len = 10
epochs = 2
batch_size = 8
learning_rate = 0.01
ranks = 2
hidden_dims = 2,2,2,2,2
seed = 11
"""

NUMBER = re.compile(rb"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
MUTATIONS = ("truncate", "flip", "invalid_utf8", "drop_line", "duplicate_line", "number", "value",
             "empty")


def mutate(blob: bytes, op: str, at: int, value: int) -> bytes:
    """``blob`` with one damage ``op``; ``at`` picks the place and ``value`` the damage."""
    lines = blob.splitlines(keepends=True)
    if op == "truncate":
        return blob[: at % len(blob)]
    if op == "flip":
        i = at % len(blob)
        return blob[:i] + bytes([blob[i] ^ (1 + value % 255)]) + blob[i + 1 :]
    if op == "invalid_utf8":
        i = at % (len(blob) + 1)
        return blob[:i] + (b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80")[value % 4] + blob[i:]
    if op == "drop_line":
        k = at % len(lines)
        return b"".join(lines[:k] + lines[k + 1 :])
    if op == "duplicate_line":
        k = at % len(lines)
        return b"".join(lines[: k + 1] + lines[k:])
    if op in ("number", "value"):
        spans = [m.span() for m in NUMBER.finditer(blob)]
        if op == "value":  # one with a fraction or an exponent, not a count, where there is one
            spans = [(s, e) for s, e in spans if re.search(rb"[.eE]", blob[s:e])] or spans
        start, end = spans[at % len(spans)]
        new = (b"nan", b"x", b"1e999") if op == "number" else (b"nan", b"inf", b"-inf", b"1e999")
        return blob[:start] + new[value % len(new)] + blob[end:]
    return b""


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    """The output directory, and for each kind the clean file and the command that reads it."""
    root = tmp_path_factory.mktemp("fuzz")
    run, out = root / "run", root / "out"
    for argv in (["train", "--out-dir", str(run)] + FAST,
                 ["synth", "--out-dir", str(root), "--synth-days", "60", "--seed", "11"]):
        assert quiet_main(argv)[0] == 0
    (root / "run.cfg").write_text(CONFIG)
    ckpt = str(run / "checkpoint.txt")
    backtest = ["backtest", "--out-dir", str(out), "--seed", "11"]
    synth = ["--synth-days", "60"]
    return out, {
        "checkpoint_v3": (run / "checkpoint.txt", lambda f: backtest + synth + ["--checkpoint", f]),
        "core_change": (run / "core_change.csv",
                        lambda f: ["report-cores", "--log", f, "--out-dir", str(out)]),
        "config": (root / "run.cfg", lambda f: backtest + ["--checkpoint", ckpt, "--config", f]),
        "data_manifest": (root / "data" / "manifest.csv",
                          lambda f: backtest + ["--checkpoint", ckpt, "--data-manifest", f]),
    }


def quiet_main(argv):
    """``main(argv)``'s exit code and stderr, its stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def damaged(run_files, kind, blob):
    """The command on a copy of ``kind``'s file holding ``blob``, into an empty output directory."""
    out, kinds = run_files
    clean, command = kinds[kind]
    path = clean.with_name("damaged_" + clean.name)  # a panel manifest names files beside it
    path.write_bytes(blob)
    shutil.rmtree(out, ignore_errors=True)
    return command(str(path))


def refuse(constant):
    raise AssertionError(f"a report holds {constant}")


def assert_documented_exit(code, err):
    assert "Traceback" not in err, err
    assert err.count("\n") <= 1 and err.endswith("\n") == bool(err), err
    if code == 1:  # README's one exit-1 row: a missing input file
        assert err.startswith("i/o error: [Errno 2] No such file or directory"), err
    else:
        assert code in (0, 2, 3, 4), (code, err)


@pytest.mark.parametrize(
    "kind",
    ["checkpoint_v3", "core_change", "config", "data_manifest"],
)
@settings(derandomize=True, deadline=None, max_examples=50)
@given(op=st.sampled_from(MUTATIONS), at=st.integers(0, 2**31), value=st.integers(0, 2**31))
def test_damaged_input_gets_a_documented_exit(run_files, kind, op, at, value):
    out, kinds = run_files
    blob = mutate(kinds[kind][0].read_bytes(), op, at, value)
    assert_documented_exit(*quiet_main(damaged(run_files, kind, blob)))
    for report in out.glob("*.json"):  # backtest.json or core_ranking.json
        json.loads(report.read_text(), parse_constant=refuse)


@pytest.mark.parametrize(
    "kind, op, where, code",
    [
        # inside the feedback bytes, which follow a 'feedback 8192' line
        ("checkpoint_v3", "truncate", lambda clean: clean.index(b"\nfeedback 8192\n") + 4096, 3),
        ("config", "number", lambda clean: 6, 2),  # batch_size = x
        ("data_manifest", "flip", lambda clean: clean.index(b"EQ2.csv"), 1),  # GQ2.csv
    ],
    ids=["checkpoint_v3", "config", "data_manifest"],
)
def test_damaged_input_in_a_fresh_process(run_files, kind, op, where, code):
    """The exit code and message as ``python -m ttrnn`` gives them, without a traceback."""
    _, kinds = run_files
    clean = kinds[kind][0].read_bytes()
    argv = damaged(run_files, kind, mutate(clean, op, where(clean), 1))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(ttrnn.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ttrnn", *argv], env=env, capture_output=True,
                          encoding="utf-8", errors="replace", timeout=120)
    assert proc.returncode == code, proc.stderr
    assert_documented_exit(proc.returncode, proc.stderr)
