"""The certification matrix runs every entry, both verify commands and the
demos, its diff can fail on any of them, and its digests match the ones
committed in ``tests/matrix_digests.json``.  The matrix is the suite's one
run of ``dfca verify --inject-fault`` and of the demos."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_matrix.py"
DEMOS = sorted(p.stem for p in (TOOL.parent.parent / "demos").glob("0[1-5]_*.py"))
COMMITTED = Path(__file__).resolve().parent / "matrix_digests.json"
SETS = ["T=3", "n_seeds=1"]


def matrix(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def entries():
    """The tool's ``entries()``; the environment variables and ``sys.path``
    entry the tool sets on import are undone."""
    with pytest.MonkeyPatch.context() as patch:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            patch.setenv(var, "1")  # records the old value, restored on exit
        patch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("trace_matrix", TOOL)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        return tool.entries()


@pytest.fixture(scope="module")
def matrix_out(tmp_path_factory):
    """One three-round, one-seed matrix, shared by the tests of this module."""
    out = tmp_path_factory.mktemp("matrix") / "a"
    ran = matrix(out, *(arg for kv in SETS for arg in ("--set", kv)))
    assert ran.returncode == 0, ran.stderr
    return out


def test_matrix_matches_the_committed_digests(matrix_out):
    """Every entry and verify file hashes as committed, in the environment
    the digests were committed in; README says how to regenerate them."""
    ran, committed = (json.loads(p.read_text()) for p in (matrix_out / "digests.json", COMMITTED))
    assert ran["overrides"] == committed["overrides"] == SETS
    env = [f"{key} ({committed['env'].get(key)!r} committed, {value!r} here)"
           for key, value in ran["env"].items() if committed["env"].get(key) != value]
    if env:
        pytest.skip(f"the digests were committed in another environment: {', '.join(env)}")
    differ = [name for part in ("entries", "verify")
              for name in dict.fromkeys([*committed[part], *ran[part]])
              if ran[part].get(name) != committed[part].get(name)]
    assert not differ, f"digests differ from tests/matrix_digests.json at: {', '.join(differ)}"


def test_matrix_equals_itself_and_a_changed_entry_differs(matrix_out, entries, tmp_path):
    out, n_entries = matrix_out, len(entries)
    names = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert names == sorted(entries)
    for name in names:
        assert len((out / name / "desk" / "seed_0" / "trace.csv").read_text().splitlines()) == 4
    verify = (out / "verify.txt").read_text().splitlines()
    assert verify[-1] == "exit 0" and all(line.startswith("PASS ") for line in verify[:-1])
    fault = (out / "verify-inject-fault.txt").read_text()
    assert fault.endswith("\nexit 1\n") and fault.count("FAIL") == 1
    assert any(line.startswith("FAIL sequential-equals-batch:") for line in fault.splitlines())
    assert len(DEMOS) == 5
    for demo in DEMOS:
        printed = (out / f"{demo}.txt").read_text().splitlines()
        assert len(printed) > 1 and printed[-1] == "exit 0"
    same = matrix("--diff", out, out)
    assert same.returncode == 0, same.stdout + same.stderr
    assert f"0 of {n_entries} entries differ" in same.stdout
    assert "verify.txt identical" in same.stdout and "verify-inject-fault.txt identical" in same.stdout
    assert all(f"{demo}.txt identical" in same.stdout for demo in DEMOS)

    copy = tmp_path / "b"
    shutil.copytree(out, copy)
    summary = copy / "crowd" / "desk" / "summary.json"
    summary.write_text(summary.read_text().replace('"seeds": [\n    0', '"seeds": [\n    1', 1))
    differ = matrix("--diff", out, copy)
    assert differ.returncode == 1 and f"1 of {n_entries} entries differ: crowd" in differ.stdout
    assert "summary.json differs at seeds\n" in differ.stdout
    trace = copy / "gossip" / "desk" / "seed_0" / "trace.csv"
    trace.write_text(trace.read_text().replace("\n0,", "\n7,", 1))
    differ = matrix("--diff", out, copy)
    assert differ.returncode == 1 and f"2 of {n_entries} entries differ: gossip, crowd" in differ.stdout

    shutil.rmtree(copy)
    shutil.copytree(out, copy)
    verify = copy / "verify.txt"
    verify.write_text(verify.read_text().replace("PASS", "FAIL", 1))
    differ = matrix("--diff", out, copy)
    assert differ.returncode == 1 and f"0 of {n_entries} entries differ" in differ.stdout
    assert "verify.txt differs or is missing" in differ.stdout
    assert "verify-inject-fault.txt identical" in differ.stdout

    shutil.rmtree(copy)
    shutil.copytree(out, copy)
    demo = copy / f"{DEMOS[2]}.txt"
    demo.write_text(demo.read_text().replace("0", "1", 1))
    (copy / f"{DEMOS[4]}.txt").unlink()
    differ = matrix("--diff", out, copy)
    assert differ.returncode == 1 and f"0 of {n_entries} entries differ" in differ.stdout
    assert f"{DEMOS[2]}.txt differs or is missing" in differ.stdout
    assert f"{DEMOS[4]}.txt differs or is missing" in differ.stdout
    assert f"{DEMOS[0]}.txt identical" in differ.stdout
