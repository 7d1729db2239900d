"""The certification matrix runs every entry, both verify commands and the
demos, and its diff can fail on any of them."""

import shutil
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_matrix.py"
DEMOS = sorted(p.stem for p in (TOOL.parent.parent / "demos").glob("0[1-5]_*.py"))


def matrix(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_one_round_matrix_equals_itself_and_a_changed_entry_differs(tmp_path):
    out = tmp_path / "a"
    ran = matrix(out, "--set", "T=1", "--set", "n_seeds=1")
    assert ran.returncode == 0, ran.stderr
    names = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert len(names) == 16
    for name in names:
        assert len((out / name / "desk" / "seed_0" / "trace.csv").read_text().splitlines()) == 2
    verify = (out / "verify.txt").read_text().splitlines()
    assert verify[-1] == "exit 0" and all(line.startswith("PASS ") for line in verify[:-1])
    fault = (out / "verify-inject-fault.txt").read_text().splitlines()
    assert fault[-1] == "exit 1" and any(line.startswith("FAIL ") for line in fault)
    assert len(DEMOS) == 5
    for demo in DEMOS:
        printed = (out / f"{demo}.txt").read_text().splitlines()
        assert len(printed) > 1 and printed[-1] == "exit 0"
    same = matrix("--diff", out, out)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "0 of 16 entries differ" in same.stdout
    assert "verify.txt identical" in same.stdout and "verify-inject-fault.txt identical" in same.stdout
    assert all(f"{demo}.txt identical" in same.stdout for demo in DEMOS)

    copy = tmp_path / "b"
    shutil.copytree(out, copy)
    summary = copy / "crowd" / "desk" / "summary.json"
    summary.write_text(summary.read_text().replace('"seeds": [\n    0', '"seeds": [\n    1', 1))
    differ = matrix("--diff", out, copy)
    assert differ.returncode == 1 and "1 of 16 entries differ: crowd" in differ.stdout
    assert "summary.json differs at seeds\n" in differ.stdout
    trace = copy / "gossip" / "desk" / "seed_0" / "trace.csv"
    trace.write_text(trace.read_text().replace("\n0,", "\n7,", 1))
    differ = matrix("--diff", out, copy)
    assert differ.returncode == 1 and "2 of 16 entries differ: gossip, crowd" in differ.stdout

    shutil.rmtree(copy)
    shutil.copytree(out, copy)
    verify = copy / "verify.txt"
    verify.write_text(verify.read_text().replace("PASS", "FAIL", 1))
    differ = matrix("--diff", out, copy)
    assert differ.returncode == 1 and "0 of 16 entries differ" in differ.stdout
    assert "verify.txt differs or is missing" in differ.stdout
    assert "verify-inject-fault.txt identical" in differ.stdout

    shutil.rmtree(copy)
    shutil.copytree(out, copy)
    demo = copy / f"{DEMOS[2]}.txt"
    demo.write_text(demo.read_text().replace("0", "1", 1))
    (copy / f"{DEMOS[4]}.txt").unlink()
    differ = matrix("--diff", out, copy)
    assert differ.returncode == 1 and "0 of 16 entries differ" in differ.stdout
    assert f"{DEMOS[2]}.txt differs or is missing" in differ.stdout
    assert f"{DEMOS[4]}.txt differs or is missing" in differ.stdout
    assert f"{DEMOS[0]}.txt identical" in differ.stdout
