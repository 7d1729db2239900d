"""Certification matrix: one ``dfca run configs/desk.cfg`` per entry.

It shows that a change keeps every trace and summary of the entries, the
output of ``dfca verify`` with and without ``--inject-fault``, and what the
demos print.

Usage (from any directory)::

    python3 tools/trace_matrix.py OUT [--set key=value ...]
    python3 tools/trace_matrix.py --diff A B

The first form writes each entry's run under ``OUT/<name>/`` (``desk/`` with
``seed_<s>/trace.csv`` and ``summary.json``), at ``T=25`` and ``n_seeds=2``
unless the entry or a ``--set``, applied last, says otherwise, and the
output of each ``dfca verify`` command of ``VERIFY`` into its file under
``OUT/``, and the standard output of each demo, ``demos/0[1-5]_*.py``, into
``OUT/<demo>.txt``, the exit status last in every file.  It also writes
``OUT/digests.json``: one sha256 per entry, over its ``seed_*/trace.csv``
files and ``summary.json`` in sorted path order, one per verify file, the
overrides, and the environment that produced them (Python, numpy, BLAS,
BLAS threads, CPU model); BLAS runs on one thread.  It runs the
``src/`` of the checkout this script sits in, so run it in two checkouts,
say a parent commit and a change, and diff the outputs.  The second form
runs ``dfca diff`` on every entry of two such directories and compares
their ``summary.json`` bytes, naming the dotted keys (``mean.final_f_global``)
at which two summaries differ, their verify files and their demo files; it
exits 1 if any entry or file differs or is missing.  The gossip and crowd
entries take their overrides from the benchmark's ``WORKLOADS`` in
``perfbench/run.py``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, as perfbench/run.py does;
# the demos inherit it.  Only this process's environment changes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ast
import contextlib
import hashlib
import io
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dfca.cli import main as dfca  # noqa: E402

DESK = ROOT / "configs" / "desk.cfg"
BASE = ("T=25", "n_seeds=2")
VERIFY = {"verify.txt": ("verify",), "verify-inject-fault.txt": ("verify", "--inject-fault")}
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def outputs() -> list[str]:
    """The files under ``OUT/`` besides the entries: verify, then demos."""
    return [*VERIFY, *(f"{demo.stem}.txt" for demo in DEMOS)]


def _workloads() -> dict[str, tuple[str, ...]]:
    """The ``WORKLOADS`` literal of ``perfbench/run.py``, read without
    running that script."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["WORKLOADS"]:
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py assigns no WORKLOADS")


def entries() -> dict[str, tuple[str, ...]]:
    """Name -> the overrides of ``configs/desk.cfg`` that the entry runs."""
    workloads = _workloads()
    metropolis = ("aggregation_mode=batch", "mixing_kind=metropolis", "participation_fraction=0.5")
    return {
        "default": (),
        "li": ("init_mode=li",),
        "ifca": ("algorithm=ifca",),
        "davg": ("algorithm=davg",),
        "batch-metropolis": metropolis,
        "batch-metropolis-restricted": (*metropolis, "restrict_receive_to_participants=true"),
        "sequential-metropolis": ("mixing_kind=metropolis",),
        "linear": ("model.hidden=0",),
        "gossip": (*workloads["gossip"], "T=4"),
        # Metropolis factors differ per slot: the per-row running fold over many passes.
        "gossip-metropolis": (*workloads["gossip"], "mixing_kind=metropolis", "T=4"),
        "crowd": (*workloads["crowd"], "T=8"),
        "ifca-k4": ("algorithm=ifca", "k=4", "n_clients=12", "T=10"),
        "odd-k4": ("k=4", "n_clients=13", "data.samples_per_client=37", "data.test_fraction=0.23"),
        "batch7": ("batch_size=7",),
        "partial": ("participation_fraction=0.3", "data.test_fraction=0.5"),
        "sparse": ("topology.p=0.08",),  # disconnected at seed 0, connected at seed 1
        "classes10": ("data.n_classes=10",),  # 8 or more classes: numpy's pairwise class sums
        "ifca-partial": ("algorithm=ifca", "participation_fraction=0.5"),  # IFCA's client sampling
        "batch-uniform": ("aggregation_mode=batch",),
        "wide": ("data.dim=64", "model.hidden=128", "data.n_classes=10"),  # P = 9,610: 3 slots per fold pass
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict[str, str]:
    """What the digests depend on besides the code: the versions of Python,
    numpy and BLAS, the BLAS thread count and the CPU model."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "cpu": _cpu_model()}


def _sha256(files: list[Path], root: Path) -> str:
    """One digest over ``files``: each one's path under ``root``, then its bytes."""
    h = hashlib.sha256()
    for path in files:
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def digests(out: Path, overrides: list[str]) -> dict:
    """The ``digests.json`` record of a matrix written into ``out``."""
    runs = {}
    for name in entries():
        run = out / name / DESK.stem
        files = [*run.glob("seed_*/trace.csv"), run / "summary.json"]
        runs[name] = _sha256(sorted(p for p in files if p.is_file()), run)
    return {"env": environment(), "overrides": overrides, "entries": runs,
            "verify": {name: _sha256([out / name], out) for name in VERIFY}}


def run_matrix(out: Path, overrides: list[str]) -> int:
    """Run every entry into ``out/<name>/``, every verify command and demo
    into its file, and write ``out/digests.json``; 1 if any entry run or
    demo fails."""
    failed = []
    for name, entry in entries().items():
        os.environ["DFCA_OUTPUT_ROOT"] = str(out / name)
        sets = [arg for kv in (*BASE, *entry, *overrides) for arg in ("--set", kv)]
        print(f"{name}: ", end="", flush=True)
        if dfca(["run", str(DESK), *sets]) != 0:
            failed.append(name)
    for name, argv in VERIFY.items():
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = dfca(list(argv))
        (out / name).write_text(f"{text.getvalue()}exit {code}\n", encoding="utf-8")
        print(f"{name}: dfca {' '.join(argv)} exit {code}")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in DEMOS:
        ran = subprocess.run([sys.executable, str(demo)], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, env=env, cwd=ROOT)
        text = f"{ran.stdout}exit {ran.returncode}\n"
        (out / f"{demo.stem}.txt").write_text(text, encoding="utf-8")
        print(f"{demo.stem}.txt: exit {ran.returncode}")
        if ran.returncode != 0:
            failed.append(demo.name)
    (out / "digests.json").write_text(json.dumps(digests(out, overrides), indent=2) + "\n",
                                      encoding="utf-8")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def _differing_keys(a, b, prefix: str = "") -> list[str]:
    """Dotted paths of the keys at which two JSON values differ or that only
    one of them has; a list is compared as one value."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if json.dumps(a) == json.dumps(b) else [prefix.rstrip(".")]
    paths = []
    for key in sorted(a.keys() | b.keys()):
        if key in a and key in b:
            paths += _differing_keys(a[key], b[key], f"{prefix}{key}.")
        else:
            paths.append(prefix + key)
    return paths


def _summary_verdict(paths: list[Path]) -> str:
    """``identical``, ``differs at`` the keys that differ, or ``differs or is
    missing``; the bytes decide whether the summaries are identical."""
    if not all(p.is_file() for p in paths):
        return "differs or is missing"
    texts = [p.read_bytes() for p in paths]
    if texts[0] == texts[1]:
        return "identical"
    try:
        keys = _differing_keys(*(json.loads(t) for t in texts))
    except ValueError:
        keys = []
    return f"differs at {', '.join(keys)}" if keys else "differs or is missing"


def diff_matrix(a: Path, b: Path) -> int:
    """``dfca diff`` and a byte comparison of ``summary.json`` per entry,
    and of each verify and demo file; 1 if any differs or is missing."""
    differs = []
    for name in entries():
        run_a, run_b = a / name / DESK.stem, b / name / DESK.stem
        print(f"== {name}", flush=True)
        code = dfca(["diff", str(run_a), str(run_b)])
        verdict = _summary_verdict([p / "summary.json" for p in (run_a, run_b)])
        print(f"dfca diff exit {code}, summary.json {verdict}")
        if code != 0 or verdict != "identical":
            differs.append(name)
    print(f"{len(differs)} of {len(entries())} entries differ" + (f": {', '.join(differs)}" if differs else ""))
    for name in outputs():
        files = [a / name, b / name]
        same = all(p.is_file() for p in files) and files[0].read_bytes() == files[1].read_bytes()
        print(f"{name} {'identical' if same else 'differs or is missing'}")
        if not same:
            differs.append(name)
    return 1 if differs else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("out", nargs="?", type=Path, help="directory to write the matrix into")
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key of every entry (repeatable)")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two matrix directories instead of running")
    args = parser.parse_args(argv)
    if (args.out is None) == (args.diff is None):
        parser.error("give either OUT or --diff A B")
    if args.diff:
        return diff_matrix(*args.diff)
    return run_matrix(args.out, args.overrides)


if __name__ == "__main__":
    sys.exit(main())
