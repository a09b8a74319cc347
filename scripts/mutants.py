"""Run the mutant table (tests/mutants.py): apply each mutant to a fresh copy
of src/ and tests/ and run the test that must kill it.

    python scripts/mutants.py            # every row
    python scripts/mutants.py -k reconstruct   # rows whose text has it

A row is killed when its test fails on the mutant; each test is first run
once on the unmutated copy, which must pass.  Equivalent rows are listed
with their reason and not run.  Exits 1 when a non-equivalent mutant
survives or a test fails unmutated.  Each test runs in its own pytest
process with OPENBLAS_NUM_THREADS=1; the whole table takes a few minutes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402


def run_test(tree: Path, test: str) -> bool:
    """True when the pytest node id ``test`` passes in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         test], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", default="",
                        help="run only rows whose file, old or new text "
                             "contains this")
    args = parser.parse_args()
    rows = [m for m in MUTANTS
            if args.k in m.file + m.old + m.new]
    bad = 0
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        for test in sorted({m.test for m in rows if not m.equivalent}):
            if not run_test(tree, test):
                print(f"FAILS UNMUTATED  {test}")
                bad += 1
        for m in rows:
            label = f"{m.file}: {m.old.strip()!r} -> {m.new.strip()!r}"
            if m.equivalent:
                print(f"equivalent  {label}\n    {m.equivalent}")
                continue
            path = tree / "src" / "tiltlab" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new, 1))
            try:
                killed = not run_test(tree, m.test)
            finally:
                path.write_text(original)
            print(f"{'killed' if killed else 'SURVIVED'}  {label}\n"
                  f"    {m.test}")
            bad += not killed
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
