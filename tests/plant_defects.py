"""Plant each defect of tests/defects.py and check that tier-1 catches it.

    python tests/plant_defects.py

Copies the repository to a temporary directory, runs tier-1 there once
unchanged, then once per catalogue entry with that one defect planted.
Each run is `pytest -q -x --ignore=tests/test_golden.py`, so the
byte-hash goldens cannot be what catches a defect. Acceptance
criterion 5 is deselected: it fails on correct code by design (README,
"Known red acceptance check"), so with `-x` it would stop every run first.
The unchanged run must pass, or a failure would prove nothing. Exits
nonzero if an entry's old text does not occur exactly once, if the
unchanged run fails, or if any planted defect passes. Each run takes about
as long as tier-1 (~45 s).
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from defects import DEFECTS

ROOT = Path(__file__).resolve().parents[1]
KNOWN_RED = "tests/test_acceptance.py::test_criterion_5_sobol_stratification"


def source(root, module):
    return root / "src" / (module.replace(".", "/") + ".py")


def check_catalogue():
    """Every old text occurs exactly once, so no entry plants nothing."""
    for name, module, old, _ in DEFECTS:
        count = source(ROOT, module).read_text().count(old)
        if count != 1:
            raise SystemExit(f"{name}: old text occurs {count} times in "
                             f"{module}: {old!r}")


def tier1(copy):
    """Run tier-1 in the copy; return (passed, first failing test)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf",
         "-p", "no:cacheprovider", "--ignore=tests/test_golden.py",
         f"--deselect={KNOWN_RED}"],
        cwd=copy, env=env, capture_output=True, text=True)
    if out.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {out.returncode}:\n{out.stdout}"
                         f"{out.stderr}")
    failed = re.findall(r"^FAILED (\S+)", out.stdout, re.MULTILINE)
    return out.returncode == 0, (failed or ["?"])[0]


def main():
    check_catalogue()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        start = time.perf_counter()
        passed, first = tier1(copy)
        print(f"unchanged: {'passed' if passed else 'FAILED at ' + first} "
              f"({time.perf_counter() - start:.0f} s)", flush=True)
        if not passed:
            return 1
        survivors = []
        for name, module, old, new in DEFECTS:
            path = source(copy, module)
            original = path.read_text()
            path.write_text(original.replace(old, new))
            start = time.perf_counter()
            try:
                passed, first = tier1(copy)
            finally:
                path.write_text(original)
            verdict = "SURVIVED" if passed else f"caught by {first}"
            print(f"{name}: {verdict} ({time.perf_counter() - start:.0f} s)",
                  flush=True)
            if passed:
                survivors.append(name)
    if survivors:
        print(f"{len(survivors)} of {len(DEFECTS)} defects survived tier-1: "
              f"{survivors}")
        return 1
    print(f"all {len(DEFECTS)} defects caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
