"""Write bench/reference.json: the result digest of one untraced repeat of
each workload for each seed pair, which run.py then requires.

    python3 bench/make_reference.py 0 31             # seeds 0..31, all
    python3 bench/make_reference.py 0 31 wide_run    # one workload

Rerun it only when a change alters results on purpose, and say so.
"""

import contextlib
import json
import shutil
import sys

import run
from measure import digest


def main(first: int, last: int, names) -> None:
    reference = json.loads((run.HERE / "reference.json").read_text())
    work = run.ROOT / ".bench_work" / "reference"
    try:
        _fill(reference, first, last, names or list(run.WORKLOADS), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def _fill(reference: dict, first: int, last: int, names, work) -> None:
    pkg = None
    for cls in (run.WORKLOADS[n] for n in names):
        entries = reference[cls.name] = {}
        for seed in range(first, last + 1):
            if pkg is None:
                pkg, _ = run.set_up((), seed)
            workload = cls(pkg, seed, seed, work)
            workload.before(None, [])
            rep = workload.repeat(None, [])
            errors = workload.after([rep]) + rep.errors
            if errors:
                raise SystemExit(f"{cls.name} seed {seed}: {errors}")
            entries[f"{seed}/{seed}"] = digest(rep.outcomes)
            print(cls.name, seed, entries[f"{seed}/{seed}"], flush=True)


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:])
