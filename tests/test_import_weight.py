"""Import weight of the package.

numpy is the only run-time dependency. Each script runs in a fresh
interpreter where every scipy import and every find_spec lookup of scipy
fails, and checks that no code path needs scipy or loads any scipy module:
not the optimizers with Sobol init, not sobol_sample at SOBOL_MAX_DIM, not
the summary statistics, not a CLI run followed by a summarize. Importing
scipy.special would cost ~20-26 MB and ~0.3 s, and scipy.stats ~45 MB and
~1.5 s more.

A serial run also loads only what it uses: no process-pool modules
(concurrent.futures, multiprocessing: 32 modules, ~1.3 MB), no numpy.ma
(~0.6 MB), and only the rows of the Sobol table its dimension needs (the
whole table costs ~2.3 MB of peak RSS).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Prepended to every script: a meta-path finder that refuses scipy.
BLOCK_SCIPY = """
import importlib.util
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None


sys.meta_path.insert(0, BlockScipy())
try:
    importlib.util.find_spec("scipy")
except ModuleNotFoundError:
    pass
else:
    raise AssertionError("scipy is not blocked")
"""

OPTIMIZE = """
import sys
import quasar_opt
from quasar_opt import (BoundsBox, DeConfig, InitMethod, QuasarConfig,
                        de_optimize, make_suite, optimize, sobol_sample)
from quasar_opt.sampling import SOBOL_MAX_DIM

fn = make_suite(5, 1)[4]
for run, cfg in ((optimize, QuasarConfig), (de_optimize, DeConfig)):
    result = run(fn, fn.bounds, cfg(pop_size=20, g_max=3,
                                    init_method=InitMethod.SOBOL))
    assert result.eval_count == 80
wide = sobol_sample(3, BoundsBox.cube(0.0, 1.0, SOBOL_MAX_DIM))
assert wide.shape == (3, SOBOL_MAX_DIM)
assert (wide[0] == 0.5).all()
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""

SUMMARIZE = """
import sys
import quasar_opt
from quasar_opt import BoundsBox, sobol_sample
from quasar_opt.harness import TrialRecord, summarize_records

sobol_sample(16, BoundsBox.cube(-1.0, 1.0, 3))
records = [TrialRecord(algo, "sphere", 3, 16, 5, t, t, err, 0.01 * (t + 1), 96)
           for algo, scale in (("quasar", 1.0), ("de", 3.0))
           for t, err in enumerate(scale * (1.0 + 0.1 * i) for i in range(6))]
table = summarize_records(records)
assert table.scenarios[0].p_error["de"] is not None
assert table.friedman_p is not None
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""

CLI = """
import json
import sys
import tempfile
from pathlib import Path
from quasar_opt import cli

with tempfile.TemporaryDirectory() as out:
    assert cli.main(["run", "--dims", "5", "--pops", "20", "--gmax", "2",
                     "--trials", "5", "--functions", "sphere,rastrigin",
                     "--algos", "quasar,de", "--out", out]) == 0
    assert cli.main(["summarize", "--in", out]) == 0
    summary = json.loads((Path(out) / "summary.json").read_text())
assert summary["friedman_p"] is not None
assert summary["scenarios"][0]["gmerf_ci"]["de"]
assert summary["scenarios"][0]["p_error"]["de"] is not None
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


SERIAL = """
import os
import resource
import sys
import tempfile
import numpy as np
from quasar_opt import (DeConfig, QuasarConfig, cli, de_optimize, make_suite,
                        optimize, sampling)


def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# Run the recurrence once on a stand-in table first: the numpy code it
# touches for the first time (~0.6 MB of library pages) is not table data.
real_table = sampling._joe_kuo
sampling._joe_kuo = lambda *d: (np.arange(1, 101, dtype=np.uint32),
                                np.ones((100, 18), dtype=np.uint32))
sampling._direction_numbers.__wrapped__(100)
sampling._joe_kuo = real_table
before = peak_mb()
sampling._direction_numbers(100)
grown = peak_mb() - before
assert grown <= 0.5, f"_direction_numbers(100) added {grown:.2f} MB"

fn = make_suite(5, 1)[4]
for run, cfg in ((optimize, QuasarConfig), (de_optimize, DeConfig)):
    assert run(fn, fn.bounds, cfg(pop_size=20, g_max=3)).eval_count == 80
os.environ["QUASAR_WORKERS"] = "1"
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["run", "--dims", "5", "--pops", "20", "--gmax", "2",
                     "--trials", "5", "--functions", "sphere,rastrigin",
                     "--algos", "quasar,de", "--out", out]) == 0
    assert cli.main(["summarize", "--in", out]) == 0
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] in ("concurrent", "multiprocessing")
                or m == "numpy.ma" or m.startswith("numpy.ma."))
assert not loaded, loaded
"""


def run_fresh(script):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", BLOCK_SCIPY + script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_optimizers_leave_scipy_unimported():
    run_fresh(OPTIMIZE)


def test_summary_leaves_scipy_unimported():
    run_fresh(SUMMARIZE)


def test_cli_run_and_summarize_leave_scipy_unimported():
    run_fresh(CLI)


def test_serial_run_loads_only_what_it_uses():
    run_fresh(SERIAL)
