"""Import weight of the package.

Running the optimizers must load no scipy module at all: scipy.special
costs ~24 MB and ~0.35 s to import, and the optimizers need only numpy.
Summarizing loads scipy.special, but never scipy.stats (~45 MB and ~1.5 s).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

OPTIMIZE = """
import sys
import quasar_opt
from quasar_opt import (DeConfig, InitMethod, QuasarConfig, de_optimize,
                        make_suite, optimize)

fn = make_suite(5, 1)[4]
for run, cfg in ((optimize, QuasarConfig), (de_optimize, DeConfig)):
    result = run(fn, fn.bounds, cfg(pop_size=20, g_max=3,
                                    init_method=InitMethod.SOBOL))
    assert result.eval_count == 80
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
loaded = sorted(m for m in sys.modules if m.startswith("scipy.stats"))
assert not loaded, loaded
"""


def run_fresh(script):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_optimizers_leave_scipy_unimported():
    run_fresh(OPTIMIZE)


def test_package_leaves_scipy_stats_unimported():
    run_fresh(SUMMARIZE)
