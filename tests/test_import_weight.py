"""The package must not pull in scipy.stats (~45 MB and ~1.5 s to import)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
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


def test_package_leaves_scipy_stats_unimported():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
