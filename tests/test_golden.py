"""Golden metrics logs: the training numerics replay byte for byte across changes.

Each ``golden/<name>.cfg`` was trained with ``imdp train`` and the run's
``metrics.log`` committed beside it as ``golden/<name>.metrics.log``.
Criterion 11 only shows that two runs of the same code agree; these files
pin the numbers themselves, so a change that moves any bit of training
fails here.  A change that alters numerics on purpose regenerates them
with ``imdp train --config tests/golden/<name>.cfg --out <dir>`` and says
why.  The nets are 16 units wide, small enough that the matmuls give the
same bits with one or two OpenBLAS threads.
"""
from pathlib import Path

import pytest

from imdp.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["eps-inf", "eps-2.2"])
def test_metrics_log_matches_golden(name, tmp_path):
    assert main(["train", "--config", str(GOLDEN / f"{name}.cfg"),
                 "--out", str(tmp_path)]) == EXIT_OK
    produced = (next(tmp_path.iterdir()) / "metrics.log").read_bytes()
    assert produced == (GOLDEN / f"{name}.metrics.log").read_bytes()
