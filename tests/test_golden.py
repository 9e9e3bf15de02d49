"""Golden metrics logs: the training numerics replay byte for byte across changes.

Each ``golden/<name>.cfg`` was trained with ``imdp train`` and the run's
``metrics.log`` committed beside it as ``golden/<name>.metrics.log``.
Criterion 11 only shows that two runs of the same code agree; these files
pin the numbers themselves, so a change that moves any bit of training
fails here.  A change that alters numerics on purpose regenerates them
with ``imdp train --config tests/golden/<name>.cfg --out <dir>`` and says
why.  ``eps-inf`` and ``eps-2.2`` use 16-unit nets; ``trend-1.22`` is the
acceptance trend shape (2-dim ring mixture, 64-wide generator, 128-wide
trunk, a 128->1 score head, batch 64, five critic steps per iteration),
so the products of the shape the benchmark and the acceptance gate train
are pinned too.
All three give the same bits with one or two OpenBLAS threads.
"""
from pathlib import Path

import pytest

from imdp.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["eps-inf", "eps-2.2", "trend-1.22"])
def test_metrics_log_matches_golden(name, tmp_path):
    assert main(["train", "--config", str(GOLDEN / f"{name}.cfg"),
                 "--out", str(tmp_path)]) == EXIT_OK
    produced = (next(tmp_path.iterdir()) / "metrics.log").read_bytes()
    assert produced == (GOLDEN / f"{name}.metrics.log").read_bytes()
