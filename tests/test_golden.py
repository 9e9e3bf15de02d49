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

``golden/accountant-grid.stdout`` is the standard output of the six
``imdp accountant`` queries of the benchmark's grid, in the order of
``ACCOUNTANT_GRID``: q = 64/768 and 64/60000, each at epsilon 5.5, 2.2 and
1.22, with delta 1e-5, n_d 5 and 1000 steps.
"""
from pathlib import Path

import pytest

from imdp.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"


ACCOUNTANT_GRID = [(q, eps) for q in (repr(64 / 768), repr(64 / 60000))
                   for eps in ("5.5", "2.2", "1.22")]


@pytest.mark.parametrize("name", ["eps-inf", "eps-2.2", "trend-1.22"])
def test_metrics_log_matches_golden(name, tmp_path):
    assert main(["train", "--config", str(GOLDEN / f"{name}.cfg"),
                 "--out", str(tmp_path)]) == EXIT_OK
    produced = (next(tmp_path.iterdir()) / "metrics.log").read_bytes()
    assert produced == (GOLDEN / f"{name}.metrics.log").read_bytes()


def test_accountant_stdout_matches_golden(capsys):
    for q, eps in ACCOUNTANT_GRID:
        assert main(["accountant", "--q", q, "--epsilon", eps, "--delta", "1e-5",
                     "--nd", "5", "--steps", "1000"]) == EXIT_OK
    produced = capsys.readouterr().out.encode()
    assert produced == (GOLDEN / "accountant-grid.stdout").read_bytes()
