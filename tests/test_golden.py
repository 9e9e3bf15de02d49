"""Golden metrics logs: the training numerics replay byte for byte across changes.

Each ``golden/<name>.cfg`` was trained with ``imdp train`` and the run's
``metrics.log`` and ``config.resolved`` committed beside it as
``golden/<name>.metrics.log`` and ``golden/<name>.config.resolved``; the
second pins what the config reader makes of the file.  The SHA-256 of the
run's final ``checkpoint.ckpt`` is kept as ``golden/<name>.checkpoint.sha256``:
the log pins only the scalars logged each iteration, the digest pins every
weight the backward passes moved.
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

``golden/codes-sweep.csv`` and ``golden/codes-utility.csv`` pin the two
read-only commands that build latent code batches by hand: ``imdp
generate``'s sweep table and ``imdp evaluate``'s report.  Their inputs are
made by ``_code_inputs``: two freshly initialized checkpoints over a spec
with two categorical and two continuous codes and 6-dim data (not square,
so the sweep is written as CSV), and a labeled 2x3 IDX image file.  A
change that alters them on purpose rewrites them with the same commands
and says why.  Both give the same bits with one or two OpenBLAS threads.
"""
import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from imdp.cli import EXIT_OK, main
from imdp.latent import LatentSpec
from imdp.nets import NetConfig, build_critic, build_generator, save_checkpoint
from imdp.privacy import PrivacySpec

GOLDEN = Path(__file__).parent / "golden"


ACCOUNTANT_GRID = [(q, eps) for q in (repr(64 / 768), repr(64 / 60000))
                   for eps in ("5.5", "2.2", "1.22")]


@pytest.mark.parametrize("name", ["eps-inf", "eps-2.2", "trend-1.22"])
def test_metrics_log_matches_golden(name, tmp_path):
    assert main(["train", "--config", str(GOLDEN / f"{name}.cfg"),
                 "--out", str(tmp_path)]) == EXIT_OK
    run_dir = next(tmp_path.iterdir())
    assert ((run_dir / "config.resolved").read_bytes()
            == (GOLDEN / f"{name}.config.resolved").read_bytes())
    produced = (run_dir / "metrics.log").read_bytes()
    assert produced == (GOLDEN / f"{name}.metrics.log").read_bytes()
    digest = hashlib.sha256((run_dir / "checkpoint.ckpt").read_bytes()).hexdigest()
    assert digest == (GOLDEN / f"{name}.checkpoint.sha256").read_text().strip()


def test_accountant_stdout_matches_golden(capsys):
    for q, eps in ACCOUNTANT_GRID:
        assert main(["accountant", "--q", q, "--epsilon", eps, "--delta", "1e-5",
                     "--nd", "5", "--steps", "1000"]) == EXIT_OK
    produced = capsys.readouterr().out.encode()
    assert produced == (GOLDEN / "accountant-grid.stdout").read_bytes()


CODE_SPEC = LatentSpec(z_dim=3, categorical=(4, 3), continuous=((-1.0, 1.0), (0.0, 2.0)))


def _code_inputs(root: Path) -> tuple[dict[str, Path], str]:
    """Checkpoints at epsilon inf and 2.2, and an IDX descriptor of 400
    labeled 2x3 images.  The generators' weights are scaled up from their
    initial +-0.05 so that samples spread over [-1, 1] and every code
    column moves the classifier's accuracy."""
    models = {}
    for eps, seed in (("inf", 0), ("2.2", 1)):
        cfg = NetConfig(latent=CODE_SPEC, data_dim=6, gen_hidden=(8,), trunk_hidden=(8,),
                        seed=seed)
        gen = build_generator(cfg)
        for arr in gen.store.params.values():
            arr *= 40.0
        models[eps] = root / f"model-{eps}.ckpt"
        save_checkpoint(models[eps], gen, build_critic(cfg),
                        PrivacySpec.calibrated(float(eps), 1e-5, 0.01, 0.1, 5))
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, size=(400, 2, 3), dtype=np.uint8)
    labels = rng.integers(0, 4, size=400).astype(np.uint8)
    (root / "x.idx").write_bytes(struct.pack(">IIII", 0x00000803, 400, 2, 3) + images.tobytes())
    (root / "y.idx").write_bytes(struct.pack(">II", 0x00000801, 400) + labels.tobytes())
    return models, f"idx:{root / 'x.idx'},labels={root / 'y.idx'}"


def test_generate_sweep_matches_golden(tmp_path):
    models, _ = _code_inputs(tmp_path)
    assert main(["generate", "--checkpoint", str(models["inf"]), "--cont-steps", "3",
                 "--seed", "7", "--out", str(tmp_path / "gen")]) == EXIT_OK
    produced = (tmp_path / "gen" / "sweep.csv").read_bytes()
    assert produced == (GOLDEN / "codes-sweep.csv").read_bytes()


def test_evaluate_utility_matches_golden(tmp_path, capsys):
    models, dataset = _code_inputs(tmp_path)
    assert main(["evaluate", *[f"--model={eps}={path}" for eps, path in models.items()],
                 "--pair", "1,2", "--dataset", dataset, "--per-class", "64",
                 "--map-samples", "40", "--epochs", "20", "--seed", "3",
                 "--out", str(tmp_path / "eval")]) == EXIT_OK
    produced = (tmp_path / "eval" / "utility.csv").read_bytes()
    assert produced == (GOLDEN / "codes-utility.csv").read_bytes()
