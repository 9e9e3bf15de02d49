import os

import numpy as np
import pytest

from imdp import artifacts
from imdp.cli import _write
from imdp.evaluation import SweepGrid
from imdp.nets import NetConfig, build_critic, build_generator, save_checkpoint
from imdp.latent import LatentSpec
from imdp.privacy import PrivacySpec


class DiskFull(OSError):
    pass


def _failing_open(path, mode):
    """A file whose first write lands half its bytes, then fails."""
    f = open(path, mode)

    class Half:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            f.close()

        def write(self, data):
            f.write(data[:len(data) // 2])
            f.flush()
            raise DiskFull("no space left on device")

    return Half()


def _checkpoint(path):
    cfg = NetConfig(latent=LatentSpec(z_dim=2, categorical=(3,)), data_dim=4,
                    gen_hidden=(4,), trunk_hidden=(4,))
    save_checkpoint(path, build_generator(cfg), build_critic(cfg),
                    PrivacySpec.calibrated(2.2, 1e-5, 0.01, 0.1, 5))


def _text(path):
    _write(str(path), "iteration critic_loss\n1 0.5\n")


def _pgm(path):
    grid = SweepGrid(values=np.zeros((2, 2, 4)), cont_values=np.zeros(2))
    grid.to_pgm(path, img_side=2)


WRITERS = [_checkpoint, _text, _pgm]


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_leaves_no_target_and_no_temp(tmp_path, monkeypatch, writer):
    monkeypatch.setattr(artifacts, "open", _failing_open, raising=False)
    with pytest.raises(DiskFull):
        writer(tmp_path / "artifact")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_rewrite_keeps_the_old_file(tmp_path, monkeypatch, writer):
    target = tmp_path / "artifact"
    writer(target)
    before = target.read_bytes()
    monkeypatch.setattr(artifacts, "open", _failing_open, raising=False)
    with pytest.raises(DiskFull):
        writer(target)
    assert os.listdir(tmp_path) == ["artifact"]
    assert target.read_bytes() == before


def test_replace_failure_removes_temp(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(dst)

    monkeypatch.setattr(artifacts.os, "replace", refuse)
    with pytest.raises(PermissionError):
        artifacts.write_atomic(tmp_path / "out.bin", b"payload")
    assert os.listdir(tmp_path) == []
