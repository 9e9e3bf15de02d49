"""Mutation check of the privacy mechanism against the non-golden tests.

Each mutant is a small edit to the noise path, the weight clipping or the
accountant.  For each one this script copies ``src/``, ``tests/``,
``demos/`` (which ``test_demos.py`` reads) and ``pyproject.toml`` to a
temporary directory, applies the edit there, and runs every test under
``tests/`` except ``test_golden.py`` and ``test_acceptance.py``.  A mutant
is killed when some test fails.  The unedited copy runs first and must
pass, or nothing the mutants show means anything.

The goldens pin the mechanism's bits and fail on most of these edits, so
they are left out: the point is that the mechanism stays guarded when a
change regenerates them.

Run from anywhere (about two minutes on two cores):

    python tests/mutants.py

Prints one line per mutant and exits 1 unless every mutant is killed.
pytest does not collect this file.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "pyproject.toml")
TRAIN = "src/imdp/train.py"
PRIVACY = "src/imdp/privacy.py"

_SCALED_NOISE = """\
            runs = self.store.runs(names)
            for run in runs:
                np.multiply(run.grads, root_m, out=run.grads)
            privacy.perturb_gradient(self.store, self.spec.sigma, self.spec.c_p,
                                     self.noise_rng, names)
"""
_NOISE_FIRST = """\
            runs = self.store.runs(names)
            privacy.perturb_gradient(self.store, self.spec.sigma, self.spec.c_p,
                                     self.noise_rng, names)
            for run in runs:
                np.multiply(run.grads, root_m, out=run.grads)
"""

# (name, file, text, replacement); the text must occur exactly once
MUTANTS = (
    ("critic_step scales by m, not sqrt(m)", TRAIN,
     "root_m = float(np.sqrt(cfg.batch))", "root_m = float(cfg.batch)"),
    ("noise skips names starting dis.h", TRAIN,
     "self.noise_rng, names)",
     'self.noise_rng, [n for n in names if not n.startswith("dis.h")])'),
    ("noise skips dis.h0", TRAIN,
     "self.noise_rng, names)",
     'self.noise_rng, [n for n in names if not n.startswith("dis.h0.")])'),
    ("accountant records 1 step per iteration, not n_d", TRAIN,
     "accumulate(self.accountant, cfg.n_d)", "accumulate(self.accountant, 1)"),
    ("noise added before the sqrt(m) scaling", TRAIN, _SCALED_NOISE, _NOISE_FIRST),
    ("noise std sigma", PRIVACY, "std = sigma * c_p", "std = sigma"),
    ("noise std sigma c_p / 10", PRIVACY, "std = sigma * c_p", "std = sigma * c_p / 10"),
    ("critic step does not clip", TRAIN,
     "privacy.clip_weights(self.store, self.spec.c_p, names)", "pass"),
    ("generator step does not clip the critic path", TRAIN,
     "privacy.clip_weights(self.store, self.spec.c_p, self.critic_path)", "pass"),
    ("q = m / (2N)", TRAIN,
     "q=config.batch / data.n", "q=config.batch / (2 * data.n)"),
    ("calibration formula drops sqrt(n_d)", PRIVACY,
     "math.sqrt(n_d * math.log(1.0 / delta))", "math.sqrt(math.log(1.0 / delta))"),
    ("spent epsilon divides by lambda + 1", PRIVACY,
     "/ _ORDERS))", "/ (_ORDERS + 1)))"),
)


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def apply(dest: Path, path: str, text: str, replacement: str) -> None:
    target = dest / path
    source = target.read_text()
    if source.count(text) != 1:
        raise SystemExit(f"{path}: expected one occurrence of {text!r}, "
                         f"found {source.count(text)}; the mutant is stale")
    target.write_text(source.replace(text, replacement))


def run_tests(dest: Path) -> tuple[int, str]:
    """pytest's exit code on the copy, and the first failing test's id."""
    env = {**os.environ, "PYTHONPATH": str(dest / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests",
         "--ignore=tests/test_golden.py", "--ignore=tests/test_acceptance.py"],
        cwd=dest, env=env, capture_output=True, text=True)
    failed = next((line.split()[1] for line in proc.stdout.splitlines()
                   if line.startswith("FAILED ")), "")
    return proc.returncode, failed


def check(path: str | None, text: str = "", replacement: str = "") -> tuple[int, str]:
    with tempfile.TemporaryDirectory(prefix="imdp-mutant-") as tmp:
        dest = Path(tmp)
        copy_tree(dest)
        if path is not None:
            apply(dest, path, text, replacement)
        return run_tests(dest)


def main() -> int:
    code, failed = check(None)
    if code != 0:
        print(f"the unedited copy does not pass: pytest exit {code} {failed}")
        return 1
    killed = 0
    width = max(len(name) for name, *_ in MUTANTS)
    print(f"{'mutant':<{width}}  result    first failing test")
    for name, path, text, replacement in MUTANTS:
        code, failed = check(path, text, replacement)
        result = {0: "survived", 1: "killed"}.get(code, f"error {code}")
        killed += code == 1
        print(f"{name:<{width}}  {result:<8}  {failed}", flush=True)
    print(f"{killed}/{len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
