"""Print the sha256 of every file the nine demos and the ``rl`` commands
write, for a few seeds.

Usage: ``PYTHONPATH=src python tools/demo_digest.py SEED...``

Each demo runs through ``demos.run_demo`` at 3 epochs into a temporary
directory. A default exists schedule given as breakpoints, such as
smokers' and clustering's, is compressed to ``((0, p_first), (2,
p_last))``, so that the short run crosses a schedule boundary. Then,
per seed, the command line runs in-process: ``rl train --kb smokers.rl
--epochs 3 --config <file>`` with a config file that sets one
optimizer key and one operator key, ``rl query --params`` on the
trained parameters (a closed formula with ``--forall-p`` and an open
one), and ``rl refute --kb refute.rl --epochs 50``. The config file
(``train.cfg``) and the stdout of train, query and refute
(``train.txt``, with the output directory shown as ``<out>``,
``query.txt`` and ``refute.txt``) are saved beside the files ``rl
train`` wrote, so the final Sat and the theory's declared queries that
``rl train`` prints are pinned too. The
output is one ``<sha256>  <seed>/<demo or cli>/<file>`` line per file
(metrics, parameters, artifact CSVs and command output), sorted by
path. Two checkouts that print the same lines behave the same on these
runs.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from reallogic import cli, demos

CLI_CONFIG = "lr = 0.01\nand = luk\n"


def _rl(*argv) -> str:
    """Run one ``rl`` command in-process and return its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"rl {' '.join(map(str, argv))} exited {rc}")
    return buf.getvalue()


def run_cli(seed: int, out: Path) -> None:
    out.mkdir(parents=True)
    config = out / "train.cfg"
    config.write_text(CLI_CONFIG)
    smokers = demos.theory_path("smokers")
    trained = _rl("train", "--kb", smokers, "--seed", seed, "--epochs", 3,
                  "--config", config, "--out", out)
    (out / "train.txt").write_text(trained.replace(str(out), "<out>"))
    query = ["query", "--kb", smokers, "--seed", seed,
             "--params", out / "params.bin", "--formula"]
    (out / "query.txt").write_text(
        _rl(*query, "forall x: (C(x) -> S(x))", "--forall-p", 5)
        + _rl(*query, "S(x)"))
    (out / "refute.txt").write_text(
        _rl("refute", "--kb", demos.theory_path("refute"), "--formula", "A",
            "--seed", seed, "--epochs", 50))


def short_train(demo: str, seed: int):
    """The demo's default training settings at 3 epochs, with a
    breakpoint schedule moved to a boundary at epoch 2."""
    train = replace(demos.default_train(demo, seed), epochs=3)
    sched = train.exists_schedule
    if sched:
        train = replace(train, exists_schedule=((0, sched[0][1]),
                                                (2, sched[-1][1])))
    return train


def digests(seeds) -> list:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for demo in demos.DEMO_IDS:
                demos.run_demo(demo, seed, short_train(demo, seed),
                               out=Path(tmp, str(seed), demo))
            run_cli(seed, Path(tmp, str(seed), "cli"))
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {path.relative_to(tmp)}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: demo_digest.py SEED...")
    print("\n".join(digests([int(s) for s in sys.argv[1:]])))
