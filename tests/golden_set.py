"""A fixed set of rankone commands whose stdout and exit code are kept
under tests/golden/, one file per command, so that an output change
shows as a diff of that directory.

    PYTHONPATH=src python tests/golden_set.py

rewrites every file from the code in the tree.  The commands run in
process, from the repository root, and their inputs are the JSON files
in tests/golden/.  A command with ``--out $OUT`` writes into a fresh
temporary directory, and its golden file also holds every file written
there, so the per-trial values that the summaries aggregate are pinned
too.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from rankone import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

BUMP, TRIG = "tests/golden/bump.json", "tests/golden/trig.json"
CASES = {
    "plan-trivial": "plan --r 5 --M 10 --d 5 --eps 0.1",
    "plan-subset": "plan --r 2 --M 5 --d 3 --eps 0.5",
    "plan-support-random": "plan --r 1 --M 2 --d 5 --eps 0.1 --V 0.3",
    "plan-support-deterministic": "plan --r 1 --M 2 --d 5 --eps 0.1 --V 0.3 --deterministic",
    "plan-intractable": "plan --r 1 --M 2 --d 5 --eps 0.1 --p 0.25",
    "search-det": f"search --config {BUMP} --strategy det --n1 100",
    "search-multi": f"search --config {BUMP} --strategy multi --n1 100 --seed 2",
    "search-subset": f"search --config {BUMP} --strategy subset --n1 100 --eps 0.2",
    "recover-trig": f"recover --config {TRIG} --z 0.3,0.6,0.2 --budget 61",
    "approx-shifted-smooth": "approx --config tests/golden/shifted_smooth.json",
    "approx-trig-smooth": "approx --config tests/golden/trig_smooth.json",
    "approx-shifted-smooth-out": "approx --config tests/golden/shifted_smooth.json --out $OUT",
    "dispersion-halton": "dispersion --generator halton --n 100 --d 2",
    "dispersion-uniform-d3": "dispersion --generator uniform --n 60 --d 3 --seed 1",
    "dispersion-estimate": "dispersion --estimate --n 50 --d 3",
    "adversary-ran": "adversary --mode ran --d 10 --n 512 --trials 300 "
                     "--strategy uniform-recover --seed 4",
    "adversary-ran-out": "adversary --mode ran --d 10 --n 512 --trials 300 "
                         "--strategy uniform-recover --seed 4 --out $OUT",
    "adversary-det-zero": "adversary --mode det --d 4 --n 15 --strategy zero",
    "adversary-det-halton-scan": "adversary --mode det --d 4 --n 15 --strategy halton-scan",
    "adversary-det-uniform-recover": "adversary --mode det --d 4 --n 15 "
                                     "--strategy uniform-recover",
    # the first Halton point, (1/2, 1/3, 1/5, ...), reads 0 on every member
    "adversary-det-halton-scan-d1": "adversary --mode det --d 1 --n 1 --strategy halton-scan",
    "adversary-det-halton-scan-d3": "adversary --mode det --d 3 --n 7 --strategy halton-scan",
    "adversary-det-too-many-queries": "adversary --mode det --d 2 --n 4",
    "curves": "curves",
}


def render(command: str) -> str:
    """'$ rankone <command>', 'exit <code>' and the command's stdout, run
    in process from the repository root; an uncaught exception reads as
    exit 1, as a traceback would.  $OUT in the command names a temporary
    directory: each file written there follows, as '--- $OUT/<name>' and
    its bytes, and $OUT stands for the directory's path in the stdout."""
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(command.replace("$OUT", out).split())
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = 1
        text = f"$ rankone {command}\nexit {code}\n{stdout.getvalue().replace(out, '$OUT')}"
        for path in sorted(Path(out).iterdir()):
            text += f"--- $OUT/{path.name}\n{path.read_bytes().decode()}"
    return text


def main():
    os.chdir(ROOT)
    for name, command in CASES.items():
        (GOLDEN / f"{name}.txt").write_bytes(render(command).encode())
        print(f"wrote tests/golden/{name}.txt")


if __name__ == "__main__":
    sys.exit(main())
