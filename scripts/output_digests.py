#!/usr/bin/env python3
"""Print a sha256 digest of every CLI output on the default grid.

Runs `permahank.cli.main` in-process, from the `src/` next to this script,
once per command, and prints one line per output: the sha256 of its stdout,
two spaces, and the argv.  A command that exits nonzero gets its exit code
appended.  Per shape and field the commands are `verify` as text and as
JSON (every "millis" entry removed, since it is wall-clock time),
`verify --check G` for each claim group G alone, `decompose`, `classify`,
`gb` under lex and deglex, and `colon` by x1, x2, xN, x1*x2, x2*xN^2 and
1 + x1, N the shape's number of variables.  A group run alone starts from
no basis that another group would have cached first.

    python3 scripts/output_digests.py > digests.txt
    python3 scripts/output_digests.py --grid 2x3,3x4

Run it in two checkouts and diff the files: an engine change that keeps
every output byte-identical gives no difference.  The full default grid in
both fields takes about half a minute on a 2-core machine.  Uses only the
standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from permahank.cli import _parse_grid, main  # noqa: E402
from permahank.verify import CHECK_NAMES, default_grid  # noqa: E402

CHARS = (0, 32003)


def commands(m, n, char):
    """The argv lists for one shape and field."""
    shape = ["--m", str(m), "--n", str(n), "--char", str(char)]
    last = f"x{m + n - 1}"
    grid = ["--grid", f"{m}x{n}", "--char", str(char)]
    out = [
        ["verify", *grid],
        ["verify", *grid, "--format", "json"],
        *(["verify", *grid, "--check", group] for group in CHECK_NAMES),
        ["decompose", *shape],
        ["classify", *shape],
        ["gb", *shape, "--order", "lex"],
        ["gb", *shape, "--order", "deglex"],
    ]
    for f in ("x1", "x2", last, "x1*x2", f"x2*{last}^2", "1 + x1"):
        out.append(["colon", f, *shape])
    return out


def digest(argv):
    """(sha256 of stdout, exit code) of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    text = buf.getvalue()
    if argv[0] == "verify" and "json" in argv:
        text = re.sub(r',\n *"millis": \d+', "", text)
    return hashlib.sha256(text.encode()).hexdigest(), rc


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--grid", type=_parse_grid, help="comma-separated shapes, default the default grid")
    args = ap.parse_args(argv)
    grid = args.grid or default_grid()
    for char in CHARS:
        for m, n in grid:
            for cmd in commands(m, n, char):
                h, rc = digest(cmd)
                line = f"{h}  {' '.join(cmd)}"
                print(line + (f"  (exit {rc})" if rc else ""), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
