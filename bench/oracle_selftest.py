"""Show that the oracle accepts real outputs and flags tampered ones.

Usage, from the root of a checkout: python3 bench/oracle_selftest.py

Runs a few cheap commands of each kind, checks that the oracle passes
their output, then alters one detail at a time (a number, a witness, a
DOT edge, a certificate count) and checks that each alteration is flagged.
Exits 1 if any verdict is wrong.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from arcmaps.cli import main as cli_main  # noqa: E402
from oracle import check  # noqa: E402
from workloads import build_inputs  # noqa: E402


def stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli_main(argv)
    return out.getvalue()


def repeat_first_element(stdout: str) -> str:
    """Reversing triple (x, y, z) -> (x, x, z), which generates a dihedral group."""
    lines = stdout.split("\n")
    i = next(i for i, ln in enumerate(lines) if ln.startswith("reversing triple: "))
    x, _, z = re.split(r"(?<=\)) (?=\()", lines[i].split(": ", 1)[1])
    lines[i] = f"reversing triple: {x} {x} {z}"
    return "\n".join(lines)


def main() -> int:
    wrong = 0
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        inputs = build_inputs("exhaustion", 7, Path(tmp))
        cases = [
            (["family", "C34", "--odd", "3..9"], lambda s: s.replace("-15", "-16", 1)),
            (["family", "C33", "--range", "2..8", "--format", "records"], lambda s: s.replace("true", "false", 1)),
            (["map", "C34", "5", "--dot"], lambda s: s.replace("  0 -- 5;\n", "", 1)),
            (["map", "C31", "7"], lambda s: s.replace("faces: 14", "faces: 15")),
            (["analyze", "@GL(2,3)"], lambda s: s.replace("regular triple: none", "regular triple: ()()()")),
            (["analyze", "@GL(2,3)"], repeat_first_element),
            (["analyze", "@GL(2,3)"], lambda s: s.replace("order 16, SD16", "order 16, Q16")),
            (["verify", "lemma-6.2", "--format", "records"], lambda s: s.replace('"examined": 2197', '"examined": 2196', 1)),
            (["verify", "lemma-6.3", "--format", "records"], lambda s: s.replace("(0 1 2 3 4 5 6 7 8)", "(0 3 6)(1 4 7)(2 5 8)")),
        ]
        for argv, tamper in cases:
            real = stdout_of([inputs[a[1:]] if a.startswith("@") else a for a in argv])
            fake = tamper(real)
            verdicts = (check(argv, real, inputs), check(argv, fake, inputs))
            ok = fake != real and not verdicts[0] and verdicts[1]
            wrong += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {' '.join(argv)}: real {verdicts[0] or 'passes'}, tampered {verdicts[1] or 'passes'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
