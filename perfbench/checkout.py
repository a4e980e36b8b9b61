"""Locate the program's source tree and import it from there.

The benchmark runs from the root of a source checkout.  It puts that
checkout's ``src`` directory first on ``sys.path`` and refuses to run when the
tree is missing or when ``matchleak`` would be imported from anywhere else,
such as an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def load() -> None:
    """Import matchleak from ``<checkout>/src``; exit with status 2 otherwise."""
    package = SRC / "matchleak"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {package}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import matchleak

    if Path(matchleak.__file__).resolve().parent != package.resolve():
        sys.stderr.write(f"perfbench: matchleak was imported from {matchleak.__file__}, not {package}\n")
        raise SystemExit(2)
