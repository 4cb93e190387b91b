"""Where the program under test lives, and importing it from there only.

The benchmark runs from the root of a source checkout and uses the package
in ``src/`` of that checkout, never an installed copy: a checkout without
the sources must fail rather than silently time something else.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Scratch space for configs, CSVs and spans; listed in .gitignore.
WORK = os.path.join(ROOT, ".bench_build", "cchlab")


class ProgramMissing(RuntimeError):
    """The checkout does not hold the cchlab sources."""


def import_cchlab():
    """Import ``cchlab`` from ``ROOT/src`` and return the package."""
    if not os.path.isfile(os.path.join(SRC, "cchlab", "__init__.py")):
        raise ProgramMissing(f"no cchlab sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import cchlab
    where = os.path.realpath(cchlab.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ProgramMissing(f"cchlab was imported from {where}, not from {SRC}")
    return cchlab
