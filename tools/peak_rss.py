"""Peak resident memory of `cchlab run`, one child process per config.

    python3 tools/peak_rss.py SRC_TREE CONFIG...

runs ``python -m cchlab.cli run CONFIG`` for each CONFIG in turn, importing
cchlab from ``SRC_TREE/src``, in the current directory (a relative ``out``
path in a config is written there).  Each child is started by this small
process and reaped with ``os.wait4``; one line per config gives its exit
code and the child's peak resident set size:

    CONFIG  exit 0  peak_rss_mb 33.7

On Linux a child's ``ru_maxrss`` includes the high-water mark of the process
that started it, carried across ``exec``.  This launcher imports nothing
beyond the standard library, so that floor is a few MB, and the figure is the
run's own memory rather than that of a large parent process, such as a
benchmark harness that has loaded its outputs.  The children's stdout
goes to this process's stderr, so stdout holds only the measurement lines.
Exits 1 when a child exits non-zero and 2 on bad arguments.
"""

from __future__ import annotations

import os
import sys


def peak_rss(src_tree: str, config: str) -> tuple[int, float]:
    """(exit code, peak RSS in MB) of one ``cchlab run CONFIG`` child."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(src_tree), "src"))
    argv = [sys.executable, "-m", "cchlab.cli", "run", config]
    pid = os.posix_spawn(sys.executable, argv, env,
                         file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0  # KiB on Linux


def main(argv: list[str]) -> int:
    if len(argv) < 2 or not os.path.isfile(os.path.join(argv[0], "src", "cchlab",
                                                        "__init__.py")):
        print("usage: python3 tools/peak_rss.py SRC_TREE CONFIG... "
              "(SRC_TREE holds src/cchlab)", file=sys.stderr)
        return 2
    failed = False
    for config in argv[1:]:
        code, mb = peak_rss(argv[0], config)
        print(f"{config}  exit {code}  peak_rss_mb {mb:.1f}", flush=True)
        failed = failed or code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
