"""One benchmark child process; run_bench.py spawns it, one at a time.

    child.py cli TRACE ARGS...   run ``cchlab ARGS...`` through cchlab.cli.main;
                                 TRACE is a spans file to write, or "-"
    child.py setup CONFIG        set-up phase only: import, parse and validate
                                 the config, build the grid and initial data;
                                 prints the CLOCK_MONOTONIC time it finished
    child.py import              prints the seconds a fresh `import cchlab` takes
    child.py micro               prints per-layer unit costs as JSON
"""

from __future__ import annotations

import json
import sys
import time


def _setup(config_path: str) -> None:
    from program import import_cchlab
    cchlab = import_cchlab()
    with open(config_path, encoding="utf-8") as handle:
        cfg = cchlab.parse_config(handle.read())
    if cfg.kind == "peakon":
        lists = (cchlab.config.parse_float_list(text)
                 for text in (cfg.q, cfg.m_amps, cfg.r, cfg.n_amps))
        cchlab.PeakonState(0.0, *lists)
    else:
        cchlab.build_initial_condition(cfg, cchlab.build_grid(cfg))
    print(repr(time.monotonic()))


def _cli(trace_path: str, argv: list[str]) -> int:
    from program import import_cchlab
    import_cchlab()
    import cchlab.cli
    tracer = None
    if trace_path != "-":
        from spans import Tracer
        tracer = Tracer()
        tracer.install(sys.modules)
    try:
        return cchlab.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return _cli(rest[0], rest[1:])
    if mode == "setup":
        _setup(rest[0])
        return 0
    if mode == "import":
        start = time.monotonic()
        from program import import_cchlab
        import_cchlab()
        print(repr(time.monotonic() - start))
        return 0
    if mode == "micro":
        from program import import_cchlab
        from micro import measure
        print(json.dumps(measure(import_cchlab())))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
