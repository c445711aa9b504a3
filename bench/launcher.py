"""Run one `ramprimes` CLI command, optionally traced.

Usage: launcher.py TRACE_OUT CLI_ARGS...

TRACE_OUT "-" runs the command untraced. Otherwise the tracer wraps the
library and the command callbacks before `ramprimes.cli.main` runs, and the
spans go to TRACE_OUT when the command exits.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main():
    trace_out, sys.argv[1:] = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import ramprimes.cli as cli
    imported = time.perf_counter()
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"ramprimes imported from {cli.__file__}, not from {ROOT / 'src'}")
    if trace_out == "-":
        cli.main()
        return
    import tracer as tracing
    tracer = tracing.Tracer()
    tracer.record("cli.import", start, imported)
    tracer.install(tracing.resolve(tracing.LIBRARY_TARGETS) + tracing.cli_targets(cli.cli))
    try:
        with tracer.span("cli.main"):
            cli.main()
    finally:
        tracer.uninstall()
        Path(trace_out).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    main()
