"""Run one pbcert command with every patch point wrapped; save the spans.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- PBCERT_ARGS...

pbcert must be importable (the benchmark sets PYTHONPATH to src).  The
exit code is the command's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    from pbcert import cli

    recorder = spans.Recorder()
    patched = spans.install(recorder)
    code = cli.main(argv[2:])
    Path(argv[0]).write_text(json.dumps({
        "spans": recorder.spans,
        "alias_calls": recorder.alias_calls,
        "patched": patched,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
