"""Run one footcloak CLI command in-process with every layer wrapped.

Usage: python3 perfbench/traced.py SPANS.json <footcloak arguments...>

Times `import footcloak.cli`, installs the span recorder from spanrec.py,
calls `footcloak.cli.main` under a root span named "cli", and writes the
import time, the wall time of `main` and all spans to SPANS.json. Exits
with the command's exit code. `footcloak` must be importable (PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import footcloak.cli as cli

    import_s = perf_counter() - t0

    import spanrec

    rec = spanrec.Recorder()
    spanrec.install(rec)
    t0 = perf_counter()
    rc = rec.wrap("cli", cli.main)(argv)  # the root span
    wall_s = perf_counter() - t0
    with open(spans_path, "w") as fh:
        json.dump({"argv": argv, "import_s": import_s, "wall_s": wall_s, "spans": rec.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
