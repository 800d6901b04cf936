"""Run one kdvfreq command with the per-layer wrappers installed.

    python3 perfbench/clilaunch.py SPANS.json <kdvfreq arguments...>

Calls ``kdvfreq.cli.main(argv)`` in this fresh process inside a ``cli.main``
span, then writes the process's spans to SPANS.json and exits with the
command's exit code.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kdvfreq.cli  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.install()
    span = rec.begin("cli.main", command=argv[0])
    try:
        return kdvfreq.cli.main(argv)
    finally:
        rec.end(span)
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(rec.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
