"""Record the CLI byte-identity file ``cli_golden.json``.

    PYTHONPATH=src python tests/record_cli_golden.py

It draws the ``cli-cold`` benchmark cases of seeds 1-3 (the argument
lists of ``perfbench/wl_cli_cold.py``), keeps each distinct argument list
once in first-drawn order, runs it in-process through ``cli.main`` in
JSON and in ``--format text``, and writes the exit code and the sha256
of stdout of each run.  ``test_cli.test_cli_cold_argument_lists_are_byte_identical``
replays the file.  Re-record only for a planned output change, and list
what changed.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "cli_golden.json"
SEEDS = (1, 2, 3)


def run(argv: list[str]) -> list:
    """[exit code, sha256 of stdout] of one in-process ``cli.main`` run."""
    from nullgrid.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def argument_lists() -> list[list[str]]:
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    from workloads import specs

    seen = {}
    for seed in SEEDS:
        for spec in specs("cli-cold", seed, "full"):
            seen.setdefault(tuple(spec["argv"]), spec["argv"])
    return list(seen.values())


def main() -> None:
    rows = [{"argv": argv, "json": run(argv), "text": run(["--format", "text", *argv])}
            for argv in argument_lists()]
    DIGESTS.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")
    print(f"{len(rows)} argument lists written to {DIGESTS}")


if __name__ == "__main__":
    main()
