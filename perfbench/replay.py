"""Replay solver: answers a holesat CNF with a model prepared in advance.

Usage: python3 replay.py MODELS_DIR CNF

Reads the ``c holesat instance <key>`` comment at the top of CNF and prints
``MODELS_DIR/<key>.model`` (competition output: ``s SATISFIABLE`` and
``v ... 0`` lines), exiting 10 as SAT solvers do. Without a model for the
key it prints ``s UNKNOWN`` and exits 0, which holesat reports as an
infrastructure failure. Only the header of the CNF is read, so the time a
solve takes is the time to spawn this process and print the model.
"""

from __future__ import annotations

import sys
from pathlib import Path

SAT_EXIT = 10


def instance_key(cnf_path: str) -> str | None:
    with open(cnf_path) as f:
        for line in f:
            if line.startswith("c holesat instance "):
                return line.split()[3]
            if not line.startswith("c"):
                return None
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: replay.py MODELS_DIR CNF", file=sys.stderr)
        return 2
    models, cnf = argv
    key = instance_key(cnf)
    model = Path(models) / f"{key}.model" if key else None
    if model is None or not model.is_file():
        print(f"c no recorded model for instance {key}")
        print("s UNKNOWN")
        return 0
    sys.stdout.write(model.read_text())
    return SAT_EXIT


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
