"""Entry point the driver calls: ``python3 benchmarks/e2e/run.py ...``.

Puts the checkout root (for ``benchmarks.e2e``) and ``src`` (for the
program under test, ``repro``) on ``sys.path``, then hands over to
:func:`benchmarks.e2e.cli.main`.  Import-safe: spawned worker processes
re-import this file as their main module.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    from benchmarks.e2e.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
