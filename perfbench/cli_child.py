"""Run one carleson-lab CLI call traced, from inside the process.

    python perfbench/cli_child.py OUT.json SUBCOMMAND [ARGS...]

Times the import of ``carleson_lab.cli`` and ``cli.main(argv)``, wraps the
library's public functions (see ``tracer.py``), writes both times and the
span totals to OUT.json and exits with the CLI's own exit code.  An exception
escaping ``main`` is re-raised after OUT.json is written, as the plain CLI
would.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import carleson_lab.cli as cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    sub = argv[0] if argv[0] != "seq" else f"seq-{argv[1]}"
    t0 = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"command": sub, "import_s": import_s, "main_s": main_s, "stats": tracer.to_json()}, fh)


if __name__ == "__main__":
    sys.exit(main())
