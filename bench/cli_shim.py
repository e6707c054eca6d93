"""``python -m qinv`` with the span recorder installed (the traced cli run).

Usage: python3 bench/cli_shim.py SPANS_DIR QINV_ARGS...

Imports qinv inside an ``import.qinv`` span, wraps its modules' functions,
runs ``qinv.cli.main`` on the remaining arguments and writes this process's
spans to a new file in SPANS_DIR when main returns. The exit code is main's.
"""
import importlib
import os
import sys

import tracing


def main() -> int:
    spans_dir, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    cli = rec.span("import.qinv", importlib.import_module, "qinv.cli")
    rec.install()
    try:
        return cli.main(argv)
    finally:
        rec.uninstall()
        rec.dump(os.path.join(spans_dir, f"{os.getpid()}-{len(os.listdir(spans_dir))}.jsonl"))


if __name__ == "__main__":
    sys.exit(main())
