"""Run one ``mmcsim`` command, as the ``mmcsim`` console script does.

    python3 child.py [--trace-out PATH] <mmcsim arguments>

With ``--trace-out`` the layer functions are wrapped first (see
``spans.py``) and the folded spans are written to PATH as JSON when the
command ends.  ``mmcsim`` must be importable (``PYTHONPATH=src``).
"""

import json
import sys


def main(argv: list[str]) -> int:
    if argv[:1] != ["--trace-out"]:
        from mmcsim.cli import main as cli_main

        return cli_main(argv)

    from spans import Tracer

    trace_out, argv = argv[1], argv[2:]
    tracer = Tracer().install()
    from mmcsim.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        with open(trace_out, "w") as f:
            json.dump(tracer.summary(), f)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
