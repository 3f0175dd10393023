"""``repro twin serve`` with the bench tracer installed.

``python -m bench.twin_serve SPANS_JSON [twin serve flags]`` serves
exactly as ``python -m repro twin serve`` does and, once the server has
shut down (SIGINT, exit code 130), writes the tracer report to
``SPANS_JSON``.
"""

import json
import sys
from pathlib import Path

from .child import use_src
from .trace import Tracer


def main() -> int:
    spans = Path(sys.argv[1])
    use_src()
    tracer = Tracer().install()
    from repro.cli import main as repro_main
    code = repro_main(["twin", "serve", *sys.argv[2:]])
    spans.write_text(json.dumps(tracer.report()))
    return code


if __name__ == "__main__":
    sys.exit(main())
