"""Fresh-interpreter entry points used by run.py.

    python3 perfbench/child.py setup <workload> <out_dir>
        import tauberlab and complete the workload's set-up operation.
    python3 perfbench/child.py cli <spans.jsonl> <tauberlab arguments...>
        run the tauberlab CLI under the tracer and write its spans; stdout,
        stderr, files and the exit code are the CLI's own.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import workloads

        workloads.setup_op(argv[1], Path(argv[2]))
        return 0
    if mode == "cli":
        from tracer import Tracer, dump_spans
        from tauberlab import cli

        tracer = Tracer()
        tracer.install()
        tracer.begin_op(0)
        sys.argv = ["tauberlab", *argv[2:]]
        main_span = tracer.span("cli.main", cli.main)
        code = 0
        try:
            main_span()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            tracer.uninstall()
            dump_spans(tracer.spans, argv[1])
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
