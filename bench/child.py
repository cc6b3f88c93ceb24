"""Child-process entry of the benchmark.

``child.py --probe`` imports ``tauspec.cli`` and prints, as JSON, the
file it was imported from and how long the import took.

``child.py --spans PATH -- ARGS...`` runs ``tauspec.cli.main(ARGS)``
under the tracer, with the import as its own span, and writes the spans
to PATH.  It exits with the command's exit code.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))


def _under_src(module) -> bool:
    return Path(module.__file__).resolve().is_relative_to(SRC.resolve())


def main(argv) -> int:
    if argv[:1] == ["--probe"]:
        t0 = time.perf_counter()
        import tauspec
        import tauspec.cli  # noqa: F401

        import_s = time.perf_counter() - t0
        print(json.dumps({"file": tauspec.__file__, "import_s": import_s}))
        return 0 if _under_src(tauspec) else 70

    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: child.py --probe | child.py --spans PATH -- ARGS...", file=sys.stderr)
        return 64
    from spans import Tracer

    tracer = Tracer()
    index = tracer.open("import", "cli")
    import tauspec
    import tauspec.cli

    tracer.close(index)
    if not _under_src(tauspec):
        print(f"tauspec imported from {tauspec.__file__}, not {SRC}", file=sys.stderr)
        return 70
    tracer.install()
    try:
        rc = tauspec.cli.main(argv[3:])
    except SystemExit as exc:  # argparse exits for --help and usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
        tracer.dump(argv[1])
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
