"""Run one `arrdepth` CLI command with the benchmark's span wrappers installed.

    python3 bench/cli_launcher.py SPANS.json -- <arrdepth arguments>

The whole command is one request; its spans are written to SPANS.json and
the exit code is the CLI's own.
"""

import json
import sys


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: cli_launcher.py SPANS.json -- <arrdepth arguments>", file=sys.stderr)
        return 1
    import arrdepth.cli

    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.request = 0
    try:
        return arrdepth.cli.main(sys.argv[3:])
    finally:
        tracer.request = None
        with open(sys.argv[1], "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
