"""Run the abelianperiods CLI under the speed probe, for calibrated CLI timings.

    python perfbench/cli_child.py FD periods --file WORD [options]

with ``src/`` on PYTHONPATH. It calls ``abelianperiods.cli.main`` with the
remaining arguments, exactly as the installed ``abelianperiods`` script does,
while :class:`measure.SpeedProbe` samples the child's own speed. At exit it
writes the probe's total time, its sample count and the child's peak RSS in
MiB to file descriptor FD, and passes the CLI's exit code through.
"""

from __future__ import annotations

import os
import sys

from measure import SpeedProbe, peak_rss_mb


def main() -> int:
    fd = int(sys.argv[1])
    with SpeedProbe() as probe:
        from abelianperiods.cli import main as cli_main

        try:
            code = cli_main(sys.argv[2:])
        except SystemExit as exc:
            code = exc.code
        sys.stdout.flush()
    os.write(fd, f"{probe.spent!r} {probe.samples} {peak_rss_mb()!r}\n".encode())
    os.close(fd)
    return code


if __name__ == "__main__":
    sys.exit(main())
