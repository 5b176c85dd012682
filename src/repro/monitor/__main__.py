"""``python -m repro.monitor`` -- run or audit the safety monitor.

Subcommands:

* ``serve`` -- listen for node trace streams and check them live (what
  :class:`repro.net.procs.LocalCluster` spawns with ``monitor=True``).
  Exits 1 if a violation was detected by shutdown time, so a wrapper
  script can gate on the verdict.
* ``check`` -- replay a written violation bundle offline, of either
  kind (:func:`repro.obs.bundle.verdict_matches`).  Exit 0 means the
  bundle's violation is real and replayable; exit 1 means the replay
  reached another verdict or none, or the bundle cannot be replayed
  (another version, or a monitor journal that hit its cap).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from ..net.procs import add_config_flags, config_from, log_to_stdout
from ..obs.bundle import load_bundle, verdict_matches
from .service import MonitorConfig, run_monitor


def _cmd_serve(args: argparse.Namespace) -> int:
    log_to_stdout(args.verbose)
    monitor = run_monitor(config_from(MonitorConfig, args))
    stats = monitor.engine.stats()
    print(f"monitor: {stats}")
    if monitor.verdict is not None:
        print(
            f"monitor: VIOLATION at event #{monitor.verdict.event_index}: "
            f"{monitor.verdict.described}"
        )
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        bundle = load_bundle(args.bundle)
        matches = verdict_matches(bundle)
    except ValueError as error:  # another version, or a truncated journal
        print(f"check: {error}", file=sys.stderr)
        return 1
    if not matches:
        print("check: the replay does NOT reach the recorded verdict",
              file=sys.stderr)
        return 1
    print(f"check: the replay reaches the {bundle.kind} bundle's "
          f"recorded verdict")
    print(json.dumps(bundle.verdict, indent=2, sort_keys=True))
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.monitor")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the live safety monitor")
    add_config_flags(serve, MonitorConfig)
    serve.add_argument("--verbose", action="store_true")
    serve.set_defaults(func=_cmd_serve)

    check = sub.add_parser("check", help="replay and audit a bundle")
    check.add_argument("bundle", help="path to a bundle directory")
    check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
