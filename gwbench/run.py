#!/usr/bin/env python3
"""Build the gateway benchmark from source and run it pinned to one CPU.

Usage (from the repository root):

    python3 gwbench/run.py --workload <bulk_shm|rpc_shm|rpc_tcp|sim_paper> \
        --seed <n> --seconds <s> --trace <0|1> [--no-pin]

The benchmark binary prints human-readable lines and, as its last line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Cargo's own output goes to stderr. The build honours CARGO_TARGET_DIR.

The measured process is pinned to one CPU (the highest one this process
may use): cross-core wake-up placement was the largest source of
run-to-run spread, and one CPU measures the program's per-message CPU and
context-switch cost instead. `--no-pin` leaves placement to the
scheduler; it exists for the pinned-against-unpinned comparison in
NOTES.md. The runner refuses to run with MAD_ENGINE set, so every
measurement is of the library's default gateway engine.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    args = sys.argv[1:]
    pin = "--no-pin" not in args
    args = [a for a in args if a != "--no-pin"]
    if "MAD_ENGINE" in os.environ:
        print("run.py: MAD_ENGINE is set; unset it so the library default is measured",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    # Cargo resolves a relative CARGO_TARGET_DIR against its working
    # directory, which is this process's.
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    binary = os.path.join(target, "release", "gwbench")
    cpu = max(os.sched_getaffinity(0))
    preexec = (lambda: os.sched_setaffinity(0, {cpu})) if pin else None
    proc = subprocess.Popen([binary, *args, "--out", os.path.join(HERE, "out")],
                            preexec_fn=preexec)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
