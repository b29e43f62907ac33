"""Print what every CLI call of a benchmark workload's pool answers.

    python3 scripts/pool_digest.py WORKLOAD SEED

The pool is built exactly as ``perfbench/run.py`` builds it
(``perfbench/workloads.py``, imported, with the same seeded generator), in a
temporary directory removed afterwards; every call of every operation,
untimed post calls included, then runs in this process through the
benchmark's own ``run_call``.  Each call prints one line: the operation
label, the call kind, the exit code, a sha256 over the files the call writes
(``-`` when it writes none) and the call's stdout, with the working
directory replaced by ``$WORK`` so that two runs print the same bytes.
Comparing two commits is then a ``diff`` of two runs.  The exit status is 1
when any call crashed (exit 3 or an uncaught exception).  A reader that
closes early (``| head``) stops the run quietly with status 141, as SIGPIPE
would.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import polyext.cli  # noqa: E402
from run import run_call  # noqa: E402
from workloads import WORKLOADS, Files  # noqa: E402


def _digest(paths) -> str:
    if not paths:
        return "-"
    h = hashlib.sha256()
    for p in paths:
        if not os.path.exists(p):
            h.update(b"\0missing\0")
            continue
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_pool(workload: str, seed: int, workdir: str, out) -> int:
    """Run every call of the pool; return how many exited 3 (a crash)."""
    pool, _ = WORKLOADS[workload].build(random.Random(seed), Files(workdir))
    crashes = 0
    for op in pool:
        for call in op.calls + op.post:
            with contextlib.redirect_stderr(io.StringIO()):
                _, rc, stdout, error = run_call(polyext.cli, call)
            crashes += rc == 3 or error is not None
            text = stdout.replace(workdir, "$WORK").rstrip("\n")
            if error is not None:
                text += f" error={error}"
            out.write(f"{op.label} {call.kind} rc={rc} "
                      f"sha256={_digest(call.writes)} {text}\n")
    return crashes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        return 1 if run_pool(args.workload, args.seed, tmp, sys.stdout) else 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's last flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)
