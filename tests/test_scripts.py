"""Smoke runs of the scripts under ``scripts/``, each as its own process.

The scripts import the package's modules and the benchmark's pool builders
by name, so a renamed kernel function breaks them only when they run; these
runs make that a test failure.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_pool_digest_runs_every_call():
    proc = _run("scripts/pool_digest.py", "decide", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    for line in lines:
        assert " rc=3 " not in line and " error=" not in line, line


def test_pool_digest_stops_quietly_when_its_reader_closes():
    # `pool_digest.py decide 1 | head -1`: a truncated digest is no crash
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen(
        [sys.executable, "scripts/pool_digest.py", "decide", "1"], cwd=ROOT,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.wait(timeout=300)
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr


def test_random_suite_has_no_failures():
    proc = _run("scripts/random_suite.py", "--suite-size", "2", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])["summary"]
    assert summary["failures"] == 0
