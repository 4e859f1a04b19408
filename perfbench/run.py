#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve-default --seed 1 --seconds 40 --trace 0

Builds `shist` and the benchmark driver `pbench` from source with dune
(release profile, in `.bench_build/`), then runs one workload
and relays the driver's output.  The last line of stdout is the JSON
result.  Exits non-zero, printing no result, if the build or the run
fails.  Scratch files (checkpoints, sockets, server logs) live in
`perfbench/out/run-<pid>/` and are removed afterwards; every run appends
its row to `perfbench/out/results.jsonl`.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Workloads whose processes run SCHED_BATCH: a woken process waits for the
# running one to block or use up its slice instead of preempting it.  With
# a root and two leaves sharing the core with the driver, the default
# policy's wake-up preemption settled each run into one of two
# interleavings, at throughputs a third apart; batch scheduling takes the
# same turns on every run.  A single leaf keeps the default policy: there
# the driver's prompt wake-up on each ack is what puts the next ingest in
# the same server round as a waiting query (README.md, "What a run does").
BATCH_SCHEDULED = {"root-global": os.SCHED_BATCH}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def commit_id():
    """The git revision if this is a git checkout, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for f in sorted(filenames):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    with open(os.path.join(dirpath, f), "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def build():
    """Build shist and pbench (release profile); returns their paths, or None on failure."""
    if shutil.which("dune") is None:
        log("run.py: dune not found on PATH")
        return None
    build_dir = os.path.join(ROOT, ".bench_build", "dune-release")
    os.makedirs(os.path.dirname(build_dir), exist_ok=True)
    targets = ["bin/shist.exe", "perfbench/pbench.exe"]
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", build_dir] + targets
    try:
        # No shared dune cache: the build reads and writes inside the checkout.
        env = dict(os.environ, DUNE_CACHE="disabled")
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=840, env=env)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"run.py: build failed: {e}")
        return None
    if res.returncode != 0:
        log("run.py: build failed:\n" + res.stdout[-4000:])
        return None
    paths = [os.path.join(build_dir, "default", t) for t in targets]
    return paths if all(os.path.exists(p) for p in paths) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = time.time()
    built = build()
    if built is None:
        return 2
    shist, pbench = built
    log(f"run.py: build {time.time() - t0:.1f}s")

    out_dir = os.path.join(HERE, "out")
    # Unix socket paths are limited to ~108 bytes, so the driver gets a
    # directory relative to the checkout root (its working directory).
    run_dir = os.path.join("perfbench", "out", f"run-{os.getpid()}")
    os.makedirs(os.path.join(ROOT, run_dir), exist_ok=True)
    # The driver, the servers it launches and their domains all run on one
    # core (the host's last), so ingest_pps is the system's summed CPU cost
    # per point, and overlap between processes cannot show.  Servers on the
    # other core cost every request a cross-core wake-up, which made the
    # latencies spread far more (README.md, "What a run does").
    cores = sorted(os.sched_getaffinity(0))
    bench_cores = {cores[-1]}
    policy = BATCH_SCHEDULED.get(args.workload, os.SCHED_OTHER)

    def confine():
        os.sched_setaffinity(0, bench_cores)
        os.sched_setscheduler(0, policy, os.sched_param(0))

    cmd = [pbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--shist", shist, "--dir", run_dir,
           "--results", os.path.join(out_dir, "results.jsonl"),
           "--commit", commit_id(),
           "--host-cores", str(os.cpu_count() or len(cores))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=confine)
    lines = []
    timed_out = threading.Event()

    def on_timeout():
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(RUN_TIMEOUT_S, on_timeout)
    watchdog.start()
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            print(line, end="", flush=True)
        code = proc.wait()
        if timed_out.is_set():
            log("run.py: driver timed out")
            code = 124
    finally:
        watchdog.cancel()
        # The driver reaps its servers itself; this catches anything left
        # in its session after a crash or a timeout.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    if code != 0:
        log(f"run.py: driver exited with {code}")
        return code
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        log("run.py: driver printed no JSON result")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
