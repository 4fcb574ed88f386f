#!/usr/bin/env python3
"""Voluntary context switches per operation for one benchmark workload.

usage: hop_counts.py WORKLOAD [--seed N] [--seconds S] [--max SWITCHES_PER_OP]

Runs the built ledger binary (benchmark/target/release/scalla-benchmark,
untraced) for one workload, reads `attempted` from its last stdout line and
`ru_nvcsw` from getrusage(RUSAGE_CHILDREN), and prints their ratio. Beside it,
from the same getrusage, it prints user and system CPU microseconds per op
and minor page faults per op: where a saving that is not a hop lands (a
copy taken out of the receive path shows in user time and faults, not in
switches). Every
thread wake-up on a hop is one voluntary switch — today a hop is one wake-up,
the socket reader, which runs the node and writes its replies; a mailbox hop
to the protocol thread or a hand-off to an egress writer would each add one —
so this is a count of hand-offs, not a time: it moves when the transport's
shape moves, or when a workload's protocol takes more or fewer hops per op
(a proxy's origin round trips on proxy_cold, redirects on warm_open, the
client's Close riding behind its last request so that two frames cost one
wake-up), and hardly at all with the host's load. CI gates warm_open
(~8.7), proxy_warm (~4.3) and proxy_cold (~18.1).
The ratio includes cluster set-up and the untimed warm phase of each
repetition, the same on every commit. With --max, exits 1 when switches per
op are above the bound; the CPU and fault figures are reported, not gated.
"""
import argparse
import json
import os
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY = os.path.join(ROOT, "benchmark", "target", "release", "scalla-benchmark")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--seed", default="20120521")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--max", type=float, help="fail when switches per op exceed this")
    args = ap.parse_args()

    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", "0"]
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    switches = usage.ru_nvcsw
    last = json.loads(run.stdout.strip().splitlines()[-1])
    if not last["correct"] or last["failed"]:
        sys.exit(f"hop_counts: {args.workload} did not validate: {last}")
    ops = last["attempted"]
    per_op = switches / ops
    print(f"{args.workload}: {switches} voluntary context switches / "
          f"{ops} ops = {per_op:.1f} per op; "
          f"user {usage.ru_utime * 1e6 / ops:.1f} us, sys {usage.ru_stime * 1e6 / ops:.1f} us, "
          f"{usage.ru_minflt / ops:.1f} minor faults per op")
    if args.max is not None and per_op > args.max:
        sys.exit(f"hop_counts: {per_op:.1f} switches per op is above the bound {args.max:g}")


if __name__ == "__main__":
    main()
