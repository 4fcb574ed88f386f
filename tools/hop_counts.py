#!/usr/bin/env python3
"""Voluntary context switches and loopback packets per operation for one benchmark workload.

usage: hop_counts.py WORKLOAD [--seed N] [--seconds S] [--max SWITCHES_PER_OP]
                     [--max-packets PACKETS_PER_OP]

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
Beside the switches it prints loopback packets per op: the `lo` receive
packet count from /proc/net/dev (read only) before and after the child, over
the same ops. That is the kernel's share of a hop as a count: every TCP
segment the cluster sends, data or a pure ACK, is one packet on `lo`. With a
connection per direction of a node pair, each small pushed segment is
ACKed on its own (warm_open read 18.4 per op); with one connection per pair
a reply carries its request's ACK (~9.4). It counts any other loopback
traffic of the machine's network namespace during the run too, so run it
alone.
The ratios include cluster set-up and the untimed warm phase of each
repetition, the same on every commit. With --max, exits 1 when switches per
op are above the bound; with --max-packets, when packets per op are; the CPU
and fault figures are reported, not gated.
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
    ap.add_argument("--max-packets", type=float,
                    help="fail when loopback packets per op exceed this")
    args = ap.parse_args()

    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", "0"]
    packets0 = loopback_rx_packets()
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True)
    packets = loopback_rx_packets() - packets0
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    switches = usage.ru_nvcsw
    last = json.loads(run.stdout.strip().splitlines()[-1])
    if not last["correct"] or last["failed"]:
        sys.exit(f"hop_counts: {args.workload} did not validate: {last}")
    ops = last["attempted"]
    per_op = switches / ops
    packets_per_op = packets / ops
    print(f"{args.workload}: {switches} voluntary context switches / "
          f"{ops} ops = {per_op:.1f} per op; "
          f"{packets} loopback packets = {packets_per_op:.1f} per op; "
          f"user {usage.ru_utime * 1e6 / ops:.1f} us, sys {usage.ru_stime * 1e6 / ops:.1f} us, "
          f"{usage.ru_minflt / ops:.1f} minor faults per op")
    if args.max is not None and per_op > args.max:
        sys.exit(f"hop_counts: {per_op:.1f} switches per op is above the bound {args.max:g}")
    if args.max_packets is not None and packets_per_op > args.max_packets:
        sys.exit(f"hop_counts: {packets_per_op:.1f} loopback packets per op is above the "
                 f"bound {args.max_packets:g}")


def loopback_rx_packets():
    """Packets received on `lo` so far, from /proc/net/dev."""
    with open("/proc/net/dev") as f:
        for line in f:
            name, _, counters = line.partition(":")
            if name.strip() == "lo":
                return int(counters.split()[1])
    sys.exit("hop_counts: no lo line in /proc/net/dev")


if __name__ == "__main__":
    main()
