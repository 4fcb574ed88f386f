#!/usr/bin/env python3
"""A flat CPU profile of one benchmark workload, without perf.

usage: cpu_profile.py WORKLOAD [--seconds S] [--seed N] [--top K]

Compiles tools/sigprof.c into target/sigprof.so (cc -shared -fPIC), runs
the built ledger binary (benchmark/target/release/scalla-benchmark,
untraced) for one workload with it preloaded, and prints where the
process's CPU samples landed. The sampler's ITIMER_PROF interrupts a
running thread at the kernel tick, so there are about HZ samples per
CPU-second (256 per CPU-second on the 2-vCPU guest EXPERIMENTS.md reports
from), and records the PC it interrupted. PCs in the ledger binary are named with
llvm-symbolizer, twice: by the innermost inlined function (where the work
is) and by the function as compiled (which call it belongs to). This libc
exports no internal symbols, so a libc PC is named by the nearest exported
symbol below it plus the offset, rounded down to a 4 KiB page of code so
that one function's samples stay together: memcpy and memcmp both fall
under `__nss_database_lookup+0x...`, and malloc's and free's internals
under their neighbours; read the offsets, not the names.

The whole process is sampled (the benchmark has no phase hook): set-up,
the untimed warm phase and teardown count too. To say how much of the
profile is the measured phase, the script divides the measured CPU
(`cpu_us_per_op` x `attempted`, from the run's last stdout line) by the
process's CPU from getrusage; at --seconds 40 on resolve_storm it read
81-92 % (EXPERIMENTS.md). Run nothing else meanwhile.
"""
import argparse
import bisect
import collections
import json
import os
import re
import resource
import struct
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY = os.path.join(ROOT, "benchmark", "target", "release", "scalla-benchmark")
SAMPLER = os.path.join(ROOT, "target", "sigprof.so")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--seconds", default="40")
    ap.add_argument("--seed", default="20120521")
    ap.add_argument("--top", type=int, default=30)
    args = ap.parse_args()

    os.makedirs(os.path.dirname(SAMPLER), exist_ok=True)
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", SAMPLER,
                    os.path.join(ROOT, "tools", "sigprof.c")], check=True)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with tempfile.NamedTemporaryFile(prefix="sigprof-", suffix=".txt") as out:
        env = dict(os.environ, LD_PRELOAD=SAMPLER, SIGPROF_OUT=out.name)
        run = subprocess.run([BINARY, "--workload", args.workload, "--seed", args.seed,
                              "--seconds", args.seconds, "--trace", "0"],
                             cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, check=True)
        pcs, maps = read_samples(out.name)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    last = json.loads(run.stdout.strip().splitlines()[-1])
    if not last["correct"] or last["failed"]:
        sys.exit(f"cpu_profile: {args.workload} did not validate: {last}")
    measured = last["metrics"]["cpu_us_per_op"]["value"] * last["attempted"] / 1e6
    total = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    print(f"{args.workload}: {len(pcs)} samples over {total:.1f} CPU-s; the measured phase "
          f"is {measured:.1f} CPU-s ({100 * measured / total:.0f} %), "
          f"{last['metrics']['ops_per_s']['value']:.0f} ops/s")

    inner, outer = collections.Counter(), collections.Counter()
    for name_in, name_out in symbolise(pcs, maps):
        inner[name_in] += 1
        outer[name_out] += 1
    for title, counts in (("innermost inlined function", inner), ("function as compiled", outer)):
        print(f"\nself samples by {title}:")
        for name, n in counts.most_common(args.top):
            print(f"{100 * n / len(pcs):6.2f} % {n:7d}  {name}")


def read_samples(path):
    pcs, maps = [], []
    with open(path) as f:
        lines = f.read().splitlines()
    cut = lines.index("maps")
    pcs = [int(x, 16) for x in lines[:cut]]
    for line in lines[cut + 1:]:
        parts = line.split()
        if len(parts) >= 6 and "x" in parts[1]:
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            maps.append((lo, hi, int(parts[2], 16), parts[5]))
    return pcs, sorted(maps)


def symbolise(pcs, maps):
    """(innermost, as-compiled) names for every PC, in order."""
    starts = [m[0] for m in maps]
    where = []  # (file, address in the file's own virtual addresses)
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            where.append(("?", pc))
            continue
        lo, _, off, path = maps[i]
        where.append((path, file_vaddr(path, pc - lo + off)))
    names = {}
    for path in {p for p, _ in where}:
        addrs = sorted({a for p, a in where if p == path and a is not None})
        if os.path.realpath(path) == os.path.realpath(BINARY):
            names.update(((path, a), n) for a, n in zip(addrs, llvm_symbolizer(path, addrs)))
        else:
            label = os.path.basename(path)
            names.update(((path, a), (n, n)) for a, n in zip(addrs, nearest_export(path, label, addrs)))
    return [names.get(w, (w[0], w[0])) for w in where]


_SEGMENTS = {}


def file_vaddr(path, offset):
    """The ELF virtual address of file `offset`, from its PT_LOAD headers."""
    if path not in _SEGMENTS:
        segs = []
        try:
            with open(path, "rb") as f:
                head = f.read(64)
                if head[:4] == b"\x7fELF" and head[4] == 2:
                    phoff, = struct.unpack_from("<Q", head, 32)
                    phentsize, phnum = struct.unpack_from("<HH", head, 54)
                    f.seek(phoff)
                    table = f.read(phentsize * phnum)
                    for k in range(phnum):
                        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
                            "<IIQQQQ", table, k * phentsize)
                        if p_type == 1:  # PT_LOAD
                            segs.append((p_offset, p_filesz, p_vaddr))
        except OSError:
            pass
        _SEGMENTS[path] = segs
    for p_offset, p_filesz, p_vaddr in _SEGMENTS[path]:
        if p_offset <= offset < p_offset + p_filesz:
            return offset - p_offset + p_vaddr
    return None


# A symbol-table name keeps its legacy Rust mangling: `_$LT$a..B$u20$as$u20$c..D$GT$::f::h0123...`.
HASH = re.compile(r"::h[0-9a-f]{16}\b| \(\.llvm\.\d+\)")
ESCAPES = {"$LT$": "<", "$GT$": ">", "$u20$": " ", "$C$": ",", "$RF$": "&", "$BP$": "*",
           "$LP$": "(", "$RP$": ")", "$u27$": "'", "$u5b$": "[", "$u5d$": "]",
           "$u7b$": "{", "$u7d$": "}", "$u7e$": "~", "..": "::"}


def tidy(name):
    name = HASH.sub("", name)
    if name.startswith("_$"):
        name = name[1:]
    for code, text in ESCAPES.items():
        name = name.replace(code, text)
    return name


def llvm_symbolizer(path, addrs):
    text = subprocess.run(["llvm-symbolizer", "--obj", path, "--inlines", "--demangle"],
                          input="".join(f"0x{a:x}\n" for a in addrs),
                          stdout=subprocess.PIPE, text=True, check=True).stdout
    out = []
    for block in text.strip("\n").split("\n\n"):
        funcs = [tidy(ln) for ln in block.splitlines()[0::2]]
        out.append((funcs[0], funcs[-1]))
    return out


def nearest_export(path, label, addrs):
    syms = []
    nm = subprocess.run(["nm", "-D", "--defined-only", path], stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL, text=True).stdout
    for line in nm.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "TtWwi":
            syms.append((int(parts[0], 16), parts[2].split("@")[0]))
    syms.sort()
    keys = [s[0] for s in syms]
    out = []
    for a in addrs:
        i = bisect.bisect_right(keys, a) - 1
        if i < 0:
            out.append(f"{label}:0x{a & ~0xFFF:x}")
        else:
            out.append(f"{label}:{syms[i][1]}+0x{(a - syms[i][0]) & ~0xFFF:x}")
    return out


if __name__ == "__main__":
    main()
