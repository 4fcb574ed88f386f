#!/usr/bin/env python3
"""Re-runs every experiment bench and refreshes the measured output blocks
in EXPERIMENTS.md in place. Usage: python3 tools/regen_experiments.py"""
import re
import subprocess
import sys

BENCHES = [
    "e01_cached_lookup", "e02_uncached_lookup", "e03_load_slope",
    "e04_fibonacci_collisions", "e05_eviction_window", "e06_fast_response",
    "e07_correction_cost", "e08_rechain", "e09_registration", "e10_restart",
    "e11_scaling", "e12_equilibrium", "e13_prepare", "e14_selection",
    "a15_fast_window_margin", "a16_popularity", "a17_fanout",
    "a18_throughput", "a19_rarely_respond", "cache_hot_paths", "tcp_wire",
]

def run(name: str) -> str:
    out = subprocess.run(
        ["cargo", "bench", "-p", "bench", "--bench", name],
        capture_output=True, text=True, timeout=1200,
    )
    if out.returncode != 0:
        sys.exit(f"{name} failed:\n{out.stderr}")
    return out.stdout.strip()

def main() -> None:
    text = open("EXPERIMENTS.md").read()
    for name in BENCHES:
        fresh = run(name)
        marker = f"--bench {name}`"
        at = text.find(marker)
        if at < 0:
            sys.exit(f"no section for {name}")
        start = text.find("```text\n", at)
        end = text.find("\n```", start)
        assert start > 0 and end > start, name
        text = text[: start + len("```text\n")] + fresh + text[end:]
        print(f"refreshed {name}")
    open("EXPERIMENTS.md", "w").write(text)

if __name__ == "__main__":
    main()
