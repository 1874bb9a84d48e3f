#!/usr/bin/env python3
"""A memory-heavy neighbour process, for measuring how host contention
moves the benchmark.

Usage:

    python3 benchmark/neighbour.py --mb 128 --seconds 120 [--on 3 --off 3]

Copies a buffer of --mb megabytes into a second one in a loop, which
keeps one CPU busy and streams memory through the shared caches. With
--on/--off it alternates busy and idle phases of those lengths, the way
an intermittent neighbour on a shared host behaves. Holds 2 x --mb of
memory and exits after --seconds.
"""

import argparse
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mb", type=int, default=128)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--on", type=float, default=0.0, help="busy phase length (0: always busy)")
    ap.add_argument("--off", type=float, default=0.0, help="idle phase length")
    args = ap.parse_args()
    src = bytearray(b"\x5a" * (args.mb << 20))
    dst = bytearray(len(src))
    start = time.monotonic()
    while (now := time.monotonic() - start) < args.seconds:
        period = args.on + args.off
        if args.on <= 0 or (now % period) < args.on:
            dst[:] = src
        else:
            time.sleep(0.05)


if __name__ == "__main__":
    main()
