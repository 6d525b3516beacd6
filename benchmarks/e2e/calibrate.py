"""A fixed CPU-and-memory workload that measures how fast the host runs
right now, independent of the program under test.

Each campaign child calls ``measure()`` before it loads the program and
again after its campaign. At jobs > 1 a pass also runs in a fresh
interpreter on each further core beside each of those two (``spawn``:
the batch runner starts them beside the first, the child beside the
second), and the batch runner runs passes around ``pack_archive``::

    python calibrate.py

It prints the wall time, in seconds, of one pass over three pure-Python
kernels shaped like a campaign's work: writing, compressing,
decompressing and splitting TSV text into records; building a heap of
small dicts and regrouping it in random order, then a full collection;
and parsing IP addresses into /24 networks. Nothing here imports the
program, so a change to the program cannot change this number; only
the host's speed can.
"""

from __future__ import annotations

import gc
import ipaddress
import random
import subprocess
import sys
import time
import zlib

RECORDS = 20_000
OBJECTS = 50_000
ADDRESSES = 7_500


def _archive() -> bytes:
    rnd = random.Random(2)
    lines = [
        "\t".join((
            f"{1_600_000_000 + i}.{rnd.randrange(10**6):06d}",
            f"C{rnd.getrandbits(40):x}",
            f"10.{rnd.randrange(256)}.{rnd.randrange(256)}.{rnd.randrange(256)}",
            str(rnd.randrange(65536)),
            "TLSv12" if rnd.random() < 0.7 else "TLSv13",
            f"host{rnd.randrange(3000)}.example.org",
            "-",
            f"F{rnd.getrandbits(32):x}",
        ))
        for i in range(RECORDS)
    ]
    return zlib.compress("\n".join(lines).encode(), 6)


def decode(blob: bytes) -> int:
    rows = []
    for line in zlib.decompress(blob).decode().split("\n"):
        f = line.split("\t")
        rows.append((float(f[0]), f[1], f[2], int(f[3]), f[4], f[5], f[7]))
    groups: dict = {}
    for row in rows:
        groups.setdefault((row[4], row[5]), []).append(row[3])
    rows.sort(key=lambda row: (row[2], row[0]))
    return len(groups)


def regroup() -> int:
    rnd = random.Random(1)
    objects = []
    for i in range(OBJECTS):
        f = f"{i}\t10.{i % 256}.{i * 7 % 256}.{i % 251}\tCN=host{i % 4999}\t{i * 31 % 65536}".split("\t")
        objects.append({"id": int(f[0]), "ip": f[1], "cn": f[2], "port": int(f[3])})
    order = list(range(OBJECTS))
    rnd.shuffle(order)
    by_cn: dict = {}
    for i in order:
        o = objects[i]
        by_cn.setdefault(o["cn"], []).append(o["port"] + len(o["ip"]))
    gc.collect()
    return len(by_cn)


def networks() -> int:
    seen = set()
    for i in range(ADDRESSES):
        address = ipaddress.ip_address(f"10.{i % 256}.{i * 7 % 256}.{i % 251}")
        seen.add(ipaddress.ip_network(f"{address}/24", strict=False))
    return len(seen)


def measure() -> float:
    """Seconds for one pass over the kernels, building the archive
    included."""
    started = time.perf_counter()
    decode(_archive())
    regroup()
    networks()
    return time.perf_counter() - started


def spawn(count: int) -> list[subprocess.Popen]:
    """``count`` passes, each in a fresh interpreter, running at once."""
    return [
        subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE, text=True)
        for _ in range(count)
    ]


def collect(passes: list[subprocess.Popen]) -> list[float]:
    """Wait for every spawned pass; their times in seconds."""
    return [float(proc.communicate()[0].strip()) for proc in passes]


if __name__ == "__main__":
    print(repr(measure()))
    sys.exit(0)
