"""A fixed pure-Python workload whose wall time measures the host's speed.

Run as a child process next to each evaluate, like the program under test:
interpreter start-up, building and splitting CSV-like text, tallying into
dicts and serialising the tally. It imports nothing from complykit, so a
change to the program does not change it.
"""

import json
import random


def main():
    rng = random.Random(0)
    lines = [f"{('Male', 'Female')[rng.getrandbits(1)]},{rng.getrandbits(1)},"
             f"{rng.getrandbits(1)},0.{rng.getrandbits(13):04d},"
             f"k{rng.getrandbits(12):05d}"
             for _ in range(150_000)]
    rows = [line.split(",") for line in lines]
    tally = {}
    for group, predicted, actual, score, stratum in rows:
        cell = tally.setdefault((group, stratum), [0, 0, 0.0])
        cell[int(predicted)] += 1
        cell[2] += float(score) * int(actual)
    json.dumps(sorted((g, s, *c) for (g, s), c in tally.items()))


if __name__ == "__main__":
    main()
