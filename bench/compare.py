"""Compare two saved outputs of bench/run.py.

    python3 bench/compare.py BEFORE.out AFTER.out

Prints each metric of both runs and their ratio, after over before. Refuses
(exit 2) to compare runs of different workloads or trace modes, or runs whose
exact-rational type differs, since `fractions` and `gmpy2` moments differ
several-fold in speed.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> tuple[dict, dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (rep_a, res_a), (rep_b, res_b) = load(argv[0]), load(argv[1])
    for key in ("workload", "trace"):
        if rep_a[key] != rep_b[key]:
            print(f"refused: {key} {rep_a[key]!r} vs {rep_b[key]!r}",
                  file=sys.stderr)
            return 2
    rat_a = rep_a["environment"]["rational"]
    rat_b = rep_b["environment"]["rational"]
    if rat_a != rat_b:
        print(f"refused: rational type {rat_a!r} vs {rat_b!r}",
              file=sys.stderr)
        return 2
    print(f"{'metric':44s} {'before':>14s} {'after':>14s} {'ratio':>8s}")
    for name, a in res_a["metrics"].items():
        b = res_b["metrics"].get(name)
        if b is None:
            continue
        ratio = b["value"] / a["value"] if a["value"] else float("nan")
        print(f"{name:44s} {a['value']:14.6g} {b['value']:14.6g} "
              f"{ratio:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
