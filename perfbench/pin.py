"""Pin oracle-checked result fingerprints into ``settings.json``.

Usage, from the repository root::

    python3 perfbench/pin.py 0 1 2 ...

For each seed it runs ``knn-nbody`` once and checks 1024 sampled rows
against the brute kNN oracle, and runs ``sph-bunny`` once and checks
the whole trajectory against the brute stepper; only then are the
fingerprints written. A benchmark run on a pinned seed compares its
full result with the pin instead of repeating the expensive oracle.
Run it again only when the program's outputs are meant to change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main(seeds: list[int]) -> int:
    path = os.path.join(HERE, "settings.json")
    with open(path) as fh:
        settings = json.load(fh)
    pins = settings["fingerprints"]
    for seed in seeds:
        for cls in (workloads.KnnNbody, workloads.SphBunny):
            wl = cls(seed)
            pins.get(cls.name, {}).pop(str(seed), None)
            workloads.SETTINGS["fingerprints"] = pins  # never trust a stale pin
            fp, _ = wl.op(wl.setup())
            errors = wl.check(fp, rows=1024)
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            pins.setdefault(cls.name, {})[str(seed)] = fp
            print(f"{cls.name} seed {seed}: {fp}", flush=True)
        with open(path, "w") as fh:
            json.dump(settings, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
