"""Record the per-draw cycle counts of criterion 10's scan.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs the 200 draws of criterion 10 at its own seed and writes
perfbench/census_reference.json, which rep.py checks census_scan
against when it runs at that seed.  The counts were recorded once and
are not meant to change.
"""
import json
import os

import rep

SEED = rep.DEFAULT_SEEDS["census_scan"]
DRAWS = 200

if __name__ == "__main__":
    cycles = [len(rep.census(d).cycles) for d in rep.census_draws(SEED, 0, DRAWS)]
    with open(os.path.join(rep.HERE, "census_reference.json"), "w") as fh:
        json.dump({"seed": SEED, "cycles": cycles}, fh)
        fh.write("\n")
