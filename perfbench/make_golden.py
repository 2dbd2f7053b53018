"""Regenerate the golden CSVs of every workload and their round-off floors.

    python3 perfbench/make_golden.py

For each workload it runs the default seed once and keeps ``energy.csv`` and
``constraints.csv``.  It then runs the same config again with the initial
amplitude moved by a few ulp, once per entry of PERTURB_ULPS.  That leaves
the physics alone but changes the rounding of every operation in the run,
as a reordered sum does.  Per column, the largest difference from the golden
file, times SAFETY, becomes the column's absolute floor in
``golden/<workload>/floors.json`` (see checks.golden_compare).

Run it only when a change to the program is meant to change the results,
and say so in the change.
"""

import json
import os
import shutil

import numpy as np

import run  # pins the thread environment before numpy's BLAS starts
import spec
from checks import GOLDEN_DIR, GOLDEN_FILES, read_csv

PERTURB_ULPS = (-3, -1, 1, 3)
SAFETY = 10.0


def run_config(driver, workload, out, ulps=0):
    shutil.rmtree(out, ignore_errors=True)
    raw = spec.raw_config(driver, workload, spec.DEFAULT_SEED, out)
    amp = float(raw["initial"]["amplitude"])
    raw["initial"]["amplitude"] = repr(float(amp + ulps * np.spacing(amp)))
    driver.run_experiment(driver.validate_config(raw), out_dir=out)
    return {name: read_csv(os.path.join(out, name)) for name in GOLDEN_FILES}


def main():
    driver = run.import_program()
    for workload in spec.WORKLOADS:
        gold_dir = os.path.join(GOLDEN_DIR, workload)
        os.makedirs(gold_dir, exist_ok=True)
        out = os.path.join(run.OUT, workload, "golden")
        gold = run_config(driver, workload, out)
        for name in GOLDEN_FILES:
            shutil.copyfile(os.path.join(out, name), os.path.join(gold_dir, name))
        dev = {name: np.zeros(len(header)) for name, (header, _) in gold.items()}
        for ulps in PERTURB_ULPS:
            moved = run_config(driver, workload, out, ulps)
            for name, (header, data) in gold.items():
                dev[name] = np.maximum(dev[name], np.abs(moved[name][1] - data).max(axis=0))
        floors = {name: dict(zip(gold[name][0], (SAFETY * dev[name]).tolist()))
                  for name in GOLDEN_FILES}
        with open(os.path.join(gold_dir, "floors.json"), "w") as fh:
            json.dump(floors, fh, indent=1)
            fh.write("\n")
        shutil.rmtree(out, ignore_errors=True)
        print("golden %s written" % workload)


if __name__ == "__main__":
    main()
