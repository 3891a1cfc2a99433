"""Rebuild ``reference.json``: run every pool item once and store its record.

    PYTHONPATH=src python3 bench/make_reference.py

Run this only when a change to warpcurv is meant to change verdicts or
residuals; the benchmark's correctness checks compare against this file.
"""

import json
import math
import sys
import tempfile

import workloads


def main():
    reference = {"algebra": {"rule": {"verdicts": {
        "identities_pass": True, "telescope_pass": True,
        "newton_tensors": True}}}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("audit-battery", "identity-grid", "cli-battery"):
            wl = workloads.WORKLOADS[name](tmp)
            wl.setup()
            pool = []
            for index, params in enumerate(wl.params):
                spec = index
                if name == "cli-battery":
                    spec = (index, wl.work_dir / f"tree-{index}")
                record = wl.describe(spec, wl.run(spec))
                values = workloads.flatten_residuals(record.get("residuals", {}))
                bad = [k for k, v in values.items() if not math.isfinite(v)]
                if bad:
                    sys.exit(f"{name} item {index}: non-finite {bad}")
                pool.append({"params": params, **record})
                print(name, index, record["verdicts"], file=sys.stderr)
            reference[name] = {"pool": pool}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
