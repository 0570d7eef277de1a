"""Regenerate references.json, the refined reference values of every variant.

    python3 perfbench/make_references.py

For each of the N_VARIANTS shipped input variants this computes the
outputs that result_rel_err compares against: sweep leaks and window
suprema and gapped-probe values at REFINE times the production step
count, and adiabatic defects at REFINE times their step count. Runs use
the code in `src/` as it stands; regenerate only when the inputs or the
reference definition change, since the stored values pin the code that
made them. Takes about ten minutes on one core.
"""

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = "python3 perfbench/make_references.py"


def main() -> int:
    from run import pin_blas_threads

    pin_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bench
    import workloads

    variants = []
    for variant in range(workloads.N_VARIANTS):
        inputs = workloads.make_inputs(variant)
        values = {}
        with tempfile.TemporaryDirectory() as out_dir:
            for key in ("threshold_sweep", "gapped_probe", "verification_suite"):
                values[key] = workloads.WORKLOADS[key].reference(inputs, out_dir)
        variants.append({"variant": variant, "inputs": inputs.as_dict(),
                         "values": values})
        print(f"variant {variant} done", file=sys.stderr, flush=True)
    payload = {"command": COMMAND, "git_revision": bench._git_revision(),
               "source_sha256": bench._source_sha256(),
               "refine": workloads.REFINE, "variants": variants}
    with open(workloads.REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
