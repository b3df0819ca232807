"""Write bench/pinned.json: the expected exit codes and report-body
digests of every config, for every seed variant of every workload.

    python3 bench/pin.py

Run it only when a change to qmprobe alters report bodies on purpose,
and say so in the change; the benchmark fails every operation whose
body differs from the pin.  Refuses to pin a report that `verify`
rejects.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    pins = {}
    for workload in workloads.WORKLOADS:
        seeds = [0] if workload == "suite" else range(workloads.VARIANTS)
        pins[workload] = {}
        for seed in seeds:
            work = run.WORK / f"pin-{workload}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            entry = {}
            for name, text in workloads.configs(workload, seed, run.ROOT):
                cfg = work / name
                cfg.write_text(text, encoding="utf-8")
                ran = run.run_op(cfg, traced=False)
                checked = run.verify_op(ran["report"], traced=False)
                if "error" in ran or checked["fails"]:
                    print(f"{workload} seed {seed} {name}: not pinned: "
                          f"{ran.get('error') or checked['fails'][0]}", file=sys.stderr)
                    return 1
                entry[name] = {
                    "run_exit": ran["exit"],
                    "verify_exit": checked["exit"],
                    "body_sha256": ran["digest"],
                }
                print(workload, seed, name, entry[name])
            pins[workload][workloads.pin_key(workload, seed)] = entry
    path = run.BENCH / "pinned.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
