"""Record expected.json: each catalogue instance's input digest, row-file
digests and exact counts, as the current program produces them.

    python3 perfbench/record.py

Run it only when a workload's definition changes.  A change to the program
must reproduce the recorded row files byte for byte, not re-record them.
"""

from __future__ import annotations

import json

from run import import_program


def main() -> None:
    import_program()
    import workloads  # imports wildsat, so only after import_program()

    data = {}
    for wl in workloads.WORKLOADS.values():
        data[wl.name] = []
        for inst in workloads.catalogue(wl):
            out = workloads.run_job(wl, inst)
            rec = {"input_sha256": inst.digest(), **workloads.observed(wl, out)}
            problems = workloads.check(wl, inst, out, rec)
            if problems:
                raise SystemExit("\n".join(problems))
            data[wl.name].append(rec)
        print(wl.name, "rows", sum(sum(r["rows"]) for r in data[wl.name]))
    workloads.EXPECTED_PATH.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
