"""Record the bundled workload's expected output digests.

Run from the root of a checkout of the commit whose output is the
reference (output must stay byte-identical across later commits)::

    python3 perfbench/record_digests.py

It writes ``perfbench/bundled_digests.json``: the SHA-256 of each
command's standard output, keyed by the workload's instance label.
"""

import hashlib
import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    workload = run._set_up("bundled", 0)
    digests = {}
    for instance in workload.instances:
        code, text = workload.run(instance)
        if code != 0:
            print(f"error: {instance.label} exited {code}",
                  file=sys.stderr)
            return 1
        digests[instance.label] = hashlib.sha256(text.encode()).hexdigest()
    run.HERE.joinpath("bundled_digests.json").write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
