"""Record or verify the benchmark's pinned counts.

``PYTHONPATH=src python3 pipebench/pin.py`` runs every workload once at
the default seed on the fast engines and compares its counts with
``pins.json``; ``--write`` records them instead. Either way it first
cross-checks the fast engines against the reference engines on a
reduced-size instance of each workload, where both must agree exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from child import DEFAULT_SEED, PINS
from workloads import FAST, REFERENCE, WORKLOADS, fresh_mesh


def outcome(workload, arrays, config) -> dict:
    return workload.summarise(
        workload.call(fresh_mesh(workload, *arrays), config)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    pins = {} if args.write else json.loads(PINS.read_text())
    ok = True
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
            small = workload.reduced(DEFAULT_SEED, Path(tmp))
            same = outcome(workload, small, FAST) == outcome(
                workload, small, REFERENCE
            )
            print(f"{name}: reduced fast == reference: {same}")
            ok &= same
            full = outcome(workload, workload.generate(DEFAULT_SEED, Path(tmp)), FAST)
        if args.write:
            pins[name] = full
        else:
            match = full == pins.get(name)
            print(f"{name}: full-size counts match pins.json: {match}")
            ok &= match
    if args.write and ok:
        PINS.write_text(json.dumps(pins, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
