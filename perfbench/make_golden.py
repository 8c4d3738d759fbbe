"""Write ``nursery_golden.json``: the ranked Nursery schemas of unpermuted rows.

    python3 perfbench/make_golden.py

The ``nursery-schemas`` workload mines rows permuted by its seed; its
check compares the result with this file, so a change that makes the
schemas depend on row order shows.  Regenerate only when the program's
schemas are meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from measure import WORKLOADS, request  # noqa: E402

from repro.data.loaders import from_csv  # noqa: E402


def main() -> int:
    columns = [name for name, _ in inputs.NURSERY_ATTRS] + ["class"]
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "nursery.csv"
        inputs.write_csv(csv, columns, inputs.nursery_labels(),
                         inputs.nursery_codes())
        (payload,), _ = request(WORKLOADS["nursery-schemas"],
                                [from_csv(str(csv))])
    golden = checks.canonical_schemas(payload)
    (HERE / "nursery_golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
