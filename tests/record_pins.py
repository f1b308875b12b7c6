"""Re-record the bit pins in ``tests/data`` from the current code.

    python tests/record_pins.py [levelset_samples] [oracle_samples] [cli_artifacts]

Each named pin file (all three when none is named) is rewritten through
the helper its test compares with: ``pinned_record``
(``test_levelset_pins.py``), ``oracle_record`` (``test_flow_ode.py``)
and ``artifact_digests`` (``test_cli.py``).  A change that moves
outputs re-records them with one command, and ``git diff tests/data``
shows which entries moved.  pytest does not collect this file.

``oracle_samples.json``'s volume and profile_defect columns predate
``enclosed_volume``'s form in y = a/r, and its test reads them to 4 ulp
and 1e-12: re-recording it moves them by that round-off.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import test_cli  # noqa: E402
import test_flow_ode  # noqa: E402
import test_levelset_pins  # noqa: E402


def levelset_samples() -> str:
    runs = test_levelset_pins.RUNS
    records = {name: test_levelset_pins.pinned_record(runs[name]) for name in sorted(runs)}
    return json.dumps(records, indent=1, sort_keys=True)


def oracle_samples() -> str:
    # one column a line, as recorded
    blocks = []
    for m in test_flow_ode.ORACLE_MASSES:
        record = test_flow_ode.oracle_record(m)
        columns = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in record.items())
        blocks.append(f' "{m}": {{\n{columns}\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}"


def cli_artifacts() -> str:
    # the runs' verdict lines are not the pin
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        digests = test_cli.artifact_digests(pathlib.Path(tmp))
    return json.dumps(digests, indent=1, sort_keys=True)


PINS = {"levelset_samples": levelset_samples, "oracle_samples": oracle_samples, "cli_artifacts": cli_artifacts}


def main(names: list[str]) -> None:
    unknown = set(names) - set(PINS)
    if unknown:
        raise SystemExit(f"unknown pin(s) {sorted(unknown)}; choose from {sorted(PINS)}")
    for name in names or PINS:
        text = PINS[name]()
        with open(os.path.join(HERE, "data", f"{name}.json"), "w", encoding="utf-8") as f:
            f.write(text + "\n")
        print(f"recorded tests/data/{name}.json", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
