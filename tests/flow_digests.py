"""Print digests of the level-set acceptance runs, to compare two trees.

    python tests/flow_digests.py

Runs criteria 05, 06 and 07 (the dumbbell at all three h) with the
configs of ``test_acceptance.py``'s fixtures, and prints one line a run:
sha256 of repr(samples) (exact for floats), sha256 of the arrival-time
bytes, and ``freeze_all_time``.  A change meant to keep the flow's
outputs to the bit prints the same lines before and after it; run it on
both trees and diff.  pytest does not collect this file.
"""

import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import test_acceptance  # noqa: E402


def digest_line(name, trace) -> str:
    samples = hashlib.sha256(repr(trace.samples).encode()).hexdigest()
    arrival = hashlib.sha256(trace.arrival_time.tobytes()).hexdigest()
    return f"{name} samples={samples} arrival={arrival} freeze_all_time={trace.freeze_all_time!r}"


def main() -> None:
    # the fixtures' own functions, called outside pytest
    trace, _, _ = test_acceptance.euclid_sphere_run.__wrapped__()
    print(digest_line("05-euclid-sphere", trace), flush=True)
    trace, _ = test_acceptance.schwarzschild_sphere_run.__wrapped__()
    print(digest_line("06-schwarzschild-sphere", trace), flush=True)
    runs, _ = test_acceptance.dumbbell_runs.__wrapped__()
    for h, trace in runs.items():
        print(digest_line(f"07-dumbbell-h{h}", trace), flush=True)


if __name__ == "__main__":
    main()
