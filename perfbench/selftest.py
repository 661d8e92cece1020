"""Self-test of the benchmark's checks: a wrong recorded value must fail ops.

    python3 perfbench/selftest.py

Runs the short ``single`` op at seed 0 three times: against the recorded
values, which must pass, then against a recorded best loss and a recorded
accuracy value that are each slightly wrong, which must count failed ops.
Exits 0 when all three behave so.
"""

import copy
import json
import shutil
import sys

import bench


def failures(expected: dict, run_cli, argvs, reference) -> int:
    report = bench.measure("single", 0, 0.1, False, run_cli, argvs, reference, expected)
    return report.failed


def main() -> int:
    _, run_cli, argvs, reference, tmp = bench.setup("single", 0)
    expected = json.loads(bench.EXPECTED_PATH.read_text())
    wrong_stdout = copy.deepcopy(expected)
    wrong_stdout["single"]["stdout"]["best"] *= 1.001
    wrong_accuracy = copy.deepcopy(expected)
    wrong_accuracy["single"]["accuracy"]["err_f"] *= 1.000001
    try:
        honest = failures(expected, run_cli, argvs, reference)
        stdout_failed = failures(wrong_stdout, run_cli, argvs, reference)
        accuracy_failed = failures(wrong_accuracy, run_cli, argvs, reference)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ok = honest == 0 and stdout_failed >= 1 and accuracy_failed >= 1
    print(f"recorded values: {honest} failed; wrong best loss: {stdout_failed} failed; "
          f"wrong accuracy: {accuracy_failed} failed -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
