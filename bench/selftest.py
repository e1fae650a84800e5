"""Self-test of the benchmark's accounting: corrupted outputs must count as failures.

    python3 bench/selftest.py

Runs with the standard library's unittest against the checkout's
``src``; it takes a few seconds.
"""

import itertools
import math
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SCRATCH = BENCH_DIR.parent / ".bench_results"
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import infobell  # noqa: E402

import worker  # noqa: E402


def scratch():
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


class Flaky:
    """A stand-in workload whose outputs can be corrupted on demand."""

    name = "flaky"

    def __init__(self, corrupt=(), shifted=()):
        self.corrupt, self.shifted = set(corrupt), set(shifted)
        self.calls = itertools.count()

    def make_input(self, i, stream=worker.LOOP):
        return {"i": i}

    def run(self, inp):
        call = next(self.calls)
        if call in self.corrupt:
            return {"value": math.nan}
        return {"value": inp["i"] + (0.5 if call in self.shifted else 0.0)}

    def check(self, inp, out):
        worker.expect_finite(out)


class CorruptedOutputs(unittest.TestCase):
    def test_nan_in_a_recorded_exact_result_fails_its_check(self):
        with scratch() as tmp:
            exact = worker.Exact(infobell, 3, Path(tmp))
            inp = exact.make_input(1)
            out = exact.run(inp)
            self.assertIsNone(worker.verify(exact, inp, out, None))
            for key in ("v_star", "chsh", "edges_pi8"):
                bad = dict(out)
                bad[key] = out[key] * math.nan
                self.assertIn("not finite", worker.verify(exact, inp, bad, None))

    def test_nan_token_in_cli_output_fails_its_check(self):
        with scratch() as tmp:
            cli = worker.Cli(None, 3, Path(tmp))
            inp = cli.make_input(2)
            self.assertEqual(inp["command"], "chsh")
            out = {"returncode": 0, "output": b'{"format_version": 1, "s": NaN}'}
            self.assertIn("non-finite", worker.verify(cli, inp, out, None))
            out = {"returncode": 2, "output": b""}
            self.assertIn("exited 2", worker.verify(cli, inp, out, None))

    def test_failed_operation_is_not_timed_as_a_success(self):
        result = worker.tally([(0.1, None), (0.4, "value is not finite"), (0.1, None)], 0.6, 0.03)
        self.assertEqual((result["completed"], result["failed"]), (2, 1))
        self.assertAlmostEqual(result["throughput_ops_s"], 2 / 0.6)
        self.assertAlmostEqual(result["op_cost_ref"], 0.1 / 0.01)
        self.assertTrue(math.isinf(result["op_p90_ms"]))

    def test_corrupted_operation_in_the_timed_loop_is_counted(self):
        result = worker.run_timed(Flaky(corrupt={1}), 0.05)
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], result["ops"] + 1)
        self.assertIn("op 1:", result["failures"][0])

    def test_rerun_that_does_not_reproduce_is_counted(self):
        # With no time to spend the loop runs one operation, so call 1 is the rerun.
        self.assertEqual(worker.run_timed(Flaky(), 0.0)["failed"], 0)
        for flaky, message in ((Flaky(corrupt={1}), "not finite"),
                               (Flaky(shifted={1}), "did not reproduce")):
            result = worker.run_timed(flaky, 0.0)
            self.assertEqual((result["ops"], result["failed"]), (1, 1))
            self.assertIn("rerun of op 0", result["failures"][0])
            self.assertIn(message, result["failures"][0])


if __name__ == "__main__":
    unittest.main()
