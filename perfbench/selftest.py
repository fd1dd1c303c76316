"""Tests of the benchmark's own reference code against fusscat.

Run from the repository root:  python3 perfbench/selftest.py

The reference must agree with fusscat wherever both can answer, so that
a disagreement during a benchmark run points at the program.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import fusscat as fc  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class CountTest(unittest.TestCase):
    def test_dp_matches_brute_force_up_to_length_12(self):
        for m in (2, 3, 4):
            for k in range(1, 9):
                params = fc.Params(m, k)
                for length in range(0, 13, m - 1):
                    with self.subTest(m=m, k=k, length=length):
                        self.assertEqual(
                            ref.count_minimal(m, k, length),
                            fc.count_minimal_brute(params, length))

    def test_dp_matches_formula_on_the_count_table_grid(self):
        for m in (2, 3, 4):
            for k in range(1, 9):
                params = fc.Params(m, k)
                for length in range(m - 1, 21, m - 1):
                    with self.subTest(m=m, k=k, length=length):
                        self.assertEqual(
                            ref.count_minimal(m, k, length),
                            fc.modular_fuss_catalan(params, length))

    def test_fuss_catalan(self):
        for m in (2, 3, 4):
            for leaves in range(1, 30, m - 1):
                self.assertEqual(ref.fuss_catalan(m, leaves),
                                 fc.fuss_catalan(m, leaves))


class CodecTest(unittest.TestCase):
    def test_tuple_tree_text_round_trips_agree_with_fusscat(self):
        rng = random.Random(7)
        for m in (2, 3, 4):
            params = fc.Params(m, 2)
            for leaves in range(1, 80, m - 1):
                entries = ref.random_tuple(rng, m, leaves)
                self.assertTrue(ref.is_valid_tuple(entries, m - 1))
                tree = ref.tuple_to_tree(entries, m)
                self.assertEqual(ref.tree_to_tuple(tree, m), entries)
                text = ref.write_text(tree)
                self.assertEqual(ref.text_to_tuple(text, m), entries)
                theirs = fc.parse(text, params)
                self.assertEqual(fc.to_dyck(theirs, params).entries, entries)
                self.assertEqual(
                    ref.tree_to_tuple(theirs, m, lambda t: t.children),
                    entries)
                self.assertEqual(ref.text_to_tuple(fc.unparse(theirs), m),
                                 entries)

    def test_flat_run_is_the_left_comb(self):
        for m in (2, 3, 4):
            text = "*".join("x%d" % i for i in range(1, 3 * (m - 1) + 2))
            length = 3 * (m - 1)
            self.assertEqual(ref.text_to_tuple(text, m),
                             (length,) + (0,) * (length - 1))

    def test_parser_rejects_malformed_text(self):
        for text, m in (("", 2), ("x1*", 2), ("*x1*x2", 2), ("x1**x2", 2),
                        ("(x1*x2", 2), ("x1*x2)", 2), ("(x1)*x2", 2),
                        ("x1*(x2*)", 2), ("x1*x2", 3), ("x1*x2*x3*x4", 3)):
            with self.subTest(text=text, m=m):
                with self.assertRaises(ValueError):
                    ref.parse_text(text, m)


class RotationTest(unittest.TestCase):
    def test_rotation_matches_fusscat(self):
        rng = random.Random(11)
        for m in (2, 3):
            for k in (1, 2):
                params = fc.Params(m, k)
                for _ in range(30):
                    leaves = rng.randrange(1 + m, 25 * (m - 1), m - 1)
                    entries = ref.random_tuple(rng, m, leaves)
                    ours = ref.tuple_to_tree(entries, m)
                    theirs = fc.from_dyck(fc.DyckTuple(entries, m - 1), params)
                    for direction in ("right", "left"):
                        for address, j in fc.rotation_sites(theirs, params,
                                                            direction):
                            rotate = (fc.rotate_right if direction == "right"
                                      else fc.rotate_left)
                            expect = fc.to_dyck(
                                rotate(theirs, address, j, params),
                                params).entries
                            got = ref.rotate(ours, direction, address, j, m, k)
                            self.assertEqual(ref.tree_to_tuple(got, m),
                                             expect)


class PartnerTest(unittest.TestCase):
    def test_partners_have_the_requested_verdict(self):
        rng = random.Random(3)
        for m in (2, 3, 4):
            for k in (1, 2, 3):
                params = fc.Params(m, k)
                modulus = k * (m - 1)
                for _ in range(10):
                    entries = ref.random_tuple(rng, m, 1 + 20 * (m - 1))
                    want = k == 1 or rng.random() < 0.5
                    other = ref.partner(rng, entries, m, k, want)
                    self.assertTrue(ref.is_valid_tuple(other, m - 1))
                    same = (ref.signature(entries, modulus)
                            == ref.signature(other, modulus))
                    self.assertEqual(same, want)
                    self.assertEqual(
                        fc.equivalent(fc.DyckTuple(entries, m - 1),
                                      fc.DyckTuple(other, m - 1), params),
                        want)


class LoopTest(unittest.TestCase):
    def test_failed_ops_are_counted_and_the_run_goes_on(self):
        class Fake(workloads.Workload):
            def run(self, inp):
                if inp == "slow":
                    while True:
                        pass
                if inp == "deep":
                    raise RecursionError("maximum recursion depth exceeded")
                if inp == "child":
                    subprocess.run([sys.executable, "-c",
                                    "import time; time.sleep(30)"])
                return inp

            def check(self, index, inp, out):
                return None if out == "ok" else "wrong answer"

        fake = Fake()
        previous = signal.signal(signal.SIGALRM, run._alarm)
        start = time.monotonic()
        try:
            with mock.patch.object(run, "OP_TIMEOUT_S", 0.5):
                loop = run.Loop(fake, ["ok", "slow", "deep", "bad", "child",
                                       "ok"], fake.run,
                                short_op_runs=run.SHORT_OP_RUNS)
                loop.run_until(0, time.monotonic() + 60, min_passes=2)
                times = loop.op_ms()
        finally:
            signal.signal(signal.SIGALRM, previous)
        self.assertLess(time.monotonic() - start, 20)  # the child was killed
        # "ok" is short, so it runs SHORT_OP_RUNS times a pass.
        self.assertEqual((loop.attempted, loop.failed),
                         (2 * (4 + 2 * run.SHORT_OP_RUNS), 8))
        self.assertEqual(loop.failures, {"timeout": 4, "wrong answer": 2,
                                         "raised RecursionError": 2})
        self.assertEqual(times[1:5], [500.0] * 4)
        self.assertLess(times[5], 500.0)


if __name__ == "__main__":
    unittest.main()
