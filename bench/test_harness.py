"""Tests of the benchmark harness and its reference answers.

    python3 -m unittest discover -s bench -v

They take about thirty seconds, most of it recomputing the pinned
constants by brute force.  Where the repository's test oracles
(tests/oracles.py) exist, the references are cross-checked against them
at small sizes.
"""
import hashlib
import importlib
import itertools
import math
import random
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness as H  # noqa: E402
import reference as R  # noqa: E402
import workloads as W  # noqa: E402


def ops_of(values, fail=()):
    """Ops that return instantly; those in ``fail`` raise or answer wrong."""
    ops = []
    for k, _ in enumerate(values):
        if k in fail and k % 2:
            ops.append(H.Op("raises", k, lambda lib: 1 / 0, lambda out: None))
        elif k in fail:
            ops.append(H.Op("wrong", k, lambda lib: 41, lambda out: None if out == 42 else "wrong answer"))
        else:
            ops.append(H.Op("ok", k, lambda lib: 42, lambda out: None))
    return ops


class InputDigest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name, workload in W.WORKLOADS.items():
                digests = []
                for seed in (3, 3, 4):
                    ctx = SimpleNamespace(src=ROOT / "src", workdir=Path(tmp) / f"{name}-{len(digests)}")
                    digests.append(H.input_digest(workload.build(seed, ctx)))
                self.assertEqual(digests[0], digests[1], name)
                self.assertNotEqual(digests[0], digests[2], name)

    def test_every_workload_has_tail_samples(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name, workload in W.WORKLOADS.items():
                ops = workload.build(1, SimpleNamespace(src=ROOT / "src", workdir=Path(tmp) / name))
                self.assertGreater(len(ops), 2 * H.TAIL_BEYOND, name)


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct = H.tail([float(x) for x in range(100, 0, -1)])
        self.assertEqual(value, 90.0)
        self.assertEqual(pct, 90.0)

    def test_smallest_sample_count(self):
        self.assertEqual(H.tail(list(range(11))), (0, 100.0 / 11))
        with self.assertRaises(ValueError):
            H.tail(list(range(10)))


class FailedOps(unittest.TestCase):
    def run_ops(self, ops, probes=()):
        tracer = H.Tracer()
        passes = [H.run_pass(ops, None, False, tracer, k, time.perf_counter() + 60) for k in range(2)]
        return passes, H.end_to_end(passes, len(ops), [0.1], 10.0, list(probes))

    def test_failed_op_is_infinite_and_counted(self):
        ops = ops_of(range(20), fail={3, 4})
        passes, (metrics, info) = self.run_ops(ops)
        lat = H.op_latencies(passes, len(ops))
        self.assertEqual([k for k, x in enumerate(lat) if x == math.inf], [3, 4])
        self.assertEqual(metrics["ok_ratio"][0], 18 / 20)
        self.assertEqual(info["failed_ratio"], 2 / 20)
        self.assertEqual(info["failed_ops"], 2)
        self.assertLess(metrics["op_tail_ms"][0], math.inf)

    def test_failures_reach_the_latency_metrics(self):
        ops = ops_of(range(20), fail=set(range(12)))
        _, (metrics, _) = self.run_ops(ops, [{"ok": False}])
        self.assertEqual(metrics["op_p50_ms"][0], math.inf)
        self.assertEqual(metrics["op_tail_ms"][0], math.inf)
        self.assertEqual(metrics["ok_ratio"][0], 8 / 21)
        self.assertEqual(H.json_number(math.inf), sys.float_info.max)

    def test_op_over_its_limit_fails(self):
        def spin(lib):
            while True:
                pass

        ops = [H.Op("spin", 0, spin, lambda out: None, limit=0.2)]
        start = time.perf_counter()
        result = H.run_pass(ops, None, False, H.Tracer(), 0, time.perf_counter() + 60)
        self.assertLess(time.perf_counter() - start, 5)
        self.assertIn("OpTimeout", result.errors[0])


class Probes(unittest.TestCase):
    def test_probe_over_its_limit_is_failed_not_hung(self):
        probe = H.Probe("sleeper", "returns at once", [sys.executable, "-c", "import time; time.sleep(60)"],
                        lambda proc: None, limit=0.5)
        start = time.perf_counter()
        result = H.run_probe(probe, budget=60)
        self.assertLess(time.perf_counter() - start, 10)
        self.assertFalse(result["ok"])
        self.assertIn("killed", result["outcome"])

    def test_probe_outcome_judged(self):
        probe = H.Probe("exit2", "exit 2", [sys.executable, "-c", "raise SystemExit(2)"],
                        lambda proc: None if proc.returncode == 2 else "wrong exit")
        self.assertTrue(H.run_probe(probe, budget=60)["ok"])


class Tracing(unittest.TestCase):
    def test_spans_and_per_layer_metrics(self):
        tracer = H.Tracer()
        wrapped = tracer.wrap("enumeration.count_all", lambda n: n, lambda a, r: r)
        gen = tracer.wrap("enumeration.enumerate_all", lambda k: iter(range(k)), None)
        ops = [H.Op("x", 0, lambda lib: (wrapped(7), sum(1 for _ in gen(5))), lambda out: None)] * 11
        passes = [H.run_pass(ops, None, True, tracer, 0, time.perf_counter() + 60)]
        layers = H.per_layer(tracer, passes)
        self.assertEqual(len(layers), 4 * len(H.TRACED_NAMES))
        self.assertEqual(layers["enumeration.count_all.calls"][0], 11)
        self.assertEqual(layers["enumeration.enumerate_all.calls"][0], 11)
        self.assertGreater(layers["enumeration.enumerate_all.items_per_s"][0], 0)
        self.assertEqual(layers["formats.parse_lhc.calls"][0], 0)


class Oracles(unittest.TestCase):
    """The references against the repository's independent oracles."""

    @classmethod
    def setUpClass(cls):
        if not (ROOT / "tests" / "oracles.py").is_file():
            raise unittest.SkipTest("tests/oracles.py not present")
        sys.path.insert(0, str(ROOT / "tests"))
        cls.O = importlib.import_module("oracles")

    def test_latin_and_counts(self):
        rng = random.Random(5)
        for _ in range(200):
            n, d = rng.choice([(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
            table = tuple(rng.randrange(n) for _ in range(n ** d))
            self.assertEqual(R.is_latin(n, d, table), self.O.table_is_latin(n, d, table))
        for n, d in ((2, 3), (3, 2), (2, 1), (3, 1)):
            self.assertEqual(R.latin_count(n, d), self.O.count_by_generate_and_test(n, d))
        self.assertEqual(R.latin_count(4, 2), self.O.count_squares_rowwise(4))
        self.assertEqual(R.latin_count(5, 2), self.O.count_squares_rowwise(5))
        self.assertEqual(R.latin_count(3, 3), self.O.count_cubes_layered(3))
        self.assertEqual(sum(1 for _ in R.enumerate_lex(4, 2)), 576)

    def test_transversals_degrees_automorphisms(self):
        rng = random.Random(6)
        for n in (3, 4, 5, 6):
            table = W.random_square(n, rng)
            self.assertEqual(R.square_transversals(n, table), self.O.brute_transversals_of_square(n, table))
        for n, d in ((3, 2), (4, 2), (3, 3), (2, 4), (4, 3)):
            table = W.composed(n, (2, 2), rng) if d == 3 else W.cyclic(n, d)
            degrees = self.O.pairwise_degrees(R.cells(n, d, table))
            self.assertEqual(set(degrees), {R.graph_degree(n, d)})
        for n in (3, 4, 5, 6):
            self.assertEqual(len(R.automorphisms(n, 2, self.O.cyclic_table(n))), self.O.euler_phi(n))


class PinnedValues(unittest.TestCase):
    """Each pinned constant recomputed by the brute-force references."""

    def test_transversal_and_automorphism_counts(self):
        for n in (3, 5, 7, 9):
            self.assertEqual(len(R.square_transversals(n, W.cyclic(n))), R.CYCLIC_TRANSVERSALS[n])
        for (p, k), count in R.ELEMENTARY_TRANSVERSALS.items():
            self.assertEqual(len(R.square_transversals(p ** k, W.elementary(p, k))), count)
        for (p, k), count in R.ELEMENTARY_AUTOMORPHISMS.items():
            self.assertEqual(len(R.automorphisms(p ** k, 2, W.elementary(p, k))), count)

    def test_canonical_forms_and_orbits(self):
        self.assertEqual(R.canonical_brute(4, 2, W.cyclic(4)), R.canonical_table(4, 2, "cyclic"))
        self.assertEqual(R.canonical_brute(4, 2, W.elementary(2, 2)), R.canonical_table(4, 2, "elementary"))
        self.assertEqual(R.canonical_brute(3, 3, W.cyclic(3, 3)), R.canonical_table(3, 3, "cyclic"))
        for d in (2, 3, 4):
            self.assertEqual(R.canonical_brute(2, d, W.cyclic(2, d)), R.canonical_table(2, d, "cyclic"))
        self.assertEqual(R.orbit_sizes(4, 2), R.ORBIT_SIZES_4_2)

    def test_stream_digest(self):
        h = hashlib.sha256()
        for table in R.enumerate_lex(4, 3):
            h.update(R.lhc_text(4, 3, table).encode())
        self.assertEqual(h.hexdigest(), R.STREAM_4_3_SHA256)


class TransversalCount(unittest.TestCase):
    """The depth-first count that checks every analyze input."""

    def test_against_scans(self):
        rng = random.Random(8)
        for n in (1, 2, 3, 4, 5, 6, 7, 8):
            table = W.random_square(n, rng)
            self.assertEqual(R.transversal_count(n, 2, table), len(R.square_transversals(n, table)))
        for n, degrees in ((2, (2, 3)), (3, (2, 2)), (4, (2, 2)), (3, (2, 3))):
            d = sum(degrees) - len(degrees) + 1
            table = W.composed(n, degrees, rng)
            cellset = R.cells(n, d, table)
            rows = [[c for c in cellset if c[0] == r] for r in range(n)]
            brute = sum(1 for seq in itertools.product(*rows) if R.is_transversal(n, d, seq, cellset))
            self.assertEqual(R.transversal_count(n, d, table), brute, (n, d))

    def test_published_counts(self):
        for n, count in R.CYCLIC_TRANSVERSALS.items():
            self.assertEqual(R.transversal_count(n, 2, W.cyclic(n)), count)
        for n in (2, 4, 6, 8, 10):
            self.assertEqual(R.transversal_count(n, 2, W.cyclic(n)), 0)
        for (p, k), count in R.ELEMENTARY_TRANSVERSALS.items():
            self.assertEqual(R.transversal_count(p ** k, 2, W.elementary(p, k)), count)

    def test_order_10_against_every_permutation(self):
        n = 10
        table = W.random_square(n, random.Random(10))
        scan = sum(1 for cols in itertools.permutations(range(n))
                   if len({table[r * n + cols[r]] for r in range(n)}) == n)
        self.assertEqual(R.transversal_count(n, 2, table), scan)


class Generators(unittest.TestCase):
    def test_generated_inputs_are_latin(self):
        rng = random.Random(7)
        for n in range(1, 12):
            self.assertTrue(R.is_latin(n, 2, W.random_square(n, rng)))
        for n, degrees in ((3, (2, 2)), (4, (2, 3)), (3, (3, 3))):
            d = sum(degrees) - len(degrees) + 1
            self.assertTrue(R.is_latin(n, d, W.composed(n, degrees, rng)))
        self.assertFalse(R.is_latin(4, 2, W.non_latin(4, 2, rng)))
        self.assertTrue(R.is_latin(9, 2, W.elementary(3, 2)))


class MissingSource(unittest.TestCase):
    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "analyze", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=tmp, capture_output=True,
                                  text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
