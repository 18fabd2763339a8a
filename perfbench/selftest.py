"""Self-test of the benchmark at a tiny scale; run from the repository root:

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload, that two seeds give the same op list and input vertex
counts, and that the traced span tree is well-formed.
"""

import json
import shutil
import sys
import unittest
from collections import defaultdict

import run

TINY = 0.01
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = run.OUT / f"selftest-{run.os.getpid()}"
        cls.runs = {}
        try:
            for workload in run.WORKLOAD_NAMES:
                for trace in (False, True):
                    cls.runs[workload, trace] = run.measure(
                        workload, 1, 0.0, trace, cls.work / f"{workload}-{int(trace)}",
                        scale=TINY, setup_runs=1)
        finally:
            shutil.rmtree(cls.work, ignore_errors=True)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(w["name"] for w in BENCHMARK["workloads"]),
                         sorted(run.WORKLOAD_NAMES))

    def test_every_metric_emitted_with_its_unit(self):
        for (workload, trace), (_, result, _) in self.runs.items():
            declared = BENCHMARK["per_layer" if trace else "end_to_end"]
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(got, want)
                for m in result["metrics"].values():
                    self.assertIsInstance(m["value"], float)
                self.assertGreaterEqual(result["attempted"], 1)

    def test_seeds_give_same_ops_and_vertex_counts(self):
        from workloads import WORKLOADS

        work = run.OUT / f"selftest-ops-{run.os.getpid()}"
        try:
            for workload, build in WORKLOADS.items():
                shapes = []
                for seed in (1, 2):
                    d = work / str(seed)
                    d.mkdir(parents=True)
                    ops = build(seed, d)
                    shapes.append([(op.name, op.argv[0], op.vertices if isinstance(op.vertices, int)
                                    else op.vertices.name, op.known) for op in ops])
                    shutil.rmtree(d)
                with self.subTest(workload=workload):
                    self.assertEqual(shapes[0], shapes[1])
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_span_tree_is_well_formed(self):
        from spans import self_times

        for (workload, trace), (_, result, tracer) in self.runs.items():
            if not trace:
                continue
            spans = tracer.spans
            own = self_times(spans)
            per_op, roots = defaultdict(float), {}
            with self.subTest(workload=workload):
                self.assertTrue(spans)
                for s, t in zip(spans, own):
                    self.assertGreaterEqual(t, 0.0, s["name"])
                    per_op[s["op"]] += t
                    if s["parent"] is None:
                        self.assertEqual(s["name"], "cli")
                        roots[s["op"]] = s["end"] - s["start"]
                        continue
                    p = spans[s["parent"]]
                    self.assertEqual(p["op"], s["op"])
                    self.assertLessEqual(p["start"], s["start"])
                    self.assertLessEqual(s["start"], s["end"])
                    self.assertLessEqual(s["end"], p["end"])
                # layer self times plus cli self time add up to each traced op's time
                self.assertEqual(set(per_op), set(roots))
                for op, total in roots.items():
                    self.assertAlmostEqual(per_op[op], total, delta=1e-9 * max(1.0, total))
                m = {k: v["value"] for k, v in result["metrics"].items()}
                layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
                self.assertAlmostEqual(layers, m["cli.op_s"], delta=1e-9 * max(1.0, layers))


if __name__ == "__main__":
    sys.exit(not unittest.main(exit=False, verbosity=2).result.wasSuccessful())
