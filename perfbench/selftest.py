"""Self-tests of the benchmark's generator, checkers and tracer.

    python3 perfbench/selftest.py

run from the repository root; takes a few seconds.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np

import tracing
import workloads as wl
from seqphoton import collective, geometry, lindblad, pipeline

with open(os.path.join(HERE, "reference.json")) as fh:
    RECORDED = json.load(fh)["workloads"]


def schedule(name, seed, count):
    w = wl.WORKLOADS[name]
    groups = wl.strata(RECORDED[name]["pool"], RECORDED[name]["work"],
                       w.strata_per_group)
    return list(itertools.islice(wl.sequence(groups, seed), count))


class GeneratorTest(unittest.TestCase):

    def test_same_seed_same_inputs(self):
        for name in wl.WORKLOADS:
            self.assertEqual(schedule(name, 7, 40), schedule(name, 7, 40))
            self.assertNotEqual(schedule(name, 7, 40), schedule(name, 8, 40))

    def test_pools_regenerate_from_pool_seed(self):
        for k, (name, w) in enumerate(wl.WORKLOADS.items()):
            pool = w.make_pool(np.random.default_rng([wl.POOL_SEED, k]))
            self.assertEqual(json.loads(json.dumps(pool)), RECORDED[name]["pool"])

    def test_strata_rank_work_within_groups(self):
        name = "pulse-gradient"
        pool, work = RECORDED[name]["pool"], RECORDED[name]["work"]
        groups = wl.strata(pool, work, {0: 2, 1: 3})
        self.assertEqual(sorted(i for g in groups for i in g),
                         list(range(len(pool))))
        for lo, hi in zip(groups, groups[1:]):
            if pool[lo[0]]["group"] == pool[hi[0]]["group"]:
                self.assertLessEqual(max(work[i] for i in lo),
                                     min(work[i] for i in hi))

    def test_sequence_spreads_ops_over_strata_without_repeats(self):
        name = "protocol-noisy"
        w = wl.WORKLOADS[name]
        groups = wl.strata(RECORDED[name]["pool"], RECORDED[name]["work"],
                           w.strata_per_group)
        where = {i: s for s, g in enumerate(groups) for i in g}
        ops = list(itertools.islice(wl.sequence(groups, 3), 3 * len(groups)))
        for n in range(1, len(ops) + 1):
            counts = np.bincount([where[i] for i in ops[:n]],
                                 minlength=len(groups))
            self.assertLessEqual(counts.max() - counts.min(), 3)
        for s, g in enumerate(groups):
            drawn = [i for i in ops if where[i] == s][:len(g)]
            self.assertEqual(len(drawn), len(set(drawn)))

    def test_protocol_noise_points_distinct(self):
        pool = RECORDED["protocol-noisy"]["pool"]
        points = {(e["gamma_r"], e["gamma_phi"], e["p_em"]) for e in pool}
        self.assertEqual(len(points), len(pool))


class CheckerTest(unittest.TestCase):

    def ref(self, name, i=0):
        return RECORDED[name]["reference"][i]

    def test_references_pass(self):
        for name, w in wl.WORKLOADS.items():
            for ref in RECORDED[name]["reference"]:
                self.assertEqual(w.check(ref, ref), [])

    def test_protocol_rejects_fidelity_above_one(self):
        ref = self.ref("protocol-noisy")
        out = {**ref, "F": [1.0 + 1e-6] + ref["F"][1:]}
        self.assertTrue(wl.check_protocol(out, ref))

    def test_protocol_rejects_shifted_curve_and_xi(self):
        ref = self.ref("protocol-coherent")
        F = np.array(ref["F"])
        F[-1] *= 1.0 + 1e-4
        self.assertTrue(wl.check_protocol({**ref, "F": F.tolist()}, ref))
        self.assertTrue(wl.check_protocol({**ref, "xi": ref["xi"] + 1e-4}, ref))

    def test_gradient_rejects_perturbed_outputs(self):
        ref = self.ref("pulse-gradient")
        grad = np.array(ref["gradient"])
        grad[3] += 1e-4
        self.assertTrue(wl.check_gradient({**ref, "gradient": grad.tolist()}, ref))
        self.assertTrue(wl.check_gradient({**ref, "g": ref["g"] + 1e-4}, ref))
        self.assertTrue(wl.check_gradient({**ref, "unitarity": 1e-3}, ref))

    def test_retrieval_rejects_eps_off_by_1e6(self):
        ref = self.ref("retrieval-scan")
        self.assertTrue(wl.check_retrieval({"eps": ref["eps"] + 1e-6}, ref))
        self.assertEqual(wl.check_retrieval({"eps": ref["eps"] + 1e-12}, ref), [])

    def test_non_finite_outputs_rejected(self):
        ref = self.ref("protocol-noisy")
        self.assertTrue(wl.check_protocol({**ref, "xi": float("nan")}, ref))
        self.assertTrue(wl.check_retrieval({"eps": float("inf")},
                                           self.ref("retrieval-scan")))


def attribute_snapshot():
    owners = tracing.seqphoton_modules() + [collective.FockBasis,
                                            geometry.ArrayGeometry]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


class TracerTest(unittest.TestCase):

    def test_wrappers_restore_every_attribute(self):
        before = attribute_snapshot()
        tracer = tracing.Tracer()
        with tracer:
            self.assertIsNot(pipeline.propagate_stack,
                             before[(id(pipeline), "propagate_stack")])
            self.assertIs(pipeline.propagate_stack, lindblad.propagate_stack)
        after = attribute_snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_self_times_partition_the_op(self):
        entry = RECORDED["retrieval-scan"]["pool"][0]
        tracer = tracing.Tracer()
        with tracer:
            tracer.begin_op(0)
            wl.retrieval_op(entry, {})
            tracer.end_op()
        m = tracer.metrics()
        root = tracer.end[0] - tracer.start[0]
        total_self = sum(tracer.self_s.values())
        self.assertAlmostEqual(total_self, root, delta=1e-9 + 1e-9 * root)
        self.assertEqual(m["retrieval.retrieval_report.calls"], 1.0)
        self.assertGreater(m["retrieval.coupling_matrix.self_s"], 0.0)
        self.assertEqual(set(m), set(tracing.per_layer_names()))
        for span in range(1, len(tracer.name)):
            parent = tracer.parent[span]
            self.assertLessEqual(tracer.start[parent], tracer.start[span])
            self.assertLessEqual(tracer.end[span], tracer.end[parent])

    def test_repeated_inputs_counted(self):
        tracer = tracing.Tracer()
        geo = geometry.ArrayGeometry(3, 3, 1, 0.6)
        from seqphoton import retrieval
        with tracer:
            tracer.begin_op(0)
            for _ in range(3):
                retrieval.coupling_matrix(geo, positions=geo.positions())
            tracer.end_op()
        self.assertAlmostEqual(
            tracer.metrics()["retrieval.coupling_matrix.dup_ratio"], 2 / 3)

    def test_untracked_outside_ops(self):
        tracer = tracing.Tracer()
        with tracer:
            pipeline.fit_xi([1, 2, 3], [0.9, 0.81, 0.729])
        self.assertEqual(len(tracer.name), 0)


if __name__ == "__main__":
    unittest.main()
