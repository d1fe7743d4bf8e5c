#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs every workload at smoke-test size through perfbench/run.py (building the
workload program first, as run.py does) and checks that:
  * each run passes its correctness gate and prints every metric BENCHMARK.json
    declares for the mode, with its unit;
  * the rt observer accounts for every message: paired deliveries plus unpaired
    sends equal the runtime's delivered + dropped counts;
  * one seed gives identical deterministic metrics twice, and another seed
    still passes the gate;
  * rt workloads refuse to run on fewer processors than their runtime
    workers, and the benchmark fails without printing a result where the
    repository sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ["rt-open", "rt-batch-hot", "sim-failover", "sim-failover-rdma"]
DETERMINISTIC = ["committed_fraction", "msgs_per_txn", "delays_p50", "delays_p99",
                 "unavailable_ticks", "reads_served_fraction"]
# On rt workloads only the simulator twin's metrics repeat exactly.
TWIN_DETERMINISTIC = ["delays_p50", "delays_p99", "unavailable_ticks",
                      "reads_served_fraction"]


def invoke(workload, seed, trace, cwd=ROOT, script=None, cpus=None):
    """Runs one tiny workload; `cpus` restricts the processors it may use."""
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          universal_newlines=True, timeout=600, preexec_fn=pin)
    lines = proc.stdout.strip().splitlines()
    context = None
    result = None
    for line in lines:
        if line.startswith("context "):
            context = json.loads(line[len("context "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, context, result


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class EveryMetric(unittest.TestCase):
    def test_each_workload_emits_every_declared_metric(self):
        for trace in (0, 1):
            want = declared(trace)
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    rc, ctx, res = invoke(w, 1, trace)
                    self.assertEqual(rc, 0, ctx)
                    self.assertTrue(res["correct"], ctx)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for key in ("nproc", "workers", "build_type", "aborted", "undecided"):
                        self.assertIn(key, ctx)


class RtTap(unittest.TestCase):
    def test_pairing_accounts_for_every_message(self):
        for w in ("rt-open", "rt-batch-hot"):
            with self.subTest(workload=w):
                rc, ctx, res = invoke(w, 2, 1)
                self.assertEqual(rc, 0, ctx)
                paired = int(ctx["tap.paired"])
                unpaired = int(ctx["tap.unpaired_sends"])
                self.assertGreater(paired, 0)
                self.assertEqual(paired + unpaired, int(ctx["tap.delivered_plus_dropped"]))


class Determinism(unittest.TestCase):
    def test_one_seed_repeats_exactly(self):
        for w in WORKLOADS:
            names = DETERMINISTIC if w.startswith("sim-") else TWIN_DETERMINISTIC
            with self.subTest(workload=w):
                runs = [invoke(w, 5, 0) for _ in range(2)]
                for rc, ctx, _ in runs:
                    self.assertEqual(rc, 0, ctx)
                values = [{n: res["metrics"][n]["value"] for n in names} for _, _, res in runs]
                self.assertEqual(values[0], values[1])
                self.assertEqual(runs[0][1]["sim.fingerprint"], runs[1][1]["sim.fingerprint"])

    def test_another_seed_passes_the_gate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, ctx, res = invoke(w, 6, 0)
                self.assertEqual(rc, 0, ctx)
                self.assertTrue(res["correct"], ctx)


class Refusals(unittest.TestCase):
    def test_rt_refuses_fewer_processors_than_workers(self):
        one_cpu = {min(os.sched_getaffinity(0))}
        for w in ("rt-open", "rt-batch-hot"):
            with self.subTest(workload=w):
                rc, _, res = invoke(w, 1, 0, cpus=one_cpu)
                self.assertEqual(rc, 2)
                self.assertIsNone(res)

    def test_fails_without_the_repository_sources(self):
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env_dir = os.environ.pop("CARGO_TARGET_DIR", None)
        try:
            rc, _, res = invoke("sim-failover", 1, 0, cwd=bare,
                                script=os.path.join(bare, "perfbench", "run.py"))
        finally:
            if env_dir is not None:
                os.environ["CARGO_TARGET_DIR"] = env_dir
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(res)


if __name__ == "__main__":
    if run.build() is None:
        sys.exit("perfbench: build failed")
    unittest.main()
