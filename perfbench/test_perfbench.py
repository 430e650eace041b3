#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; builds the benchmark like `run.py` does.
Covers the BENCHMARK.json contract, the C++ self test (seeded inputs are
reproducible and seed-sensitive; a flipped aggregation label and a perturbed
solution entry fail the correctness checks), a tiny-size smoke run of every
workload in both trace modes that must print every metric BENCHMARK.json
names with its unit, per-workload input digests across seeds, the refusal
to run without the library sources, and the compare command.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(workload, seed, trace, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, env=env, timeout=600)


def notes(stdout):
    out = {}
    for ln in stdout.splitlines():
        if ln.startswith("# ") and ": " in ln:
            k, v = ln[2:].split(": ", 1)
            out.setdefault(k, v)
    return out


class BenchmarkTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        cls.exe = run.build()
        if cls.exe is None:
            raise RuntimeError("perfbench build failed")
        cls.bench = load_benchmark()

    def test_benchmark_json_contract(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end",
                                  "per_layer"})
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = [w["name"] for w in b["workloads"]] + [m["name"] for m in b["end_to_end"]] + \
            [m["name"] for m in b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))
        self.assertEqual(b["paths"], ["perfbench"])

    def test_selftest(self):
        p = subprocess.run([self.exe, "--selftest"], capture_output=True, text=True, timeout=600)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertNotIn("FAIL", p.stdout)

    def test_smoke_every_workload_prints_every_metric(self):
        for w in self.bench["workloads"]:
            for trace, specs in ((0, self.bench["end_to_end"]), (1, self.bench["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    p = run_bench(w["name"], 1, trace)
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    res = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(set(res["metrics"]), {m["name"] for m in specs})
                    for m in specs:
                        got = res["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        if trace == 0:
                            self.assertGreater(got["value"], 0, m["name"])

    def test_input_digest_follows_seed(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                d = [notes(run_bench(w["name"], s, 0).stdout).get("input_digest")
                     for s in (5, 5, 6)]
                self.assertIsNotNone(d[0])
                self.assertEqual(d[0], d[1])
                self.assertNotEqual(d[0], d[2])

    def test_refuses_without_library_sources(self):
        iso = os.path.join(ROOT, run.build_root(), "isolated")
        shutil.rmtree(iso, ignore_errors=True)
        os.makedirs(iso)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
        shutil.copytree(HERE, os.path.join(iso, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        cmd = [sys.executable, "perfbench/run.py", "--workload", "coarsen_rgg", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        p = subprocess.run(cmd, cwd=iso, capture_output=True, text=True, env=env, timeout=180)
        shutil.rmtree(iso, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)

    def test_compare_joins_and_refuses_foreign_hosts(self):
        rdir = os.path.join(ROOT, run.build_root(), "results")
        self.assertEqual(run_bench("serve_mesh", 9, 0).returncode, 0)
        src = os.path.join(rdir, "serve_mesh-trace0-seed9-tiny.json")
        base = os.path.join(ROOT, run.build_root(), "cmp_base")
        other = os.path.join(ROOT, run.build_root(), "cmp_other")
        for d in (base, other):
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
        shutil.copy(src, base)
        with open(src) as fh:
            rec = json.load(fh)
        rec["provenance"]["nproc"] = rec["provenance"]["nproc"] + 1
        with open(os.path.join(other, os.path.basename(src)), "w") as fh:
            json.dump(rec, fh)
        compare = [sys.executable, os.path.join(HERE, "compare.py")]
        same = subprocess.run(compare + [base, base], capture_output=True, text=True)
        self.assertEqual(same.returncode, 0, same.stdout + same.stderr)
        self.assertIn("op_ms_p50", same.stdout)
        # One base run cannot resolve a bound; three equal ones can.
        self.assertIn("unresolved", same.stdout)
        self.assertNotIn(" ok ", same.stdout)
        foreign = subprocess.run(compare + [base, other], capture_output=True, text=True)
        self.assertEqual(foreign.returncode, 2, foreign.stdout + foreign.stderr)
        with open(src) as fh:
            rec = json.load(fh)
        for seed in (10, 11):
            rec["seed"] = seed
            with open(os.path.join(base, "seed%d.json" % seed), "w") as fh:
                json.dump(rec, fh)
        three = subprocess.run(compare + [base, base], capture_output=True, text=True)
        self.assertEqual(three.returncode, 0, three.stdout + three.stderr)
        self.assertIn(" ok ", three.stdout)
        self.assertNotIn("unresolved", three.stdout)
        # Runs of another length are not joined.
        shutil.rmtree(other)
        os.makedirs(other)
        rec["seconds"] = rec["seconds"] + 1
        with open(os.path.join(other, "longer.json"), "w") as fh:
            json.dump(rec, fh)
        longer = subprocess.run(compare + [base, other], capture_output=True, text=True)
        self.assertEqual(longer.returncode, 0, longer.stdout + longer.stderr)
        self.assertIn("unmatched", longer.stdout)
        self.assertNotIn("op_ms_p50", longer.stdout)
        for d in (base, other):
            shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
