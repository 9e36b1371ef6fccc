"""Self-tests of the benchmark: determinism, failure counting, smoke runs.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qpath import cli, pathsum, tensornet  # noqa: E402
from spans import Tracer, contract_peak_bytes  # noqa: E402

TINY = {
    "verify-deep": ((2, 3, 1), (3, 2, 2)),
    "paths-listing": ((2, 3, True), (3, 2, False)),
    "contract-wide": (("doc", 2, 3, True), ("doc", 3, 2, False), ("ring", 2, 4),
                      ("cut", 3, 3), ("grid", 2, 2)),
}


def tiny(name: str, seed: int = 5):
    cls = workloads.WORKLOADS[name]
    return cls(seed, ROOT, grid=TINY.get(name))


class TestGenerator:
    def test_same_seed_same_inputs(self):
        for seed in (0, 7):
            a = gen.circuit_doc(gen.rng_for(seed, 1), 3, 5)
            b = gen.circuit_doc(gen.rng_for(seed, 1), 3, 5)
            assert a.text == b.text
            assert all(np.array_equal(x, y) for x, y in zip(a.mats, b.mats))
            assert gen.chain_doc(gen.rng_for(seed, 2), 4, 6, True).text == \
                gen.chain_doc(gen.rng_for(seed, 2), 4, 6, True).text
            assert gen.broken_doc(gen.rng_for(seed, 3)) == gen.broken_doc(gen.rng_for(seed, 3))
            x = gen.grid_tensors(gen.rng_for(seed, 4), 2, 3)
            y = gen.grid_tensors(gen.rng_for(seed, 4), 2, 3)
            assert all(np.array_equal(p, q) for p, q in zip(x, y))

    def test_different_seeds_differ(self):
        assert gen.circuit_doc(gen.rng_for(1, 1), 2, 6).text != gen.circuit_doc(gen.rng_for(2, 1), 2, 6).text

    def test_literals_parse_back_exactly(self):
        spec = gen.circuit_doc(gen.rng_for(3, 1), 4, 6)
        doc = workloads.parse_doc(spec.text)
        for got, want in zip(doc.circuit_layers("c"), spec.mats):
            assert np.array_equal(got, want)

    def test_workload_rounds_repeat_per_seed(self):
        for name in TINY:
            first = [op.kind for op in tiny(name).setup()]
            assert first == [op.kind for op in tiny(name).setup()]


class TestFailures:
    def test_each_tiny_workload_passes(self):
        for name in TINY:
            tally = run.Tally()
            tally.run_round(tiny(name).setup())
            assert tally.failed == 0, tally.reasons

    def test_corrupted_output_counts_as_failure(self):
        ops = tiny("paths-listing").setup()

        def corrupt(op):
            def call():
                text, code = op.call()
                return text.replace("e-01", "e-02", 1), code

            return workloads.Op(op.kind, call, op.check)

        listings = [op for op in ops if op.kind.startswith("paths-")]
        tally = run.Tally()
        tally.run_round([corrupt(op) for op in listings] + ops)
        assert tally.failed == len(listings)

    def test_wrong_exit_code_and_exception_count_as_failures(self):
        op = tiny("verify-deep").setup()[0]
        wrong_code = workloads.Op("code", lambda: ("PASS max_deviation 0.0\n", 3), op.check)

        def boom():
            raise MemoryError

        tally = run.Tally()
        tally.run_round([wrong_code, workloads.Op("raises", boom, op.check), op])
        assert tally.failed == 2
        assert set(tally.reasons) == {"code", "raises"}

    def test_cli_output_compared_byte_for_byte(self):
        case = workloads.CliStartup(5, ROOT).cases(ROOT / ".bench_out" / "test-inputs")[0]
        check = workloads._check_process(case)
        good = subprocess.CompletedProcess([], 0, case.stdout, b"")
        assert check(good) is None
        assert check(subprocess.CompletedProcess([], 0, case.stdout + b" ", b"")) is not None
        assert check(subprocess.CompletedProcess([], 2, case.stdout, b"x")) is not None

    def test_in_process_cli_cases_pass(self):
        tally = run.Tally()
        tally.run_round(workloads.CliStartup(5, ROOT).in_process_ops())
        assert tally.failed == 0, tally.reasons

    def test_memory_guard_turns_an_oversized_contraction_into_a_failed_op(self):
        code = (
            "import resource, sys\n"
            f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]\n"
            "import gen, run, workloads\n"
            "wide = workloads.ContractWide(1, None, grid=())\n"
            "op = wide._grid(gen.rng_for(1), 4, 5)\n"
            "wide._grid(gen.rng_for(2), 2, 2).call()  # BLAS allocates its buffers before the limit\n"
            "vm = int(open('/proc/self/status').read().split('VmSize:')[1].split()[0]) * 1024\n"
            "resource.setrlimit(resource.RLIMIT_AS, (vm + 8 * 2**20, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "tally = run.Tally()\n"
            "tally.run_round([op])\n"
            "print(tally.failed, list(tally.reasons.values())[0].split(':')[0])\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.stdout.split() == ["1", "MemoryError"], proc.stderr


class TestTracing:
    def test_counts_are_exact_and_originals_restored(self):
        original = cli.run_command
        ops = tiny("verify-deep").setup()
        tracer = Tracer()
        with tracer.patched():
            assert cli.run_command is not original
            for k, op in enumerate(ops):
                with tracer.span("op", op=k):
                    op.call()
        assert cli.run_command is original
        assert pathsum.enumerate_paths.__name__ == "enumerate_paths"
        m = tracer.layer_metrics("op")
        assert m["pathsum.enumerate.paths"] == 2**4 + 2 * 3**3
        assert m["pathsum.matrix.calls_per_op"] == (2 + 3 + 3) / 3
        assert 0 <= m["trace.unattributed_share"] < 1

    def test_self_times_account_for_op_time(self):
        tracer = Tracer()
        ops = tiny("contract-wide").setup()
        with tracer.patched():
            for k, op in enumerate(ops):
                with tracer.span("op", op=k):
                    op.call()
        total = sum(s.duration for s in tracer.spans if s.name == "op")
        assert sum(s.self_s for s in tracer.spans) == pytest.approx(total)
        assert tracer.layer_metrics("op")["tensornet.contract.calls"] == len(ops)

    def test_allocation_peak_is_measured_apart_and_restored(self):
        original = tensornet.Network.__dict__["contract"]
        ops = tiny("contract-wide").setup()
        with contract_peak_bytes() as peak:
            assert tensornet.Network.__dict__["contract"] is not original
            ops[-1].call()
        assert tensornet.Network.__dict__["contract"] is original
        assert peak[0] > 0


def _record(workload, seed, value, failed=0):
    return {"workload": workload, "seed": seed, "trace": 0, "failed": failed,
            "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}}


class TestCompare:
    def test_verdicts(self):
        assert compare.verdict([10.0] * 10, [12.0] * 10, 10, 10, "higher", 0.1) == "gain"
        assert compare.verdict([10.0] * 10, [8.0] * 10, 0, 10, "higher", 0.1) == "regression"
        noisy = [5.0, 15.0] * 5
        assert compare.verdict(noisy, [10.5] * 10, 5, 10, "higher", 0.1) == "unresolved"
        assert compare.verdict([10.0] * 10, [9.95] * 10, 0, 10, "higher", 0.1) == "within bound"
        assert compare.verdict([10.0] * 10, [12.0] * 10, 10, 10, "higher", 0.1, more_failures=True) \
            == "within bound"

    def test_report_pairs_by_seed(self, tmp_path, capsys):
        parent, change = tmp_path / "p.jsonl", tmp_path / "c.jsonl"
        parent.write_text("".join(json.dumps(_record("w", s, 10.0 + s * 0.01)) + "\n" for s in range(10)))
        change.write_text("".join(json.dumps(_record("w", s, 13.0 + s * 0.01)) + "\n" for s in range(10)))
        compare.report(parent, change)
        line = [l for l in capsys.readouterr().out.splitlines() if "ops_per_s" in l][0]
        assert "wins 10/10" in line and line.endswith("gain")

    def test_more_failed_ops_refuse_a_gain(self, tmp_path, capsys):
        parent, change = tmp_path / "p.jsonl", tmp_path / "c.jsonl"
        parent.write_text("".join(json.dumps(_record("w", s, 10.0)) + "\n" for s in range(10)))
        change.write_text("".join(json.dumps(_record("w", s, 13.0, failed=s == 4)) + "\n" for s in range(10)))
        compare.report(parent, change)
        out = capsys.readouterr().out
        assert "fails more ops" in out
        assert not [l for l in out.splitlines() if "ops_per_s" in l][0].endswith("gain")


class TestRunScript:
    def test_smoke_run_prints_the_contract_line(self, tmp_path):
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "contract-wide", "--seed", "3",
                 "--seconds", "0.1", "--trace", trace, "--out", str(tmp_path / "r.jsonl")],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            names = {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
            assert set(result["metrics"]) == names
            if trace == "1":  # contract-wide contracts, but starts no CLI process
                assert result["metrics"]["tensornet.contract.rss_growth_mb"]["value"] > 0
                for name in run.STARTUP_METRICS:
                    assert result["metrics"][name]["value"] == 0

    def test_refuses_without_sources(self, tmp_path):
        (tmp_path / "bench").mkdir()
        for f in (ROOT / "bench").glob("*.py"):
            (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
        (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "verify-deep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0 and proc.stdout == ""
