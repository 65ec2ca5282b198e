"""Tests of the benchmark itself: its statistics, its query stream and its failure accounting.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

from __future__ import annotations

import shutil

import pytest

import run
import workloads
from fillperm import CaseGap, cli


@pytest.mark.parametrize(
    "n, expected",
    [(10000, 99.9), (1000, 99.0), (200, 95.0), (150, 90.0), (21, 50.0), (19, None)],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    assert run.tail_percentile(list(range(n))) == expected


def test_tail_percentile_agrees_with_percentile():
    for n in range(1, 400):
        samples = list(range(n))
        chosen = run.tail_percentile(samples)
        for p in run.TAIL_CANDIDATES:
            beyond = sum(x > run.percentile(samples, p) for x in samples)
            if chosen is not None and p == chosen:
                assert beyond >= 10
                break
            assert beyond < 10


def test_same_seed_gives_the_same_stream(tmp_path):
    def rounds(seed):
        stream = workloads.QueryStream(seed, tmp_path, {"g3_0": 3})
        return [stream.next_round() for _ in range(4)]

    assert rounds(7) == rounds(7)
    assert rounds(7) != rounds(8)


def test_corrupted_golden_line_counts_as_one_failure(tmp_path):
    golden = tmp_path / "golden"
    golden.mkdir()
    calls = tuple((n, False) for n in (1, 2, 3))
    for n, single in calls:
        name = workloads.golden_name(n, single)
        shutil.copy(workloads.GOLDEN_DIR / name, golden / name)
    target = golden / workloads.golden_name(2, False)
    lines = target.read_text().splitlines(keepends=True)
    lines[-1] = lines[-1].replace('"decomposable":false', '"decomposable":true')
    target.write_text("".join(lines))

    samples = workloads.CensusWorkload(calls, golden, tmp_path).run(0)

    assert (samples.attempted, samples.failed) == (3, 1)


@pytest.fixture
def surgery(tmp_path):
    return workloads.SurgeryWorkload(3, workloads.GOLDEN_DIR, tmp_path)


def test_malformed_cli_output_counts_as_failures(surgery, monkeypatch):
    def garbled(argv):
        print("not a record")
        return 0

    monkeypatch.setattr(cli, "main", garbled)
    samples = surgery.run(0)
    assert samples.attempted == len(samples.latencies[0]) == 29
    assert samples.failed == samples.attempted


def test_exceptions_and_wrong_exit_codes_count_as_failures(surgery, monkeypatch):
    def gap(*args, **kwargs):
        raise CaseGap("injected")

    monkeypatch.setattr(cli, "find_decompositions", lambda fp, k=None: [])
    monkeypatch.setattr(cli, "are_equivalent", gap)
    samples = surgery.run(0)
    # every decompose and roundtrip answers "no decomposition" (exit 1) and every
    # equivalent raises, the known negative included: 5 + 5 + 6 failures
    assert samples.attempted == 29
    assert samples.failed == 16
