"""The benchmark's workloads: census sweeps and a surgery query stream.

Every workload calls fillperm's public API (the surgery stream goes through
`fillperm.cli.main`, in process) and checks every result.  A wrong result, an
unexpected exit code or an exception counts as one failed operation and the
run goes on; a failure never ends a run and never counts as a negative answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from fillperm import (
    Permutation,
    census_records,
    generators,
    read_census,
    twist_group,
    validate,
    write_census,
)
from fillperm import cli

from calibrate import reference_seconds, scale
from fixtures import FIXTURES, HOSTS, PIECES

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# (n, single_cycle) for each census_records call of one pass
CENSUS_PASSES = {
    # the paper's genus-3 classification: 600 solutions, 5 orbits
    "census-g3": ((5, True),),
    # the CLI's default mode at every n up to its default bound: 4,282 solutions, 43 orbits
    "census-general": tuple((n, False) for n in range(1, 6)),
    # the paper's genus-4 classification: 65,856 solutions, 168 orbits
    "census-g4": ((7, True),),
}

# Every stream round assembles one pair of each of these genera.
TARGET_GENERA = (4, 5, 6, 7, 8)
MAX_REPORTED_FAILURES = 5


@dataclass
class Samples:
    """Raw measurements of one run, pass by pass."""

    latencies: list[list[float]] = field(default_factory=list)  # seconds per operation, per pass
    refs: list[float] = field(default_factory=list)  # reference seconds around the passes
    span_marks: list[int] = field(default_factory=list)  # tracer spans recorded by each pass's end
    first_pass_rss_mb: float = 0.0  # peak resident memory through set-up and the first pass
    attempted: int = 0
    failed: int = 0

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {what}: {detail.rstrip()}", file=sys.stderr)

    def scales(self) -> list[float]:
        return [scale(before, after) for before, after in zip(self.refs, self.refs[1:])]

    def calibrated_latencies(self) -> list[float]:
        return [x * k for lat, k in zip(self.latencies, self.scales()) for x in lat]

    def calibrated_passes(self) -> list[float]:
        return [sum(lat) * k for lat, k in zip(self.latencies, self.scales())]


def measure(one_pass, seconds: float, tracer=None) -> Samples:
    """Run whole passes until `seconds` have gone by (at least one).

    The reference computation runs before the first pass and after each one,
    so every pass can be calibrated by the runs on either side of it.  Peak
    memory is read after the first pass: later passes raise it by amounts
    that depend on when the cycle collector runs (`enumerate_filling` leaves
    its solution list in a reference cycle), and a CLI call runs one pass.
    """
    samples = Samples()
    samples.refs.append(reference_seconds())
    deadline = time.perf_counter() + seconds
    while True:
        samples.latencies.append(one_pass(samples, tracer))
        if len(samples.latencies) == 1:
            samples.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples.refs.append(reference_seconds())
        if tracer is not None:
            samples.span_marks.append(len(tracer.spans))
        if time.perf_counter() >= deadline:
            return samples


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def pair_path(work_dir: Path, name: str) -> str:
    return str(work_dir / f"{name}.pair")


def golden_name(n: int, single_cycle: bool) -> str:
    return f"census_{'single' if single_cycle else 'general'}_n{n}.jsonl"


class CensusWorkload:
    """Repeated census passes, each record file compared byte for byte with its golden file."""

    def __init__(self, calls, golden_dir: Path, work_dir: Path):
        self.calls = calls
        self.golden = {
            (n, sc): (golden_dir / golden_name(n, sc)).read_bytes() for n, sc in calls
        }
        self.out = work_dir / "census.jsonl"
        for n, _ in calls:
            twist_group(n)  # builds the relabeling-group closure census_records uses

    def run(self, seconds: float, tracer=None) -> Samples:
        return measure(self.one_pass, seconds, tracer)

    def one_pass(self, samples: Samples, tracer=None) -> list[float]:
        """One census_records call per entry of the pass; returns their latencies."""
        latencies = []
        for n, single_cycle in self.calls:
            samples.attempted += 1
            records = None
            t0 = time.perf_counter()
            try:
                with _span(tracer, "census.census_records"):
                    _, records = census_records(n, single_cycle=single_cycle)
            except Exception:
                samples.fail(f"census n={n}", traceback.format_exc())
            latencies.append(time.perf_counter() - t0)
            if records is not None:
                write_census(records, self.out)
                if self.out.read_bytes() != self.golden[(n, single_cycle)]:
                    samples.fail(f"census n={n}", "records differ from the golden file")
        return latencies


@dataclass(frozen=True)
class Query:
    """One CLI call of the surgery stream and what its answer must be."""

    kind: str  # the CLI command
    argv: tuple[str, ...]
    expect_code: int
    pair: str  # the pair the query is about
    genus: int = 0  # expected genus of `pair`
    k: int = 0  # genus of the piece spliced into `pair`
    expected: tuple[str, ...] = ()  # fixtures the output must equal bit for bit
    relabel: tuple[int, int, int, int] | None = None  # powers of (kappa, delta, eta, mu)


class QueryStream:
    """A seeded, closed-loop stream of CLI queries from one client.

    Each round holds the four fixture checks and, for each result genus 4..8
    in a seeded order, one chain: assemble a host with a piece at a seeded
    site, then ask `info`, `decompose`, `roundtrip --k` and `equivalent`
    against a seeded relabeling.  Hosts are the minimal fixtures, the genus-3
    census representatives and pairs assembled earlier in the stream.

    The host genus and piece of a chain set most of its cost (a genus-1 host,
    for one, makes every splitting a k = g-1 round trip).  So each target
    genus cycles through its (host genus, piece) kinds in a seeded order:
    every run holds each kind about equally often, and a seed changes only
    which pairs, sites and relabelings are used.
    """

    def __init__(self, seed: int, work_dir: Path, extra_hosts: dict[str, int]):
        self.rng = random.Random(seed)
        self.work = work_dir
        self.hosts = {**HOSTS, **extra_hosts}  # name -> genus
        self.host_genera = sorted(set(self.hosts.values()))
        self.kinds = {}
        for g in TARGET_GENERA:
            kinds = [(hg, piece) for hg in self.host_genera for piece, k in PIECES.items()
                     if hg + k == g]
            self.rng.shuffle(kinds)
            self.kinds[g] = kinds
        self.rounds = 0
        self.made = 0

    def path(self, name: str) -> str:
        return pair_path(self.work, name)

    def _query(self, kind, args, expect_code, pair, **kw) -> Query:
        return Query(kind, (kind, *args, "--format", "record"), expect_code, pair, **kw)

    def next_round(self) -> list[Query]:
        p = self.path
        q = self._query
        queries = [
            # criterion 2: sigma_f # sigma_z at (3, 2) is sigma_f6
            q("assemble", ("--host", p("sigma_f"), "--piece", p("sigma_z"), "--i", "3",
                           "--j", "2", "--out", p("criterion2")),
              0, "criterion2", genus=6, k=3, expected=("sigma_f6",)),
            # criterion 4: the k=5 and k=2 splittings recover z5 and zeta_prime on a torus
            q("extract", (p("sigma_f6"), "--x", "23", "--a", "38", "--y", "1", "--b", "16",
                          "--k", "5"),
              0, "sigma_f6", genus=6, k=5, expected=("z5", "f1")),
            q("extract", (p("sigma_f"), "--x", "1", "--a", "4", "--y", "11", "--b", "14",
                          "--k", "2"),
              0, "sigma_f", genus=3, k=2, expected=("zeta_prime", "f1")),
            # a known negative: the two genus-2 pieces are not homeomorphic
            q("equivalent", (p("zeta"), p("zeta_prime")), 1, "zeta", genus=2),
        ]
        targets = list(TARGET_GENERA)
        self.rng.shuffle(targets)
        for g in targets:
            hg, piece = self.kinds[g][self.rounds % len(self.kinds[g])]
            k = PIECES[piece]
            host = self.rng.choice([h for h, genus in self.hosts.items() if genus == hg])
            site = self.rng.randrange(1, 2 * (2 * hg - 1), 2)  # a positive odd host edge
            n = 2 * g - 1
            relabel = (self.rng.randrange(n), self.rng.randrange(n),
                       self.rng.randrange(2), self.rng.randrange(2))
            name = f"s{self.made}"
            self.made += 1
            queries += [
                q("assemble", ("--host", p(host), "--piece", p(piece), "--i", str(site),
                               "--out", p(name)), 0, name, genus=g, k=k),
                q("info", (p(name),), 0, name, genus=g, k=k),
                q("decompose", (p(name),), 0, name, genus=g, k=k),
                q("roundtrip", (p(name), "--k", str(k)), 0, name, genus=g, k=k),
                q("equivalent", (p(name), p(f"{name}_relabeled")), 0, name, genus=g, k=k,
                  relabel=relabel),
            ]
            if g in self.host_genera:
                self.hosts[name] = g
        self.rounds += 1
        return queries


def relabeling(n: int, powers: tuple[int, int, int, int]) -> Permutation:
    kappa, delta, eta, mu = generators(n)
    a, b, c, d = powers
    return kappa**a * delta**b * eta**c * mu**d


class SurgeryWorkload:
    """The surgery query stream, issued through `fillperm.cli.main` with `--format record`."""

    def __init__(self, seed: int, golden_dir: Path, work_dir: Path):
        self.work = work_dir
        self.pairs = {}
        for name, (text, n) in FIXTURES.items():
            self._keep(name, validate(Permutation.from_cycle_string(text, 4 * n), n))
        reps = read_census(golden_dir / golden_name(5, True))
        for idx, rec in enumerate(reps):
            self._keep(f"g3_{idx}", validate(Permutation(rec.canonical_form), rec.n))
        self.stream = QueryStream(seed, work_dir, {f"g3_{idx}": 3 for idx in range(len(reps))})
        self.relabeled: dict[str, Permutation] = {}
        # Closures of every group the `equivalent` queries search.
        for n in {FIXTURES["zeta"][1], *(2 * g - 1 for g in TARGET_GENERA)}:
            twist_group(n)

    def _keep(self, name, fp) -> None:
        self.pairs[name] = fp
        cli.write_filling_file(pair_path(self.work, name), fp)

    def run(self, seconds: float, tracer=None) -> Samples:
        return measure(self.one_pass, seconds, tracer)

    def one_pass(self, samples: Samples, tracer=None) -> list[float]:
        """One round of the stream; returns the latency of each query."""
        return [self.issue(query, samples, tracer) for query in self.stream.next_round()]

    def issue(self, query: Query, samples: Samples, tracer=None) -> float:
        """Run one query, check it, and return its latency in seconds."""
        if query.relabel is not None and query.pair in self.pairs:
            fp = self.pairs[query.pair]
            copy = validate(fp.sigma.conjugated_by(relabeling(fp.n, query.relabel)), fp.n)
            self.relabeled[query.pair] = copy.sigma
            cli.write_filling_file(pair_path(self.work, f"{query.pair}_relabeled"), copy)
        samples.attempted += 1
        out = io.StringIO()
        problem = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                with _span(tracer, f"cli.{query.kind}"):
                    code = cli.main(list(query.argv))
        except SystemExit as exc:  # argparse rejects a malformed command line this way
            code = exc.code
        except Exception:
            code = None
            problem = "raised " + traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if problem is None and code != query.expect_code:
            problem = f"exit code {code}, expected {query.expect_code}"
        if problem is None:
            try:
                problem = self.check(query, json.loads(out.getvalue().splitlines()[-1]))
            except (IndexError, KeyError, TypeError, ValueError) as exc:
                problem = f"malformed output {out.getvalue()[:200]!r}: {exc!r}"
        if problem is not None:
            samples.fail(" ".join(query.argv), problem)
        return elapsed

    def check(self, query: Query, payload: dict) -> str | None:
        """None when the CLI's answer is right, else what is wrong with it."""
        kind = query.kind
        if kind == "assemble":
            fp = validate(Permutation.from_record(payload))
            if payload["genus"] != query.genus or not fp.is_minimal() or fp.genus() != query.genus:
                return f"assembled pair is not a minimal genus-{query.genus} pair"
            if query.expected and fp.sigma != self.pairs[query.expected[0]].sigma:
                return f"assembled pair differs from {query.expected[0]}"
            self.pairs[query.pair] = fp
        elif kind == "info":
            if (payload["genus"], payload["c"], payload["minimal"]) != (query.genus, 1, True):
                return f"info reports genus {payload['genus']}, c={payload['c']}"
        elif kind == "decompose":
            if not any(d["k"] == query.k for d in payload["decompositions"]):
                return f"no decomposition with piece genus {query.k}"
        elif kind == "roundtrip":
            n = 2 * query.genus - 1
            trips = payload["roundtrips"]
            if not trips or any(
                t["k"] != query.k or not (0 <= t["p"] < n and 0 <= t["q"] < n) for t in trips
            ):
                return f"round trips {trips!r} do not match piece genus {query.k}"
        elif kind == "extract":
            piece = Permutation.from_record(payload["piece"])
            remainder = Permutation.from_record(payload["remainder"])
            want_piece, want_remainder = (self.pairs[name].sigma for name in query.expected)
            if piece != want_piece or remainder != want_remainder:
                return f"extraction differs from {query.expected}"
        elif kind == "equivalent":
            if query.expect_code == 1:
                return None if payload["equivalent"] is False else "claims a witness"
            witness = Permutation.from_record(payload["witness"])
            if self.pairs[query.pair].sigma.conjugated_by(witness) != self.relabeled[query.pair]:
                return "witness does not carry the pair to its relabeled copy"
        return None


def make(workload: str, seed: int, work_dir: Path):
    """Set up a workload: its inputs built, its golden files read, its caches warm."""
    if workload == "surgery":
        return SurgeryWorkload(seed, GOLDEN_DIR, work_dir)
    return CensusWorkload(CENSUS_PASSES[workload], GOLDEN_DIR, work_dir)
