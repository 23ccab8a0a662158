"""Input generators and the four benchmark workloads.

A workload turns a seed into inputs, then serves them as passes: lists of
jobs with the same shape every pass.  A run makes a fixed number of
passes (`Workload.passes`), so one seed and length always give the same
jobs.  A job is one user request; `run` performs it and `check` verifies
its output independently.  Generators use only the standard library and their own exact
rank, so the program under test receives generated inputs and nothing else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"
RUN_DIR = ".bench_run"  # inputs and spans, relative to the checkout root

# The sweep's generator is the one acceptance criterion 2 uses, at its seed.
ENTRY_POOL = [-1, 0, 0, 0, 1, 2]
CRITERION2_SEED = 20260810


class JobFailed(Exception):
    """A job's output failed its correctness check."""


class KnownDefect(JobFailed):
    """A failure of the kind recorded in BENCHMARK.json as a known program defect.

    It counts as a failed job like any other; it does not mark the run's
    outputs incorrect, so that fixing it shows as fewer failed jobs while
    any other failure still marks the run incorrect.
    """


@dataclass
class Job:
    """One user request and what the benchmark knows about it."""

    index: int
    payload: object
    n: int | None = None  # row count of the job's ensemble, when it has one
    counts: dict[str, int] = field(default_factory=dict)  # input-derived work


def int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by exact elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def random_block(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """An n x m full-column-rank block with entries from ENTRY_POOL, as rows."""
    while True:
        rows = [[rng.choice(ENTRY_POOL) for _ in range(m)] for _ in range(n)]
        if int_rank(rows) == m:
            return rows


def random_ensemble(rng: random.Random, max_n: int = 6, max_k: int = 3) -> list[list[list[int]]]:
    """The acceptance suite's ensemble generator, draw for draw."""
    n = rng.randint(2, max_n)
    k = rng.randint(1, max_k)
    ms = [rng.randint(1, min(3, n)) for _ in range(k)]
    return [random_block(rng, n, m) for m in ms]


def column_choices(total_cols: int, size: int) -> int:
    # Tuples (Y_1..Y_K) with Y_i a subset of [m_i] and sum |Y_i| = size.
    return math.comb(total_cols, size)


def c2_masks(n: int, ms: list[int]) -> int:
    """Row masks C2 scans: every R-column choice times every subset of [n]."""
    return column_choices(sum(ms), min(sum(ms), n)) * 2**n


def c5_pairs(n: int, ms: list[int]) -> int:
    """(X, Y) pairs C5 scans: every nonempty row set X with every |X|-column choice."""
    return sum(math.comb(n, s) * column_choices(sum(ms), s) for s in range(1, n + 1))


def ensemble_json(blocks: list[list[list[int]]]) -> dict:
    """The ensemble file format: each block a list of columns."""
    n = len(blocks[0])
    return {
        "n": n,
        "matrices": [[[str(row[j]) for row in block] for j in range(len(block[0]))] for block in blocks],
    }


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def run_cli(api, argv: list[str]) -> tuple[int, dict | None]:
    """Run one command through `cli.main` in-process; return its exit code and report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = api.cli.main(argv)
    text = out.getvalue()
    return code, json.loads(text) if code == 0 and text else None


class Workload:
    """Base: a seed-derived pass-0 input set and one fresh input set per later pass."""

    name = ""
    library_use = False  # False: every job stands for a fresh `rankloss` process
    # Nominal seconds of one pass: a run of --seconds s makes
    # round(s / pass_seconds) passes, which take about s seconds at the seed
    # commit on a 2-vCPU Xeon.
    pass_seconds = 1.0

    def __init__(self, api, workdir: Path):
        self.api = api
        self.workdir = workdir
        self._passes: dict[int, list[Job]] = {}
        self.digest = _digest(self._inputs(0))

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))

    def jobs(self, p: int) -> list[Job]:
        """Jobs of pass p, generated (and written to disk) on first use."""
        if p not in self._passes:
            self._passes.pop(p - 1, None)
            self._passes[p] = self._make_pass(p)
        return self._passes[p]

    def _make_pass(self, p: int) -> list[Job]:
        raise NotImplementedError

    def _inputs(self, p: int):
        raise NotImplementedError

    def run(self, job: Job):
        raise NotImplementedError

    def check(self, job: Job, outcome) -> None:
        raise NotImplementedError


class Sweep(Workload):
    """Acceptance-criterion-2 traffic: `cross_validate` at every tau of one ensemble.

    Each pass has the size classes (n, m_1..m_K) of criterion 2's first
    JOBS_PER_PASS ensembles, in that order, with entries drawn from the
    seed.  Job cost depends mostly on the size class and is heavy-tailed
    across classes, so fixing the classes keeps the figures of different
    seeds comparable while the entries still vary.  Caches persist across
    jobs, as in one long library session.
    """

    name = "sweep"
    library_use = True
    JOBS_PER_PASS = 100
    # 4 passes in 20 s.  The tail (11th slowest of 400 jobs) then falls among
    # the 4 jobs of class (5, [3, 3, 3]), between 8 slower and 12 faster jobs
    # whose classes cost about twice and a third as much.
    pass_seconds = 5.0

    def __init__(self, api, seed, workdir):
        rng = random.Random(CRITERION2_SEED)
        self.shapes = []
        for _ in range(self.JOBS_PER_PASS):
            blocks = random_ensemble(rng)
            self.shapes.append((len(blocks[0]), [len(b[0]) for b in blocks]))
        self.rng = random.Random(seed)
        super().__init__(api, workdir)

    def _inputs(self, p):
        return [(job.payload[0], job.payload[1].seed) for job in self.jobs(p)]

    def _make_pass(self, p):
        api = self.api
        jobs = []
        for i, (n, ms) in enumerate(self.shapes):
            blocks = [random_block(self.rng, n, m) for m in ms]
            ensemble = api.Ensemble(tuple(api.ExactMatrix.from_rows(b) for b in blocks))
            index = p * self.JOBS_PER_PASS + i
            cfg = api.TrialConfig(trials=20, entry_bound=2**31, seed=index)
            counts = {"c2_masks": c2_masks(n, ms), "c5_pairs": c5_pairs(n, ms)}
            jobs.append(Job(index, (blocks, cfg, ensemble), n, counts))
        return jobs

    def run(self, job):
        _, cfg, ensemble = job.payload
        return [self.api.conditions.cross_validate(ensemble, tau, cfg) for tau in range(1, ensemble.R + 1)]

    def check(self, job, outcome):
        # cross_validate raises EquivalenceViolation on disagreement; this
        # guards against a report that claims agreement it does not have.
        if not all(report.agreement for report in outcome):
            raise JobFailed("conditions disagree")


class CertifyWide(Workload):
    """`rankloss certify` on generated K=3, m=4 ensembles with n = 7..10.

    A pass is one ensemble of each n.  Half of the inputs carry one row
    that is zero in every block, so max_tau >= 1 and the C2 witness path
    runs; which half alternates between passes.
    """

    name = "certify-wide"
    K, M = 3, 4
    ROW_COUNTS = (7, 8, 9, 10)
    pass_seconds = 10.0  # 2 passes, 8 jobs in 20 s: the tail is the slowest job

    def __init__(self, api, seed, workdir):
        self.rng = random.Random(f"certify-wide:{seed}")
        super().__init__(api, workdir)

    def _inputs(self, p):
        return [job.payload[1] for job in self.jobs(p)]

    def _make_pass(self, p):
        jobs = []
        for i, n in enumerate(self.ROW_COUNTS):
            zero_row = self.rng.randrange(n) if (i + p) % 2 else None
            blocks = []
            for _ in range(self.K):
                while True:
                    rows = [
                        [0] * self.M if r == zero_row else [self.rng.choice(ENTRY_POOL) for _ in range(self.M)]
                        for r in range(n)
                    ]
                    if int_rank(rows) == self.M:
                        break
                blocks.append(rows)
            data = ensemble_json(blocks)
            path = self.workdir / f"ensemble-{i}.json"
            path.write_text(json.dumps(data))
            ensemble = self.api.fileio.parse_ensemble_data(data)
            counts = {"c2_masks": c2_masks(n, [self.M] * self.K)}
            jobs.append(Job(p * len(self.ROW_COUNTS) + i, (str(path), data, ensemble), n, counts))
        return jobs

    def run(self, job):
        return run_cli(self.api, ["certify", job.payload[0]])

    def check(self, job, outcome):
        code, report = outcome
        if code != 0:
            raise JobFailed(f"certify exited {code}")
        ensemble = job.payload[2]
        cfg = self.api.TrialConfig(trials=5, entry_bound=2**31, seed=job.index)
        expected = ensemble.R - max(self.api.randrank.sample_ranks(ensemble, cfg))
        if report["max_tau"] != expected or report["R"] != ensemble.R:
            raise JobFailed(f"max_tau {report['max_tau']}, sampled rank loss {expected}")
        if expected >= 1 and not report["c2"]["holds"]:
            raise JobFailed("C2 does not hold at max_tau")


def random_topology(rng: random.Random, k: int, odd_cycle: bool) -> list[list[int]]:
    """Interference sets of a K-user topology satisfying P1 and P2.

    Alignment receivers hear exactly two transmitters, and each such pair is
    disjoint from every other receiver's set.  A pair member may itself be
    an alignment receiver, so pairs chain and close cycles at random.  With
    `odd_cycle`, the receivers of 3 or 5 pairs first each interfere at the
    next one, so the reduced conflict graph has an odd cycle and chi = 3.
    Every other receiver hears at most one transmitter outside all pairs.
    """
    users = list(range(1, k + 1))
    rng.shuffle(users)
    sets: dict[int, set[int]] = {u: set() for u in users}
    members: set[int] = set()
    if odd_cycle:
        length = rng.choice((3, 5)) if k >= 10 else 3
        cycle = users[:length]
        for i, r in enumerate(cycle):
            sets[r] = {cycle[(i + 1) % length], users[length + i]}
        members |= set(users[: 2 * length])
    for _ in range(rng.randint(0 if odd_cycle else 1, (k - len(members)) // 3)):
        receivers = [u for u in users if not sets[u] and len(set(users) - members - {u}) >= 2]
        if not receivers:
            break
        r = rng.choice(receivers)
        sets[r] = set(rng.sample(sorted(set(users) - members - {r}), 2))
        members |= sets[r]
    outsiders = sorted(set(users) - members)
    for j in users:
        if not sets[j] and rng.random() < 0.5:
            choices = [t for t in outsiders if t != j]
            if choices:
                sets[j] = {rng.choice(choices)}
    out = [sorted(sets[j]) for j in range(1, k + 1)]
    pairs = [s for s in out if len(s) == 2]
    assert all(set(p).isdisjoint(s) for p in pairs for s in out if s is not p), "P2 violated"
    return out


class TimExclusive(Workload):
    """`tim dof`, `tim scheme --kind exclusive`, `tim verify`, `tim normalize`.

    A job takes one topology through all four commands.  A pass is the
    fixtures T6 and T9a, then one generated topology for each K in 9..20;
    every other one, alternating by K and by pass, has a planted odd cycle
    (chi = 3), the rest chi = 3 only where random pairs close one.  T9b is
    left out: it violates P2, so the exclusive scheme refuses it by design
    (its README commands run in `readme`).
    """

    name = "tim-exclusive"
    FIXTURES = ("T6", "T9a")
    USER_COUNTS = tuple(range(9, 21))
    pass_seconds = 1.5  # 13 passes, 182 jobs in 20 s

    def __init__(self, api, seed, workdir):
        self.rng = random.Random(f"tim-exclusive:{seed}")
        super().__init__(api, workdir)

    def _inputs(self, p):
        return [job.payload[2] for job in self.jobs(p)]

    def _make_pass(self, p):
        jobs = []
        topologies = [(f"fixtures/{name}.json", None) for name in self.FIXTURES]
        for i, k in enumerate(self.USER_COUNTS):
            sets = random_topology(self.rng, k, odd_cycle=(i + p) % 2 == 0)
            path = self.workdir / f"topology-{i}.json"
            path.write_text(json.dumps({"K": k, "interference_sets": sets}))
            topologies.append((str(path), sets))
        for i, (path, sets) in enumerate(topologies):
            scheme_path = str(self.workdir / f"scheme-{i}.json")
            jobs.append(Job(p * len(topologies) + i, (path, scheme_path, sets)))
        return jobs

    def run(self, job):
        topology, scheme, _ = job.payload
        return [
            run_cli(self.api, ["tim", "dof", topology]),
            run_cli(self.api, ["tim", "scheme", topology, "--kind", "exclusive", "--scheme-out", scheme]),
            run_cli(self.api, ["tim", "verify", topology, scheme]),
            run_cli(self.api, ["tim", "normalize", topology, scheme]),
        ]

    def check(self, job, outcome):
        codes = [code for code, _ in outcome]
        if any(codes):
            raise JobFailed(f"exit codes {codes}")
        dof, scheme, verify, _ = (report for _, report in outcome)
        job.counts["receivers_failed"] = verify["per_receiver"].count(False)
        if set(scheme["dof_per_user"]) != {dof["ldof_sym"]}:
            raise JobFailed(f"dof_per_user {scheme['dof_per_user']} != ldof_sym {dof['ldof_sym']}")
        if not verify["all_decodable"]:
            # The prime fill of synth_exclusive_scheme can be singular, and its
            # postconditions check only the window structure.
            raise KnownDefect(f"{job.counts['receivers_failed']} receivers not decodable")


README_WORKDIR = f"{RUN_DIR}/readme"

# The README's ten commands, in order, with its /tmp paths moved into the
# checkout.  Their reports, minus timing_seconds, are stored in golden/.
README_COMMANDS = (
    ["certify", "fixtures/E1.json", "--tau", "1"],
    ["mc-rank", "fixtures/E1.json", "--trials", "20", "--seed", "7"],
    ["equiv", "fixtures/E3.json", "--tau", "1", "--trials", "20", "--seed", "7"],
    ["matroid-check", "fixtures/E1.json", "--block", "1", "--rows", "1,2,3", "--cols", "1,2"],
    ["tim", "dof", "fixtures/T6.json"],
    ["tim", "scheme", "fixtures/T6.json", "--scheme-out", f"{README_WORKDIR}/scheme.json"],
    ["tim", "verify", "fixtures/T6.json", f"{README_WORKDIR}/scheme.json"],
    ["tim", "verify", "fixtures/T9b.json", "fixtures/T9b_scheme.json"],
    ["tim", "scheme", "fixtures/T9a.json", "--kind", "exclusive", "--scheme-out", f"{README_WORKDIR}/t9a.json"],
    ["tim", "normalize", "fixtures/T9a.json", f"{README_WORKDIR}/t9a.json"],
)


def normalized_report(report: dict) -> str:
    """A report as `write_json` prints it, without the timing_seconds field."""
    return json.dumps({key: value for key, value in report.items() if key != "timing_seconds"})


def golden_path(i: int) -> Path:
    return GOLDEN_DIR / f"readme-{i + 1:02d}.json"


class Readme(Workload):
    """The README's ten commands through `cli.main`, one job each, in passes.

    The commands are fixed, so the seed changes nothing here.  Each report,
    minus timing_seconds, must equal the golden copy byte for byte.
    """

    name = "readme"
    pass_seconds = 0.125  # 160 passes, 1600 jobs in 20 s

    def __init__(self, api, seed, workdir):
        self.golden = [golden_path(i).read_text().rstrip("\n") for i in range(len(README_COMMANDS))]
        super().__init__(api, workdir)

    def _inputs(self, p):
        return [list(argv) for argv in README_COMMANDS]

    def _make_pass(self, p):
        return [Job(p * len(README_COMMANDS) + i, i) for i in range(len(README_COMMANDS))]

    def run(self, job):
        return run_cli(self.api, list(README_COMMANDS[job.payload]))

    def check(self, job, outcome):
        code, report = outcome
        if code != 0:
            raise JobFailed(f"exit code {code}")
        if normalized_report(report) != self.golden[job.payload]:
            raise JobFailed("report differs from the golden copy")


WORKLOADS = {w.name: w for w in (Sweep, CertifyWide, TimExclusive, Readme)}
