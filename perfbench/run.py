"""The hallguard benchmark: detect -> route -> validate over seeded corpora,
measured from outside the program.

One closed-loop client runs one ``hallguard`` CLI process at a time on inputs
generated from ``--seed``, checks every output, and prints each metric that
BENCHMARK.json declares, by name with its unit.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload deep-s40 --seed 7 --seconds 40 --trace 1

``--trace 0`` reports the end-to-end metrics, from wall times scaled by the
reference job run next to each command (see ``Spawner.between_references``),
and prints the unscaled medians beside them.  ``--trace 1`` runs the same
commands again under perfbench/tracing.py and reports the per-layer metrics,
the clustering growth sweep and the tracing overhead.  Each run also writes
its figures, the workload's properties and the machine fingerprint to
perfbench/out/<workload>-seed<n>-trace<0|1>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# a run must end within 180 s; no command here takes more than a few seconds
CHILD_TIMEOUT_S = 60
TRACED_SETUP_REPS = 3
# wall time of perfbench/reference.py at the host speed that the end-to-end
# figures are scaled to: about its median on a 2-vCPU VM
REFERENCE_NOMINAL_S = 0.3
SWEEP_N = (5, 20, 40, 80)
SWEEP_REPS = 3
SWEEP_SEED = 80
HALLGUARD = [sys.executable, "-m", "hallguard.cli"]
REFERENCE_ARGV = [sys.executable, str(BENCH / "reference.py")]


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


@dataclass
class HostSpeed:
    """Mean wall time of the reference job around a stretch of commands, over
    REFERENCE_NOMINAL_S: above 1 when the host ran slower than nominal."""

    factor: float = 1.0


class Spawner:
    """Runs commands in ``workdir`` through perfbench/spawn.py, one at a time."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], env=env,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._reference_s: float | None = None
        self.reference_walls: list[float] = []

    @contextmanager
    def between_references(self):
        """Run perfbench/reference.py right before and right after the
        commands of the ``with`` body.  The yielded HostSpeed is set on exit;
        dividing a body command's wall time by it scales that time to the
        nominal host speed.  A shared host's speed drifts by tens of percent
        over seconds, and the reference runs next to a command drift with it."""
        if self._reference_s is None:
            self._reference_s = self._reference()
        host, before = HostSpeed(), self._reference_s
        yield host
        self._reference_s = self._reference()
        host.factor = (before + self._reference_s) / 2 / REFERENCE_NOMINAL_S

    def _reference(self) -> float:
        child = self.run(REFERENCE_ARGV)
        if child.code != 0:
            raise RuntimeError(f"reference job exited with code {child.code}: {child.stderr[-500:]}")
        self.reference_walls.append(child.wall_s)
        return child.wall_s

    def run(self, argv: list[str]) -> Child:
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        request = {"argv": argv, "cwd": str(self.workdir), "stdout": str(out_path),
                   "stderr": str(err_path), "timeout_s": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return Child(
            code=reply["code"],
            wall_s=reply["wall_s"],
            peak_rss_mb=reply["maxrss_kb"] / 1024.0,
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


class Ops:
    """Counts invocations and the ones that failed their exit-code or output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, child: Child | None, check) -> bool:
        self.attempted += 1
        problem = None
        if child is not None and child.code != 0:
            problem = f"exit code {child.code}"
        elif child is not None and "Traceback" in child.stderr:
            problem = "traceback on stderr"
        else:
            try:
                problem = check()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem is not None:
            self.failed += 1
            print(f"FAILED {label}: {problem}", file=sys.stderr)
            if child is not None and child.stderr:
                print(child.stderr[-2000:], file=sys.stderr)
        return problem is None


# ---------------------------------------------------------------------------
# Output checks; each returns None when the output is right, else the reason


def check_mockgen(files: dict, corpus) -> str | None:
    if files["mock_out"].read_bytes() != corpus.base_bytes:
        return "corpus bytes differ from the in-process draw"
    if json.loads(files["mock_store"].read_text()) != corpus.store:
        return "fact store differs from the in-process draw"
    return None


def check_analyze(files: dict, expected) -> str | None:
    report = json.loads(files["analyze_out"].read_text())
    want = {
        "n_records": expected.n_records,
        "race_flagged": expected.race_flagged,
        "fact_mismatch_records": expected.fact_mismatch_records,
    }
    got = {k: report["aggregates"][k] for k in want}
    if got != want or len(report["records"]) != expected.n_records:
        return f"aggregates {got}, expected {want}"
    return None


def check_pipeline(files: dict, expected) -> str | None:
    ledger = json.loads(files["pipeline_out"].read_text())
    tiers = {e["record_id"]: e["verdict"]["tier"] for e in ledger["entries"]}
    if tiers != expected.tiers:
        wrong = sum(tiers.get(k, "missing") != v for k, v in expected.tiers.items())
        return f"{wrong} of {len(expected.tiers)} primaries routed to the wrong tier"
    outcomes = Counter(e["outcome"] for e in ledger["entries"])
    residuals = ledger["summary"]["residuals"]
    if residuals != expected.residuals or outcomes["improved"] != expected.improved:
        return (f"residuals {residuals} and improved {outcomes['improved']}, expected "
                f"{expected.residuals} and {expected.improved}")
    if not files["pipeline_md"].read_text().startswith("# Cycle ledger"):
        return "markdown ledger missing"
    return None


def check_calibrate(files: dict, expected) -> str | None:
    model = json.loads(files["calibrate_out"].read_text())
    if model.get("kind") != "temperature" or model.get("n_fit") != expected.n_records:
        return f"calibration map {model}, expected a temperature fit on every record"
    return None


# ---------------------------------------------------------------------------
# Measurement


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def nearest_rank_ms(durations, q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


SETUP_ARGV = [sys.executable, "-c", "import hallguard.cli"]


def measure_setup(spawner: Spawner, ops: Ops, walls: list[float]) -> None:
    """Time one fresh interpreter that imports hallguard.cli and exits."""
    child = spawner.run(SETUP_ARGV)
    if ops.record("setup", child, lambda: None):
        walls.append(child.wall_s)


def cli_argv(files: dict, name: str, prefix=HALLGUARD) -> list[str]:
    """The argv of one hallguard command on the workload's files.  The outputs
    it should write are deleted first, so no check reads an earlier run's file."""
    f = {k: str(v) for k, v in files.items()}
    argv, outputs = {
        "mockgen": (["mockgen", "--spec", f["spec"], "--out", f["mock_out"],
                     "--store-out", f["mock_store"]], ("mock_out", "mock_store")),
        "analyze": (["analyze", "--input", f["corpus"], "--store", f["store"],
                     "--output", f["analyze_out"]], ("analyze_out",)),
        "pipeline": (["pipeline", "--input", f["corpus"], "--store", f["store"],
                      "--output", f["pipeline_out"]], ("pipeline_out", "pipeline_md")),
        "calibrate": (["calibrate", "--input", f["corpus"], "--kind", "temperature",
                       "--output", f["calibrate_out"]], ("calibrate_out",)),
    }[name]
    for key in outputs:
        files[key].unlink(missing_ok=True)
    return prefix + argv


def run_cli(spawner: Spawner, files: dict, name: str, prefix=HALLGUARD) -> Child:
    return spawner.run(cli_argv(files, name, prefix))


def rounds_until(deadline: float, body) -> int:
    """Run ``body`` at least once, and again while another round still fits."""
    n = 0
    while True:
        t0 = time.perf_counter()
        body()
        n += 1
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return n


def measure_end_to_end(files, corpus, seconds, ops, spawner):
    """One round runs set-up once, mockgen twice back to back (it is the
    shortest command, so the noisiest), then analyze and pipeline once each,
    with the reference job between them.  ``series`` holds the scaled figures
    that BENCHMARK.json declares, ``raw`` the same from unscaled wall times."""
    expected = corpus.expected
    series, raw = defaultdict(list), defaultdict(list)
    n_base = corpus.spec["n_records"]

    def add(name: str, host: HostSpeed, child: Child, records: int | None) -> None:
        if records is None:
            series[name].append(child.wall_s / host.factor)
            raw[name].append(child.wall_s)
        else:
            series[name].append(records * host.factor / child.wall_s)
            raw[name].append(records / child.wall_s)

    def one_round():
        with spawner.between_references() as host:
            child = spawner.run(SETUP_ARGV)
        if ops.record("setup", child, lambda: None):
            add("setup_s", host, child, None)
        with spawner.between_references() as host:
            passed = []
            for _ in range(2):
                child = spawner.run(cli_argv(files, "mockgen"))
                if ops.record("mockgen", child, lambda: check_mockgen(files, corpus)):
                    passed.append(child)
        for child in passed:
            add("mockgen_records_per_s", host, child, n_base)
        for name, check in (("analyze", check_analyze), ("pipeline", check_pipeline)):
            with spawner.between_references() as host:
                child = spawner.run(cli_argv(files, name))
            if ops.record(name, child, lambda: check(files, expected)):
                add(f"{name}_records_per_s", host, child, expected.n_records)
                series[f"{name}_peak_rss_mb"].append(child.peak_rss_mb)

    rounds = rounds_until(time.perf_counter() + seconds, one_round)
    return series, {
        "rounds": rounds,
        "reference_s": spawner.reference_walls,
        "raw_wall_clock": {k: {"median": statistics.median(v), "samples": v}
                           for k, v in raw.items()},
    }


def cluster_sweep(ops: Ops) -> dict[str, float]:
    """Clustering cost at n = SWEEP_N on fixed inputs, in two shapes: identical
    vectors (clean mock answers) and noisy distinct copies of one direction
    (clean retry-embed-s10 records)."""
    import numpy as np
    from hallguard.semantic import DEFAULT_CLUSTER_THRESHOLD, cluster_embeddings
    from workloads import EMBED_DIM, EMBED_NOISE

    rng = np.random.default_rng(SWEEP_SEED)
    base = rng.normal(size=EMBED_DIM)
    base /= np.linalg.norm(base)
    metrics, one_cluster = {}, True
    for n in SWEEP_N:
        shapes = {
            "identical": [base.copy() for _ in range(n)],
            "distinct": [base + rng.normal(0.0, EMBED_NOISE, EMBED_DIM) for _ in range(n)],
        }
        for shape, vectors in shapes.items():
            times = []
            for _ in range(SWEEP_REPS):
                t0 = time.perf_counter()
                assignment = cluster_embeddings(vectors, DEFAULT_CLUSTER_THRESHOLD)
                times.append(time.perf_counter() - t0)
                one_cluster &= assignment.cluster_masses == [1.0]
            metrics[f"semantic.cluster_embeddings.ms_n{n}.{shape}"] = 1000.0 * statistics.median(times)
    lo, hi = SWEEP_N[1], SWEEP_N[-1]
    for shape in ("identical", "distinct"):
        ratio = (metrics[f"semantic.cluster_embeddings.ms_n{hi}.{shape}"]
                 / metrics[f"semantic.cluster_embeddings.ms_n{lo}.{shape}"])
        metrics[f"semantic.cluster_embeddings.growth_n{lo}_n{hi}.{shape}"] = math.log(ratio) / math.log(hi / lo)
    ops.record("cluster sweep", None,
               lambda: None if one_cluster else "sweep inputs did not form one cluster")
    return metrics


def traced_run(name: str, files: dict, spawner: Spawner):
    spans_path = spawner.workdir / f"spans-{name}.json"
    spans_path.unlink(missing_ok=True)
    child = run_cli(spawner, files, name,
                    prefix=[sys.executable, str(BENCH / "tracing.py"), str(spans_path), "--"])
    if child.code != 0:
        return child, None, 0.0
    spans = json.loads(spans_path.read_text())["spans"]
    write_s = json.loads(child.stdout.strip().splitlines()[-1])["spans_write_s"]
    return child, spans, write_s


def measure_traced(files, corpus, props, seconds, ops, spawner):
    from tracing import self_time_under, summarize

    deadline = time.perf_counter() + seconds
    expected = corpus.expected
    series = {k: [v] for k, v in cluster_sweep(ops).items()}
    setup_walls: list[float] = []
    for _ in range(TRACED_SETUP_REPS):
        measure_setup(spawner, ops, setup_walls)
    setup_s = median_or_zero(setup_walls)
    rounds: list[dict] = []
    info: dict = {}

    def one_round():
        m: dict[str, float] = {}
        child, spans, _ = traced_run("mockgen", files, spawner)
        if ops.record("traced mockgen", child, lambda: check_mockgen(files, corpus)):
            st = summarize(spans)
            for name in ("mockgen.generate_corpus", "mockgen.generate_fact_store",
                         "records.write_records"):
                m[f"{name}.s"] = st[name]["s"]

        child, spans, write_s = traced_run("pipeline", files, spawner)
        traced_wall = child.wall_s - write_s
        if ops.record("traced pipeline", child,
                      lambda: check_pipeline(files, expected)):
            m.update(pipeline_layers(summarize(spans), files, props))
            under = self_time_under(spans, "pipeline.detect")
            m["pipeline.detect.self_s"] = under.get("pipeline.detect", 0.0)
            info["detect_self_s_by_layer"] = under
            info["spans"] = len(spans)

        child, spans, _ = traced_run("calibrate", files, spawner)
        if ops.record("traced calibrate", child,
                      lambda: check_calibrate(files, expected)):
            m["calibration.fit_temperature.s"] = summarize(spans)["calibration.fit_temperature"]["s"]

        child = run_cli(spawner, files, "pipeline")
        if (ops.record("pipeline", child, lambda: check_pipeline(files, expected))
                and "pipeline.detect.s" in m):
            m["trace.pipeline_overhead_share"] = traced_wall / child.wall_s - 1.0

        child = run_cli(spawner, files, "analyze")
        if ops.record("analyze", child, lambda: check_analyze(files, expected)):
            report = json.loads(files["analyze_out"].read_text())
            t0 = time.perf_counter()
            json.dumps(report, indent=2)
            encode_s = time.perf_counter() - t0
            if "pipeline.detect.s" in m:
                m["cli.analyze.unaccounted_s"] = (child.wall_s - setup_s - encode_s
                                                  - m["records.parse_records.s"]
                                                  - m["pipeline.detect.s"])
        rounds.append(m)

    info["rounds"] = rounds_until(deadline, one_round)
    for r in rounds:
        for k, v in r.items():
            series.setdefault(k, []).append(v)
    return series, info


def pipeline_layers(st: dict, files: dict, props: dict) -> dict[str, float]:
    """Per-layer figures of one traced pipeline command."""
    never_called = {"calls": 0, "s": 0.0, "durations": []}
    m = {f"{name}.s": st.get(name, never_called)["s"] for name in (
        "records.parse_records", "uncertainty.sequence_entropy_profile",
        "semantic.default_embed", "semantic.cluster_embeddings",
        "semantic.semantic_entropy_of_record", "consistency.self_consistency_consensus",
        "consistency.race_metrics", "grounding.load_fact_store", "grounding.check_claims",
        "pipeline.detect", "pipeline.route", "pipeline.validate", "pipeline.ledger_to_json",
        "pipeline.ledger_to_markdown",
    )}
    for name in ("semantic.default_embed", "semantic.cluster_embeddings", "pipeline.validate"):
        m[f"{name}.calls"] = float(st.get(name, never_called)["calls"])
    for name in ("semantic.cluster_embeddings", "pipeline.detect"):
        durations = st.get(name, never_called)["durations"]
        m[f"{name}.p50_ms"] = nearest_rank_ms(durations, 0.50)
        m[f"{name}.p99_ms"] = nearest_rank_ms(durations, 0.99)
    parse_s = m["records.parse_records.s"]
    m["records.parse_records.mb_per_s"] = props["corpus_mb"] / parse_s if parse_s else 0.0
    m["pipeline.ledger_encode.mb"] = files["pipeline_out"].stat().st_size / 1e6
    return m


# ---------------------------------------------------------------------------
# Reporting


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def fingerprint(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "hallguard").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def run_workload(name: str, why: str, seed: int, seconds: float, trace: int,
                 declared: dict) -> dict:
    from workloads import WORKLOADS, build_corpus, properties

    workload = WORKLOADS[name]
    workdir = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    t0 = time.perf_counter()
    corpus = build_corpus(workload, seed)
    again = build_corpus(workload, seed)
    build_s = (time.perf_counter() - t0) / 2
    deterministic = (corpus.corpus_bytes == again.corpus_bytes
                     and corpus.base_bytes == again.base_bytes and corpus.store == again.store)
    if not deterministic:
        print(f"FAILED {name}: two draws from seed {seed} differ", file=sys.stderr)
    files = {k: workdir / v for k, v in {
        "spec": "spec.json", "corpus": "corpus.jsonl", "store": "store.json",
        "mock_out": "mock.jsonl", "mock_store": "mock-store.json",
        "analyze_out": "analyze.json", "pipeline_out": "ledger.json", "pipeline_md": "ledger.md",
        "calibrate_out": "calibration.json",
    }.items()}
    files["spec"].write_text(json.dumps(corpus.spec))
    files["corpus"].write_bytes(corpus.corpus_bytes)
    files["store"].write_text(json.dumps(corpus.store, indent=2) + "\n")
    props = properties(workload, corpus)

    ops = Ops()
    with Spawner(workdir) as spawner:
        spawner.run(SETUP_ARGV)  # compiles bytecode once, as a first user run would
        if trace:
            series, info = measure_traced(files, corpus, props, seconds, ops, spawner)
        else:
            series, info = measure_end_to_end(files, corpus, seconds, ops, spawner)
    missing = [k for k in declared if not series.get(k)]
    if missing and not ops.failed:
        raise RuntimeError(f"declared metrics not measured: {missing}")

    result = {
        "workload": name,
        "why": why,
        "trace": trace,
        "fingerprint": fingerprint(seed),
        "properties": props,
        "corpus_build_s": build_s,
        "deterministic": deterministic,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failed_ops_fraction": ops.failed / ops.attempted,
        "metrics": {k: {"value": median_or_zero(series.get(k)), "unit": unit,
                        "runs": len(series.get(k, [])), "samples": series.get(k, [])}
                    for k, unit in declared.items()},
        "info": info,
    }
    (workdir / "result.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"== {name}  seed={seed}  trace={trace}  ({why})")
    print(f"fingerprint: {json.dumps(result['fingerprint'])}")
    print(f"properties: {json.dumps(props)}  (distinct inputs are out of the 4 clusterings "
          "detect runs per record)")
    for k, m in result["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}  (median of {m['runs']} rounds)")
    if "raw_wall_clock" in info:
        print(f"reference job: median {statistics.median(info['reference_s']):.4f} s over "
              f"{len(info['reference_s'])} runs; times above are scaled to "
              f"{REFERENCE_NOMINAL_S} s")
        print("unscaled: " + ", ".join(f"{k} = {v['median']:.6g}"
                                       for k, v in info["raw_wall_clock"].items()))
    if "detect_self_s_by_layer" in info:
        parts = sorted(info["detect_self_s_by_layer"].items(), key=lambda kv: -kv[1])
        print("self time under pipeline.detect, last round: "
              + ", ".join(f"{k} {v:.4f} s" for k, v in parts))
    print(f"failed_ops_fraction = {result['failed_ops_fraction']:.6g} ratio  "
          f"({ops.failed} of {ops.attempted} invocations)")
    result["correct"] = deterministic and ops.failed == 0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name from BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=7, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hallguard" / "cli.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"no hallguard sources under {SRC} or no {BENCHMARK_JSON.name}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    declared_all = json.loads(BENCHMARK_JSON.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in declared_all[section]}
    whys = {w["name"]: w["why"] for w in declared_all["workloads"]}
    names = list(whys)
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    sys.path.insert(0, str(SRC))

    results = [run_workload(name, whys[name], args.seed, args.seconds, args.trace, declared)
               for name in (names if args.workload == "all" else [args.workload])]
    if len(results) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}:{k}": {"value": m["value"], "unit": m["unit"]}
                   for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
