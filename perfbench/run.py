"""The serving-stack benchmark: one command, four workloads.

    python3 perfbench/run.py --workload serve-mem --seed 1 --seconds 20 --trace 0

Each run repeats whole rounds of a fixed size until ``--seconds`` have
passed.  A round starts fresh processes (``worker.py``), so set-up is
timed from process start and no round inherits memory, disk or threads
from the one before.  Every output is checked against a serial replay
made here (``checks.py``); a wrong one counts as a failed operation.

``--trace 0`` prints the end-to-end metrics of untraced rounds.
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics (see README.md); a metric the workload never reaches
comes from one short traced round of the workload that does.

The last line of standard output is the result JSON; the line before it
is the run's record (host, commit, per-workload figures), also written
to ``.perfbench-out/`` with the span dumps of traced rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import image  # noqa: E402
import layers  # noqa: E402
from repro.core import fetch_quest_game  # noqa: E402
from repro.students import cohort_scripts  # noqa: E402

#: sessions per round; ``recover`` resumes the crash image's live ones
SESSIONS = {
    "serve-mem": 2000,
    "gateway-wal": 1000,
    "cluster-quorum": 500,
    "recover": None,
}
#: sessions of a short traced round that stands in for a workload
COMPANION_SESSIONS = 200
#: a run goes on past --seconds until it has this many sessions, so
#: that its p99 has at least ten samples beyond it
MIN_SESSIONS = 1000
ROUND_TIMEOUT_S = 120.0

#: the bounded metrics: those that hold still on a shared host.  The
#: wall-clock figures (throughput, latency) move with the CPU that
#: other tenants steal and are kept in the run's record (README.md).
END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_session": "ms",
    "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------

def cpu_jiffies() -> dict:
    """steal and iowait jiffies of the whole host, from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return {}
    names = ["user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal"]
    row = dict(zip(names, map(int, fields[1:9])))
    return {"steal": row.get("steal"), "iowait": row.get("iowait")}


def source_id() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------

class Worker:
    """One ``worker.py`` child speaking JSON lines."""

    def __init__(self, role: str, round_dir: Path, scripts: Path, trace: bool,
                 port: int = 0) -> None:
        cmd = [
            sys.executable, str(HERE / "worker.py"), role,
            "--round-dir", str(round_dir), "--scripts", str(scripts),
            "--trace", str(int(trace)), "--port", str(port),
        ]
        self.role = role
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._buf = b""

    def send(self, word: str) -> None:
        self.proc.stdin.write(word.encode() + b"\n")
        self.proc.stdin.flush()

    def read(self, timeout: float = ROUND_TIMEOUT_S) -> dict:
        deadline = perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise RuntimeError(f"{self.role} worker timed out")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"{self.role} worker exited with {self.proc.wait()}"
                    )
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def finish(self) -> None:
        """Wait for a clean exit; a worker that lingers is killed."""
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"{self.role} worker did not exit")
        if code != 0:
            raise RuntimeError(f"{self.role} worker exited with {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_round(workload: str, round_dir: Path, scripts: Path, trace: bool) -> dict:
    """One round of ``workload``; returns its measurements and outputs."""
    round_dir.mkdir(parents=True, exist_ok=True)
    workers = []
    try:
        t0 = perf_counter()
        if workload == "gateway-wal":
            server = Worker("gateway-server", round_dir, scripts, trace)
            workers.append(server)
            port = server.read()["port"]
            setup_s = perf_counter() - t0
            client = Worker("gateway-client", round_dir, scripts, trace, port=port)
            workers.append(client)
            client.read()
            server.send("mark")
            server.read()
            client.send("go")
            rnd = client.read()["result"]
            server.send("stop")
            served = server.read()["result"]
            client.finish()
            server.finish()
            rnd.update({k: served[k] for k in ("cpu_s", "rss_mb", "ticks", "wal_bytes")})
            rnd["journals"] = [checks.journal_summary(Path(d)) for d in served["shard_dirs"]]
            rnd["traces"] = [r["trace"] for r in (rnd, served) if "trace" in r]
        else:
            worker = Worker(workload, round_dir, scripts, trace)
            workers.append(worker)
            worker.read()
            setup_s = perf_counter() - t0
            worker.send("go")
            rnd = worker.read()["result"]
            worker.finish()
            rnd["traces"] = [rnd["trace"]] if "trace" in rnd else []
        rnd["setup_s"] = setup_s
        rnd["traced"] = trace
        return rnd
    finally:
        for worker in workers:
            worker.kill()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def quantile(values, pct: int) -> float:
    """The ``pct``-th percentile, interpolated between samples."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def blocks(rounds):
    """Consecutive rounds grouped until each group has MIN_SESSIONS
    sessions (a short tail joins the last group): the unit a latency
    percentile is taken over, so its p99 has ten samples beyond it."""
    groups, current = [], []
    for rnd in rounds:
        current.append(rnd)
        if sum(len(r["ends"]) for r in current) >= MIN_SESSIONS:
            groups.append(current)
            current = []
    if current:
        if groups:
            groups[-1].extend(current)
        else:
            groups.append(current)
    return groups


def latency_ms(rounds, pct: int) -> float:
    """Median over blocks of the blocks' SUBMIT-to-END percentile."""
    return statistics.median(
        quantile([(e["t_end"] - e["t_submit"]) * 1e3
                  for r in block for e in r["ends"].values()], pct)
        for block in blocks(rounds)
    )


def end_to_end(rounds) -> dict:
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "cpu_ms_per_session": statistics.median(
            r["cpu_s"] * 1e3 / len(r["ends"]) for r in rounds
        ),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def workload_figures(rounds) -> dict:
    """Wall-clock figures of every workload, and the figures only some
    workloads have; printed in the run record, not bounded."""
    out = {
        "sessions_per_s": statistics.median(len(r["ends"]) / r["wall_s"] for r in rounds),
        "session_p50_ms": latency_ms(rounds, 50),
        "session_p99_ms": latency_ms(rounds, 99),
        "sessions_per_round": len(rounds[0]["ends"]),
        "rounds": len(rounds),
        "round_sessions_per_s": [len(r["ends"]) / r["wall_s"] for r in rounds],
    }
    reads = [secs * 1e3 for r in rounds for _pid, secs, _s, _d in r.get("reads", ())]
    if reads:
        out["read_p50_ms"] = quantile(reads, 50)
        out["read_p99_ms"] = quantile(reads, 99)
        out["reads"] = len(reads)
    if "wal_bytes" in rounds[0]:
        out["wal_bytes_per_session"] = statistics.median(
            r["wal_bytes"] / len(r["ends"]) for r in rounds
        )
    if "recovery_s" in rounds[0]:
        out["recovery_s"] = statistics.median(r["recovery_s"] for r in rounds)
    return out


# ----------------------------------------------------------------------
# A run
# ----------------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []
        self._inputs: dict = {}
        self._rounds = 0
        # One game per process: event binding ids come from a process
        # counter, so a second build would digest differently from the
        # workers' (see README, F7).
        self.game = fetch_quest_game(n_quests=2).build()

    def inputs(self, workload: str, sessions=None):
        """Scripts file, expected sessions and references for a workload."""
        key = (workload, sessions)
        if key in self._inputs:
            return self._inputs[key]
        game = self.game
        if workload == "recover":
            n = image.LIVE + image.ENDED  # the crash image has a fixed size
        else:
            n = sessions or SESSIONS[workload]
        scripts = cohort_scripts(game, n, seed=self.seed)
        path = self.work / f"scripts-{workload}-{n}.pkl"
        with open(path, "wb") as fh:
            pickle.dump(scripts, fh)
        if workload == "recover":
            template = self.work / "image-template"
            image.write_image(template, game, scripts, n_shards=2)
            expected = [(f"crash-{k}", s.ops, s.dt) for k, s in enumerate(scripts[: image.LIVE])]
        else:
            template = None
            expected = [(f"s-{k}", s.ops, s.dt) for k, s in enumerate(scripts)]
        refs = checks.references(game, scripts)
        self._inputs[key] = (path, expected, refs, template)
        return self._inputs[key]

    def round(self, workload: str, trace: bool, sessions=None) -> dict:
        path, expected, refs, template = self.inputs(workload, sessions)
        self._rounds += 1
        round_dir = self.work / f"round-{self._rounds}"
        if template is not None:
            shutil.copytree(template, round_dir / "image")
            expected_live, expected_torn = image.LIVE, image.TORN_FRAMES
        else:
            expected_live = expected_torn = 0
        try:
            rnd = run_round(workload, round_dir, path, trace)
            if trace:
                self._keep_spans(round_dir, workload)
        finally:
            shutil.rmtree(round_dir, ignore_errors=True)
        attempted, failed, reasons = checks.score_round(
            rnd, expected, refs, expected_live, expected_torn
        )
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(reasons[:5])
        return rnd

    def _keep_spans(self, round_dir: Path, workload: str) -> None:
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        for dump in round_dir.glob("spans-*.json"):
            target = out / f"{self.workload}-seed{self.seed}-{workload}-{dump.name}"
            shutil.move(str(dump), target)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SESSIONS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    host_before = cpu_jiffies()
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
        run.inputs(args.workload)
        rounds, traced = [], []
        t0 = perf_counter()
        while (
            perf_counter() - t0 < args.seconds
            or (not args.trace and sum(len(r["ends"]) for r in rounds) < MIN_SESSIONS)
            or (args.trace and not traced)
        ):
            if args.trace:
                # untraced and traced rounds alternate: their ratio is
                # the tracing overhead
                trace_this = len(rounds) > len(traced)
            else:
                trace_this = False
            rnd = run.round(args.workload, trace_this)
            (traced if trace_this else rounds).append(rnd)
        if args.trace:
            by_workload = {args.workload: traced}
            for home in layers.missing_homes(args.workload):
                by_workload[home] = [run.round(home, True, COMPANION_SESSIONS)]
            metrics = layers.per_layer(by_workload, args.workload, rounds, traced)
        else:
            metrics = end_to_end(rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    record = {
        "record": {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            **source_id(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "jiffies_before": host_before, "jiffies_after": cpu_jiffies(),
            "figures": workload_figures(rounds),
            "failures": run.reasons[:20],
        }
    }
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1)
    )
    print(json.dumps(record))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
