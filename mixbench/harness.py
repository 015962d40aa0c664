"""Shared machinery of the end-to-end and the traced run: the served
child process, the run's plan (script + expected answers), slices with
the calibration kernel around them, set-up, and the raw report."""

import contextlib
import gc
import os
import select
import subprocess
import sys
import time

from mixbench import OUT_DIR, ROOT, SRC, calib
from mixbench.client import WireClient
from mixbench.driver import Driver, RunAborted
from mixbench.metrics import slice_walls
from mixbench.oracle import Oracle

#: A run is cut into this many equal slices of whole sessions, each
#: bracketed by the calibration kernel; the first WARMUP_SLICES fill
#: caches, are not sampled and count into ``setup_s``.
TIMED_SLICES = 36
WARMUP_SLICES = 2
#: Set-ups per run; ``setup_s`` is their median.  The builder contract
#: asks for it ("set up several times in a run and report the median"):
#: one spawn is a single ~0.5 s sample of process start-up, the noisiest
#: thing the benchmark times.
SETUPS = 3
DEFAULT_SEED = 2002
#: ``run_seconds`` of ``BENCHMARK.json``.  The builder contract gives
#: the driver's 4 + 22 x 4 = 92 runs 3420 s together, 37 s each with
#: set-ups and the oracle.  A run sized 12 s takes 17-19 s of wall time
#: at reference speed and 26-30 s in the box's slow hours (kernel at
#: 12 ms, not 7.5), when a run sized 16 s took up to 43 s.
DEFAULT_SECONDS = 12
#: Below this many timed sessions ``session_ms_p95`` has fewer than ten
#: samples beyond it and is not a p95.
P95_MIN_SESSIONS = 200


class ServerProcess:
    """The served mediator as a child process, always reaped."""

    def __init__(self, workload):
        os.makedirs(OUT_DIR, exist_ok=True)
        self._stderr = open(
            os.path.join(OUT_DIR, workload.name + ".server.stderr"), "ab"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [ROOT, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # The same hash seed every time: set and dict order inside the
        # program must not differ between two runs of one commit.
        env["PYTHONHASHSEED"] = "0"
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "mixbench.launcher", workload.name],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._stderr,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout=60.0):
        ready, _, _ = select.select([self._proc.stdout], [], [], timeout)
        line = self._proc.stdout.readline() if ready else b""
        if not line.startswith(b"PORT "):
            raise RunAborted(
                "server did not start (see {})".format(self._stderr.name)
            )
        return int(line.split()[1])

    def cpu_seconds(self):
        """``utime + stime`` of the server process so far."""
        with open("/proc/{}/stat".format(self._proc.pid)) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/{}/status".format(self._proc.pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RunAborted("no VmHWM for the server process")

    def stop(self):
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._stderr.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
        return False


class Plan:
    """The script of one run and the answers it must get: ``warmup`` and
    ``timed`` are lists of ``(sessions, expected answers)`` slices."""

    def __init__(self, workload, seed, per_slice, corrupt=False):
        self.workload = workload
        self.per_slice = per_slice
        slices = workload.script(
            seed, WARMUP_SLICES + TIMED_SLICES, per_slice
        )
        # Every set-up replays the warm-up slices against a fresh
        # server, so their answers are computed from the starting state
        # first and the oracle's database then moves on with the run.
        oracle = Oracle(workload)
        expected = [
            [oracle.expected(session) for session in sessions]
            for sessions in slices
        ]
        if corrupt:
            # Test hook: one wrong expectation must fail the run.
            expected[WARMUP_SLICES][0][-2] = "not the answer"
        pairs = list(zip(slices, expected))
        self.warmup = pairs[:WARMUP_SLICES]
        self.timed = pairs[WARMUP_SLICES:]


@contextlib.contextmanager
def quiet_collector(disable):
    """Keep the cyclic collector away from the measurement.

    The plan and the oracle's materialised answers are a large, static
    heap: frozen, no collection walks them.  The end-to-end driver's
    own garbage is acyclic, so there the collector is switched off
    altogether (a collection would be charged to whichever op or kernel
    run it interrupts; kernel runs inflated by it once halved
    ``setup_s``).  In-process runs leave it on: the program needs it.
    """
    gc.collect()
    gc.freeze()
    if disable:
        gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def sessions_per_slice(workload, seconds):
    return max(1, round(workload.sessions_per_ref_s * seconds / TIMED_SLICES))


def run_slices(driver, pairs, cpu_seconds=lambda: 0.0):
    """Run ``(sessions, expected)`` slices with the kernel between all
    sessions; yields one record per slice as it ends, samples still
    unscaled."""
    mark = calib.measure()
    for sessions, expected in pairs:
        cpu = cpu_seconds()
        times, marks, answers = driver.run_slice(
            sessions, calib.measure, mark
        )
        cpu = cpu_seconds() - cpu
        mark = marks[-1]
        yield {
            "times": times,
            "marks": marks,
            "nodes": driver.check(answers, expected),
            "server_cpu_s": cpu,
        }


def set_up(plan):
    """Spawn, connect, warm up; ``(server, client, driver, seconds)``
    with ``seconds`` scaled to reference speed: the spawn by the kernel
    runs on either side of it, each warm-up session like a timed one."""
    before = sum(calib.measure()[0] for _ in range(5)) / 5.0
    began = time.perf_counter()
    server = ServerProcess(plan.workload)
    try:
        client = WireClient(server.port)
        driver = Driver(client.send)
        spawn = time.perf_counter() - began
        mark = calib.measure()
        seconds = spawn * 2.0 * calib.REF_MS / (before + mark[0])
        for sessions, expected in plan.warmup:
            times, marks, answers = driver.run_slice(
                sessions, calib.measure, mark
            )
            mark = marks[-1]
            seconds += slice_walls([{"times": times, "marks": marks}])[0]
            driver.check(answers, expected)
    except BaseException:
        server.stop()
        raise
    return server, client, driver, seconds


def raw_report(plan, drivers, records):
    """What the run measured before any scaling, for humans."""
    failures = {}
    for driver in drivers:
        for code, count in driver.failures.items():
            failures[code] = failures.get(code, 0) + count
    return {
        "workload": plan.workload.name,
        "sessions_per_slice": plan.per_slice,
        "timed_sessions": plan.per_slice * len(records),
        "attempted": sum(d.attempted for d in drivers),
        "failed": sum(d.failed for d in drivers),
        "refused": sum(d.refused() for d in drivers),
        "failures": failures,
        "mismatches": [m for d in drivers for m in d.mismatches],
        "transcript": drivers[-1].transcript(),
        "ref_ms": calib.REF_MS,
        "slices": [
            {
                "kernel_ms": [m[0] for m in r["marks"]],
                "kernel_cpu_ms": [m[1] for m in r["marks"]],
                "cycle_s": [t.cycle for t in r["times"]],
                "session_s": [t.session for t in r["times"]],
                "first_s": [t.first for t in r["times"]],
                "refined_s": [t.refined for t in r["times"]],
                "nav_s": [t.nav for t in r["times"]],
                "bulk_s": [t.bulk for t in r["times"]],
                "server_cpu_s": r["server_cpu_s"],
                "nodes": r["nodes"],
            }
            for r in records
        ],
    }
