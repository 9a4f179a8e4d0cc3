#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the release `suite` binary and the
in-process probe (`perfbench/probe`), runs one workload, checks its outputs
and prints one JSON result as the last stdout line:

    {"correct": true, "attempted": .., "failed": .., "metrics": {..}}

Workloads:

- paper-cold: `suite --jobs 1 --only search:Move_Out` on an empty artifact
  store: two dataset sweeps, two oracle trainings and a boundary search,
  all written to the store.
- paper-warm: `suite --jobs 1 --only table2`, fresh manifest, over the
  store a cold run of it leaves behind; every dataset and oracle is a store
  hit, so it times Table II's report campaigns.
- daemon-mixed: `suite serve` over a table2-warm store, driven by two
  closed-loop clients (one per core) with a seeded mix of read-only,
  write-causing and identical-pair requests.

The paper workloads always run the suite's default seed, so every run checks
their stdout against the pinned digest; their work does not depend on
`--seed`. daemon-mixed draws its request mix and request seeds from
`--seed` (request seeds start at 2020 + N).

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the workload's
traced form once untraced and once traced (the probe times calls into each
layer from its own code): for the paper workloads that is the whole 23-job
suite DAG in process, on an empty or a filled store, so all six oracle arms
and all eight report jobs are timed. It then times each layer on the warm
store and prints the per-layer metrics. Spans are written to
`.perfbench/trace/`, and every result, with the host fingerprint, to
`.perfbench/results/`; `perfbench/compare.py` compares two results and
refuses when their fingerprints differ.

`--jobs 1` keeps one suite run within the core count: each job's campaign
already uses `default_threads()` workers.
"""

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("paper-cold", "paper-warm", "daemon-mixed")
DEFAULT_SUITE_SEED = 2020
# md5 of full-suite stdout at the default seed; every whole-suite run, CLI
# or in-process, must print exactly these bytes.
PINNED_MD5 = "edca62c73ee24f3421cc352889054197"
PAPER_JOBS = 23
# paper-cold's request: on an empty store, `--only search:Move_Out` runs the
# two Move_Out dataset sweeps, the two oracle trainings and the boundary
# search (5 jobs, 49 store writes). Its time splits like the whole cold
# suite's store-writing jobs (datasets 0.2, training 0.5, search 0.3 of it)
# in 2.3-4.7 s instead of 19-22 s on a 2-core x86 VM, so a run holds several
# and reports their median: one whole-suite sample per run spread 16-22%
# (IQR/median) over ten runs. The other vectors' chains run the same code
# over other scenarios; the traced run covers all six arms.
COLD_ONLY = "search:Move_Out"
COLD_JOBS = 5
# md5 of its stdout at the default seed: the Move_Out section of the
# full-suite stdout PINNED_MD5 pins.
COLD_MD5 = "aa119e41098d5157e6e9f74046213b87"
# paper-warm's request: Table II at full size (120 runs per campaign) over
# its 12 stored oracles, 0.7-1.4 s. The whole warm suite (all 8 report jobs,
# 6-7 s) gave 2-3 samples per 20 s run, which swung up to 20% within a run
# and spread 10-23% over five runs; the traced run still times all 8 report
# jobs (suite.exec.report_s).
WARM_ONLY = "table2"
WARM_JOBS = 13
# md5 of its stdout at the default seed: the Table II section of the
# full-suite stdout.
WARM_MD5 = "dfdf0a8419a399f87863f475eb3f1892"
# Set-up fills stores with two DAG workers to save time; stores and stdout
# are byte-identical at any worker count, and the measured runs use one.
SETUP_JOBS = 2
# Daemon request mix. Each client sends segments of: one pair, one
# write-causing request and RO_PER_WRITE read-only requests, the solo ones in
# seeded order.
# - Read-only: table2 over the warm oracles, at one of RO_SEEDS seeds so one
#   seed's campaign lengths do not set the latency. One-shot cost on a 2-core
#   x86 VM: 0.16 s at RO_RUNS runs.
# - Write-causing: one boundary search at a seed no other request uses, so
#   its 45 evaluations miss and are put in the store. One-shot cost: 0.43 s.
#   Three read-only requests per write give the two kinds about equal busy
#   time; writes are then a fifth of the replies and the slowest kind, so
#   req_p90_ms falls on them.
# - Pair: both clients send the same quick-sweep table2 at once. Dataset and
#   oracle keys do not depend on the request seed, so only the first pair's
#   twelve computations miss and go through dedup; later pairs are
#   concurrent identical reads (0.1 s one-shot).
RO_RUNS = 12
RO_SEEDS = 4
RO_PER_WRITE = 3
SEARCH_RUNS = 8
VECTORS = ("Disappear", "Move_Out", "Move_In")
# Segments per client in a timed run. The run stops at the first pair past
# --seconds (and MIN_REQUESTS replies) or at the end of the plan, so the plan
# is longer than a run reaches; no write is sent twice.
PLAN_SEGMENTS = 36
# Segments per client in the traced daemon session.
TRACE_SEGMENTS = 3
# A timed daemon run goes on past --seconds until this many replies have
# arrived, so its p90 has at least ten samples above it.
MIN_REQUESTS = 100
# paper-cold's set-up (empty the store, validate the job list with
# `suite --list`) takes milliseconds; its median over several repeats is
# what is reported.
SETUP_REPEATS = 25


class CheckFailed(Exception):
    """An output check failed; the run is incorrect."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and host
# --------------------------------------------------------------------------


def build():
    """Builds `suite` and the probe; returns their paths."""
    needed = ["Cargo.toml", "crates/experiments/Cargo.toml", "perfbench/probe/Cargo.toml"]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        log(f"not a checkout of this repository (missing {', '.join(missing)})")
        sys.exit(2)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "av-experiments", "--bin", "suite"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/probe/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(2)
    release = os.path.join(ROOT, target, "release")
    return os.path.join(release, "suite"), os.path.join(release, "perfbench-probe")


def fingerprint():
    """CPU model, cores, L1d, rustc and target-cpu: results compare only
    when these match."""
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    l1d = "unknown"
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else []:
        base = os.path.join(cache, index)
        try:
            with open(os.path.join(base, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, "type")) as f:
                kind = f.read().strip()
            if level == "1" and kind == "Data":
                with open(os.path.join(base, "size")) as f:
                    l1d = f.read().strip()
        except OSError:
            continue
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    target_cpu = "default"
    try:
        with open(os.path.join(ROOT, ".cargo", "config.toml")) as f:
            m = re.search(r"target-cpu=([\w-]+)", f.read())
            if m:
                target_cpu = m.group(1)
    except OSError:
        pass
    host = {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "l1d": l1d,
        "rustc": rustc,
        "target_cpu": target_cpu,
    }
    host["id"] = hashlib.md5(json.dumps(host, sort_keys=True).encode()).hexdigest()[:12]
    return host


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------


class Program:
    """A child process of the program under test, measured with wait4: its
    peak RSS (VmHWM) and CPU time are exact. With `sample` set, a thread
    also polls /proc for the peak thread count."""

    live = set()

    def __init__(self, cmd, stdout, stderr, sample=False):
        self.start = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=stderr)
        Program.live.add(self.proc)
        self.threads_peak = 0
        self._sampler = None
        if sample:
            self._sampler = threading.Thread(target=self._sample, daemon=True)
            self._sampler.start()

    def _sample(self):
        path = f"/proc/{self.proc.pid}/status"
        while self.proc.returncode is None:
            try:
                with open(path) as f:
                    for line in f:
                        if line.startswith("Threads:"):
                            self.threads_peak = max(self.threads_peak, int(line.split()[1]))
            except (OSError, ValueError):
                return
            time.sleep(0.01)

    def wait(self, timeout=None):
        """Reaps the process, killing it after `timeout` s; returns (exit
        code, wall s, cpu s, peak RSS MB)."""
        timer = None
        if timeout is not None:
            timer = threading.Timer(timeout, self.proc.kill)
            timer.daemon = True
            timer.start()
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.monotonic() - self.start
        Program.live.discard(self.proc)
        if timer:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self._sampler:
            self._sampler.join()
        return self.proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Bench:
    def __init__(self, suite, probe, workload, seed, seconds, trace):
        self.suite, self.probe = suite, probe
        self.workload, self.seconds, self.trace = workload, seconds, trace
        self.bench_seed = seed
        # Seeds daemon-mixed's request mix and the layer probe; the paper
        # workloads run at DEFAULT_SUITE_SEED.
        self.seed = DEFAULT_SUITE_SEED + seed
        self.dir = os.path.join(WORK, f"run-{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.daemon = None
        # Reply shares by request kind (daemon-mixed, untraced).
        self.mix = None
        # Spans of the program processes this run starts (traced runs only).
        self.t0 = time.monotonic()
        self.spans = []

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def span(self, name, req, start, end):
        if self.trace:
            self.spans.append({"name": name, "req": req,
                               "start_ns": int((start - self.t0) * 1e9),
                               "end_ns": int((end - self.t0) * 1e9)})

    def fail(self, msg):
        self.failed += 1
        self.errors.append(msg)
        log(f"FAILED: {msg}")

    def run_suite(self, args, store, tag, sample=False):
        """Runs one one-shot `suite`; returns (stdout, stderr, wall, cpu,
        rss, threads peak)."""
        out, err = self.path(f"{tag}.out"), self.path(f"{tag}.err")
        cmd = [self.suite, *args, "--cache-dir", store,
               "--manifest", self.path(f"{tag}.manifest.jsonl"), "--no-resume"]
        with open(out, "wb") as fo, open(err, "wb") as fe:
            prog = Program(cmd, fo, fe, sample)
            code, wall, cpu, rss = prog.wait(timeout=170)
        self.span("suite.cli", tag, prog.start, prog.start + wall)
        with open(out, "rb") as f:
            stdout = f.read()
        with open(err, "rb") as f:
            stderr = f.read().decode(errors="replace")
        if code != 0:
            raise CheckFailed(f"suite {' '.join(args)} exited {code}: {stderr[-400:]}")
        return stdout, stderr, wall, cpu, rss, prog.threads_peak

    def run_probe(self, args, spans=None, sample=False):
        """Runs one probe subcommand; returns (its JSON result, wall, cpu,
        threads peak)."""
        cmd = [self.probe, *args]
        if spans:
            cmd += ["--spans", spans]
        tag = f"probe-{args[0]}-{'traced' if spans else 'untraced'}"
        out, err = self.path(f"{tag}.out"), self.path(f"{tag}.err")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            prog = Program(cmd, fo, fe, sample)
            code, wall, cpu, _ = prog.wait(timeout=170)
        if code != 0:
            with open(err) as f:
                raise CheckFailed(f"perfbench-probe {args[0]} exited {code}: {f.read()[-400:]}")
        with open(out) as f:
            res = json.loads(f.read().strip().splitlines()[-1])
        return res, wall, cpu, prog.threads_peak

    # ----------------------------------------------------------------------
    # Paper workloads
    # ----------------------------------------------------------------------

    def paper_args(self, jobs=1):
        return ["--jobs", str(jobs), "--seed", str(DEFAULT_SUITE_SEED)]

    def fill_store(self, store):
        """Runs the whole suite on an empty `store`; its stdout must match
        the pinned digest."""
        shutil.rmtree(store, ignore_errors=True)
        stdout, stderr = self.run_suite(self.paper_args(SETUP_JOBS), store, "setup")[:2]
        if f"jobs_run={PAPER_JOBS} jobs_skipped=0" not in stderr:
            raise CheckFailed(f"suite did not run all {PAPER_JOBS} jobs")
        check_digest(stdout, "suite")

    def cold_chain(self, store, tag):
        """One paper-cold request on an empty store; returns (store digest,
        wall, rss)."""
        shutil.rmtree(store, ignore_errors=True)
        stdout, stderr, wall, _, rss, _ = self.run_suite(
            [*self.paper_args(), "--only", COLD_ONLY], store, tag)
        if f"jobs_run={COLD_JOBS} jobs_skipped=0" not in stderr:
            raise CheckFailed(f"{COLD_ONLY} on an empty store did not run {COLD_JOBS} jobs")
        check_digest(stdout, COLD_ONLY, COLD_MD5)
        return store_digest(store), wall, rss

    def table2_run(self, store, tag, jobs=1, warm=True):
        """One paper-warm request; returns (wall, rss). Cold and warm runs
        must both print the pinned bytes."""
        stdout, stderr, wall, _, rss, _ = self.run_suite(
            [*self.paper_args(jobs), "--only", WARM_ONLY], store, tag)
        if f"jobs_run={WARM_JOBS} jobs_skipped=0" not in stderr:
            raise CheckFailed(f"{WARM_ONLY} did not run {WARM_JOBS} jobs")
        if warm and "artifact_misses=0" not in stderr:
            raise CheckFailed(f"warm {WARM_ONLY} missed in the artifact store")
        check_digest(stdout, WARM_ONLY, WARM_MD5)
        return wall, rss

    def list_dag(self, store):
        """Validates the job set with `suite --list` on an empty store."""
        shutil.rmtree(store, ignore_errors=True)
        stdout = self.run_suite(["--list"], store, "list")[0].decode()
        if not stdout.startswith(f"suite: {PAPER_JOBS} jobs"):
            raise CheckFailed(f"suite --list does not show {PAPER_JOBS} jobs")

    def measure_reps(self, one):
        """Repeats `one()` (which returns (wall, rss)) while another rep of
        median length still fits in the run time; at least once."""
        walls, rss = [], []
        t0 = time.monotonic()
        while True:
            self.attempted += 1
            try:
                wall, peak = one(len(walls))
                walls.append(wall)
                rss.append(peak)
            except CheckFailed as e:
                self.fail(str(e))
                break
            if time.monotonic() - t0 + statistics.median(walls) > self.seconds:
                break
        return walls, rss

    def paper_e2e(self):
        store = self.path("store")
        if self.workload == "paper-cold":
            setups = []
            for _ in range(SETUP_REPEATS):
                t0 = time.monotonic()
                self.list_dag(store)
                setups.append(time.monotonic() - t0)
            setup_s = statistics.median(setups)
            first = []

            def one(i):
                digest, wall, rss = self.cold_chain(store, f"cold{i}")
                if first and digest != first[0]:
                    raise CheckFailed("the cold chain left a different store than its first run")
                first.append(digest)
                return wall, rss
        else:
            t0 = time.monotonic()
            shutil.rmtree(store, ignore_errors=True)
            self.table2_run(store, "setup", jobs=SETUP_JOBS, warm=False)
            setup_s = time.monotonic() - t0

            def one(i):
                return self.table2_run(store, f"warm{i}")

        walls, rss = self.measure_reps(one)
        if not walls:
            return None
        # One client sends the requests back to back, so its rate is one
        # request per median wall.
        return {
            "wall_s": statistics.median(walls),
            "req_p90_ms": p90(walls) * 1e3,
            "req_per_s": 1 / statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": max(rss),
        }

    # ----------------------------------------------------------------------
    # Daemon workload
    # ----------------------------------------------------------------------

    def make_plan(self, segments):
        """The seeded request plan: per client, `segments` segments of one
        pair, then one write-causing and RO_PER_WRITE read-only requests in
        seeded order. Returns (plan lines, {ref name: one-shot args}); the
        first entry is the read-only request set-up runs on the empty
        store."""
        rng = random.Random(self.seed)
        requests = {}
        ro_names = []
        for i in range(RO_SEEDS):
            seed = self.seed + 100 * i
            ro_names.append(f"ro-{seed}")
            requests[ro_names[-1]] = ["--only", "table2", "--runs", str(RO_RUNS), "--seed", str(seed)]
        requests["pair"] = ["--only", "table2", "--quick", "--runs", "12", "--seed", str(self.seed)]
        lines = []
        for client in range(2):
            for segment in range(segments):
                lines.append(plan_line(client, "pair", "pair", requests["pair"]))
                vector = rng.choice(VECTORS)
                seed = self.seed + 1000 * (client + 1) + segment
                write = f"w-{vector}-{seed}"
                requests[write] = ["--only", f"search:{vector}", "--runs", str(SEARCH_RUNS),
                                   "--seed", str(seed)]
                solo = [("w", write)] + [("ro", rng.choice(ro_names)) for _ in range(RO_PER_WRITE)]
                rng.shuffle(solo)
                lines.extend(plan_line(client, kind, name, requests[name]) for kind, name in solo)
        return lines, requests

    def daemon_setup(self, store, warm, segments):
        """Fills `store` (unless `warm`), computes one-shot reference stdout
        for every distinct planned request, and writes the plan. Returns
        (plan path, refs dir)."""
        refs = self.path("refs")
        os.makedirs(refs, exist_ok=True)
        lines, requests = self.make_plan(segments)
        todo = list(requests.items())
        if not warm:
            shutil.rmtree(store, ignore_errors=True)
            name, args = todo.pop(0)
            stdout = self.run_suite(["--jobs", str(SETUP_JOBS), *args], store, "setup-ro")[0]
            with open(os.path.join(refs, f"{name}.out"), "wb") as f:
                f.write(stdout)

        def refs_on_copy(i):
            # Each worker owns a copy of the store, so the references'
            # writes never touch the store the daemon serves.
            copy = self.path(f"ref-store{i}")
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(store, copy)
            for name, args in todo[i::SETUP_JOBS]:
                stdout = self.run_suite(["--jobs", "1", *args], copy, f"ref-{name}")[0]
                with open(os.path.join(refs, f"{name}.out"), "wb") as f:
                    f.write(stdout)

        with concurrent.futures.ThreadPoolExecutor(SETUP_JOBS) as pool:
            for done in [pool.submit(refs_on_copy, i) for i in range(SETUP_JOBS)]:
                done.result()
        plan = self.path("plan.txt")
        with open(plan, "w") as f:
            f.write("\n".join(lines) + "\n")
        return plan, refs

    def start_daemon(self, store, sample=False):
        sock = self.path("suite.sock")
        cmd = [self.suite, "serve", "--socket", sock, "--cache-dir", store,
               "--request-slots", "2", "--jobs", "1"]
        self.daemon_err = self.path("serve.err")
        with open(self.daemon_err, "wb") as err:
            self.daemon = Program(cmd, subprocess.DEVNULL, err, sample)
        deadline = time.monotonic() + 30
        while True:
            try:
                with socket.socket(socket.AF_UNIX) as s:
                    s.connect(sock)
                self.daemon_ready_s = time.monotonic() - self.daemon.start
                return sock
            except OSError:
                if time.monotonic() > deadline or self.daemon.proc.poll() is not None:
                    raise CheckFailed("suite serve did not accept connections")
                time.sleep(0.005)

    def stop_daemon(self, sock):
        """Sends the shutdown sentinel and reaps the daemon; returns
        (wall, cpu, rss, threads peak)."""
        daemon, self.daemon = self.daemon, None
        try:
            with socket.socket(socket.AF_UNIX) as s:
                s.connect(sock)
                s.sendall(b'{"shutdown":true}\n')
        except OSError:
            pass
        code, wall, cpu, rss = daemon.wait(timeout=60)
        self.span("suite.serve", sock, daemon.start, daemon.start + wall)
        with open(self.daemon_err) as f:
            summary = f.read()
        if code != 0 or "errors=0" not in summary:
            raise CheckFailed(f"suite serve exited {code}: {summary[-300:]}")
        return wall, cpu, rss, daemon.threads_peak

    def session(self, store, plan, refs, seconds, spans=None, sample=False):
        sock = self.start_daemon(store, sample)
        args = ["daemon", "--socket", sock, "--plan", plan, "--refs", refs,
                "--seconds", str(seconds), "--min-requests", str(MIN_REQUESTS if seconds else 0)]
        try:
            res = self.run_probe(args, spans)[0]
        finally:
            if self.daemon:
                daemon = self.stop_daemon(sock)
        self.attempted += int(res["requests"])
        for msg in res["errors"]:
            self.fail(msg)
        self.failed += int(res["failed"]) - len(res["errors"])
        return res, daemon

    def daemon_e2e(self):
        store = self.path("store")
        t0 = time.monotonic()
        plan, refs = self.daemon_setup(store, warm=False, segments=PLAN_SEGMENTS)
        prepared_s = time.monotonic() - t0
        res, (_, _, rss, _) = self.session(store, plan, refs, self.seconds)
        setup_s = prepared_s + self.daemon_ready_s
        lat = res["latency_ms"]
        if not lat:
            return None
        self.mix = reply_mix(lat, res["kinds"])
        log(f"daemon-mixed: {len(lat)} ok requests; by kind: {self.mix}")
        return {
            "wall_s": statistics.median(lat) / 1e3,
            "req_p90_ms": p90(lat),
            "req_per_s": len(lat) / res["elapsed_s"],
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        }

    # ----------------------------------------------------------------------
    # Traced run
    # ----------------------------------------------------------------------

    def traced(self, spans):
        store = self.path("store")
        m = {}
        nproc = len(os.sched_getaffinity(0))
        if self.workload in ("paper-cold", "paper-warm"):
            # The same in-process DAG run, untraced then traced, both timed
            # as whole processes; each starts from the workload's store state.
            if self.workload == "paper-warm":
                self.fill_store(store)
            runs = []
            for traced in (False, True):
                if self.workload == "paper-cold":
                    shutil.rmtree(store, ignore_errors=True)
                self.attempted += 1
                tag = "traced" if traced else "untraced"
                ex, wall, cpu, threads = self.run_probe(
                    ["exec", "--store", store, "--seed", str(DEFAULT_SUITE_SEED),
                     "--stdout", self.path(f"{tag}.out")],
                    spans + ".exec.jsonl" if traced else None, sample=not traced)
                if ex["jobs_run"] != PAPER_JOBS:
                    raise CheckFailed(f"in-process DAG ran {ex['jobs_run']} of {PAPER_JOBS} jobs")
                if self.workload == "paper-warm" and ex["misses"]:
                    raise CheckFailed("warm in-process DAG missed in the artifact store")
                with open(self.path(f"{tag}.out"), "rb") as f:
                    check_digest(f.read(), "in-process DAG")
                runs.append((wall, cpu, threads))
            (wall_u, cpu, threads), (wall_t, _, _) = runs
            m["proc.threads_peak"] = threads
            m["proc.cpu_util"] = cpu / (wall_u * nproc)
            warm = store
            # A short daemon session over the warm store for the serve and
            # dedup layers, which the one-shot run does not touch.
            plan, refs = self.daemon_setup(warm, warm=True, segments=TRACE_SEGMENTS)
            sess, _ = self.session(warm, plan, refs, 0, spans + ".daemon.jsonl")
        else:
            plan, refs = self.daemon_setup(store, warm=False, segments=TRACE_SEGMENTS)
            snapshot = self.path("snapshot")
            shutil.copytree(store, snapshot)
            untraced, (d_wall, d_cpu, _, threads) = self.session(store, plan, refs, 0, sample=True)
            shutil.rmtree(store)
            shutil.copytree(snapshot, store)
            bytes_before = dir_bytes(store)
            sess, _ = self.session(store, plan, refs, 0, spans + ".daemon.jsonl")
            ex = dict(sess)
            ex["bytes_written"] = dir_bytes(store) - bytes_before
            wall_u, wall_t = untraced["elapsed_s"], sess["elapsed_s"]
            m["proc.threads_peak"] = threads
            m["proc.cpu_util"] = d_cpu / (d_wall * nproc)
            warm = store

        for kind in ("dataset", "oracle", "search", "report"):
            m[f"suite.exec.{kind}_s"] = ex[f"{kind}_s"]
        m["suite.exec.critical_path_s"] = ex["critical_path_s"]
        lookups = ex["hits"] + ex["misses"]
        m["suite.store.hit_ratio"] = ex["hits"] / lookups if lookups else 0.0
        searched = ex["search_hits"] + ex["search_misses"]
        m["search.eval_hit_ratio"] = ex["search_hits"] / searched if searched else 0.0
        m["suite.store.bytes_written"] = ex["bytes_written"]
        if not sess["admit_ms"]:
            raise CheckFailed("the traced daemon session completed no request")
        claims = sess["led"] + sess["coalesced"]
        m["suite.dedup.coalesced_ratio"] = sess["coalesced"] / claims if claims else 0.0
        m["suite.serve.admit_wait_ms"] = statistics.median(sess["admit_ms"])
        m["suite.serve.service_ms"] = statistics.median(sess["service_ms"])
        m["trace.overhead_share"] = (wall_t - wall_u) / wall_u

        with open(spans + ".run.jsonl", "w") as f:
            f.writelines(json.dumps(s) + "\n" for s in self.spans)
        layers = self.run_probe(["layers", "--store", warm, "--scratch", self.path("replay"),
                                 "--seed", str(self.seed)], spans + ".layers.jsonl")[0]
        for name, value in layers.items():
            if name != "elapsed_s":
                m[name] = value
        return m

    def run(self):
        spans_dir = os.path.join(WORK, "trace")
        os.makedirs(spans_dir, exist_ok=True)
        try:
            if self.trace:
                metrics = self.traced(os.path.join(spans_dir, f"{self.workload}-seed{self.bench_seed}"))
            elif self.workload == "daemon-mixed":
                metrics = self.daemon_e2e()
            else:
                metrics = self.paper_e2e()
        except (CheckFailed, subprocess.TimeoutExpired, OSError, KeyError, IndexError, ValueError) as e:
            self.attempted = max(self.attempted, 1)
            self.fail(str(e))
            metrics = None
        finally:
            if self.daemon:
                self.daemon.proc.kill()
                try:
                    self.daemon.wait()
                except ChildProcessError:
                    pass
        return metrics


def plan_line(client, kind, name, args):
    """`client kind ref only runs quick seed` (see probe/src/daemon.rs)."""
    only = args[args.index("--only") + 1]
    runs = args[args.index("--runs") + 1]
    seed = args[args.index("--seed") + 1]
    return f"{client} {kind} {name} {only} {runs} {int('--quick' in args)} {seed}"


def metric_units(trace):
    """{metric name: unit} of the end-to-end (trace 0) or per-layer
    (trace 1) metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_digest(stdout, what, md5=PINNED_MD5):
    if hashlib.md5(stdout).hexdigest() != md5:
        raise CheckFailed(f"{what} stdout does not match the pinned default-seed digest")


def store_digest(path):
    """md5 over the store's file names and contents."""
    h = hashlib.md5()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            h.update(f"{name} {hashlib.md5(f.read()).hexdigest()}\n".encode())
    return h.hexdigest()


def reply_mix(latency_ms, kinds):
    """Per request kind: its share of the replies, its median latency, and
    its share of the replies at or above the p90 latency."""
    top = p90(latency_ms)
    mix = {}
    for kind in sorted(set(kinds)):
        lat = [v for v, k in zip(latency_ms, kinds) if k == kind]
        mix[kind] = {
            "share": round(len(lat) / len(kinds), 3),
            "p50_ms": round(statistics.median(lat), 1),
            "share_of_top10": round(sum(v >= top for v in lat) / sum(v >= top for v in latency_ms), 3),
        }
    return mix


def p90(values):
    """90th percentile, interpolated between the two nearest ranks: with the
    few requests of a paper run, the nearest rank is the slowest one."""
    ordered = sorted(values)
    pos = 0.9 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def on_signal(signum, _frame):
    """Stops the program processes this run started, then exits."""
    for proc in list(Program.live):
        proc.kill()
    for proc in list(Program.live):
        try:
            os.waitpid(proc.pid, 0)
        except ChildProcessError:
            pass
    sys.exit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    suite, probe = build()
    host = fingerprint()
    bench = Bench(suite, probe, args.workload, args.seed, args.seconds, args.trace)
    try:
        metrics = bench.run()
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)

    units = metric_units(args.trace)
    if metrics is not None and set(metrics) != set(units):
        bench.fail(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
        metrics = None
    correct = metrics is not None and bench.failed == 0
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in (metrics or {}).items()},
    }
    record = {"host": host, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "errors": bench.errors, "mix": bench.mix, **result}
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    for key, value in sorted((metrics or {}).items()):
        log(f"{key:48s} {value:14.6g} {units[key]}")
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
