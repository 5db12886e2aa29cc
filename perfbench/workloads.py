"""The benchmark's workloads: what a user of the mfu tools runs.

Each workload repeats a fixed *round* of user operations until the run's
time is up, checking every output. A round is the same work every time
(stores start empty or from the same copy), so rounds within a run are
samples of one distribution; the seed only picks the round's inputs.

Operations are tagged by what answers them:

* ``cold`` operations simulate (tables.exe regenerating a table, a cold or
  guided sweep, a query whose points are not stored yet);
* ``warm`` operations are answered from stored results (a table rendered
  from the store, a resumed sweep, a query or point lookup the store holds).
"""

import collections
import hashlib
import json
import os
import re
import shutil
import statistics
import time

from harness import (REFERENCE_LOOP_S, WORK_DIR, Client, fresh_dir, gc_stats, median,
                     percentile, reference_loop, stop_server)

# md5 of `tables.exe --table N` stdout: the paper's tables as this
# repository reproduces them, byte for byte (identical at any MFU_JOBS).
# Tables 7 and 8 rendered from a result store must match them too.
GOLDEN_TABLE_MD5 = {
    1: "19fd749064f5008aeeee4df3bc016d3c",
    2: "23997da194c5c23f6fafa0a1d787b0ee",
    3: "3f29d0cdc847518c9af5b66bb8d446f5",
    4: "acfd056b9244693a3f210bc492f52303",
    5: "eaa6ed1d5a9da0a9ac39a29626ab45b1",
    6: "b0f51294eb92a8b3f46d7b0db2d78756",
    7: "95d1fc34e6dee2a439b447e0dcac2850",
    8: "1fd9ee714c1b81238ba977fbeb234697",
}

SCALAR_LOOPS = (5, 6, 11, 13, 14)
CONFIGS = ("m11br5", "m11br2", "m5br5", "m5br2")
BUSES = ("nbus", "1bus", "xbar")

# No round is started that, taking as long as the slowest round so far,
# would end more than this many seconds into the run. Rounds take a few
# seconds, so a run ends well inside 180 s whatever --seconds says.
HARD_CAP_S = 150.0

_ENGINE = re.compile(r"\[engine\] table \d+: \d+ job\(s\), ([0-9.]+)s wall-clock")
_SWEEP_DONE = re.compile(
    r"\[sweep\] done in ([0-9.]+)s: (\d+) computed, (\d+) reused, (\d+) quarantined")
_GUIDED = re.compile(r"\[sweep\] guided: (\d+) inferred, (\d+) pruned")
_FOLDED = re.compile(r"(\d+) loose folded")
_ENTRIES = re.compile(r"^store \S+: (\d+) entries", re.M)
_PARETO_TITLE = re.compile(r"Pareto frontier: (.*) \(\d+ machines")


def md5(text):
    return hashlib.md5(text.encode()).hexdigest()


class Run:
    """The samples and checks of one benchmark run.

    The host's CPU speed swings by up to half, for minutes at a time, so
    raw timings of whole runs move together by a quarter or more. Every time
    the benchmark reports is therefore scaled by the host's speed while it
    was taken: t * REFERENCE_LOOP_S / (the reference loop's time), averaged
    over the measurements of the loop just before and just after it. Each
    figure is then a median over the run's rounds, which does not move with
    the number of rounds a run fits in.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.speeds = []  # REFERENCE_LOOP_S / the reference loop's time, in order
        self.pending = []  # (list, raw seconds, extra) not yet scaled
        self.rounds = []  # (wall seconds, program-reported simulation seconds)
        self.round_times = []  # each round's raw duration, set-up checks included
        self.ops = []  # (slot, kind, seconds) of operations that passed
        self.requests = []  # seconds of every HTTP request that passed (serve)
        self.setup = []  # seconds to bring the workload's store online
        self.counts = collections.Counter()  # summed over rounds
        self.peak_heap_words = 0  # largest heap of any program run, traced
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)
        return ok

    def op(self, slot, kind, seconds, ok, what):
        """Record one operation of the current round; slot names its place
        in the round."""
        self.attempted += 1
        if ok:
            self.pending.append((self.ops, seconds, (slot, kind)))
        else:
            self.failed += 1
            self.problems.append(what)

    def request_time(self, seconds):
        self.pending.append((self.requests, seconds, None))

    def setup_time(self, seconds):
        self.pending.append((self.setup, seconds, None))

    def recalibrate(self):
        """Measure the host's speed now, and scale the times recorded since
        the last measurement by the mean of the two. Called around every
        round, and within a round after a phase that takes seconds."""
        speed = REFERENCE_LOOP_S / reference_loop()
        if self.pending:
            factor = (self.speeds[-1] + speed) / 2
            for samples, seconds, extra in self.pending:
                scaled = seconds * factor
                samples.append(scaled if extra is None else (*extra, scaled))
            self.pending = []
        self.speeds.append(speed)

    def gc(self, stderr):
        """Account a round's program run's allocation (traced runs only)."""
        stats = gc_stats(stderr)
        self.counts["alloc_words"] += stats.get("allocated_words", 0)
        self.peak_heap_words = max(self.peak_heap_words, stats.get("top_heap_words", 0))

    def measure(self, one_round):
        """Repeat one_round until --seconds have passed (at least once).

        one_round returns (measured wall seconds, simulation seconds). A
        round is not started when, taking as long as the slowest round so
        far, it would end past HARD_CAP_S from the start of the run."""
        end = time.perf_counter() + self.ctx.seconds
        self.recalibrate()
        while True:
            first = len(self.speeds) - 1
            t0 = time.perf_counter()
            with self.ctx.tracer.span("round", n=len(self.rounds)):
                wall, sim = one_round()
            now = time.perf_counter()
            self.round_times.append(now - t0)
            self.recalibrate()
            factor = statistics.mean(self.speeds[first:])
            self.rounds.append((wall * factor, sim * factor))
            if (now >= end
                    or now - self.ctx.started + max(self.round_times) > HARD_CAP_S):
                return

    def mean_op_ms(self, kind):
        """The kind's operations' mean time per round, in milliseconds:
        each operation slot by its median over the rounds, then their mean.
        A mean, not a median, across slots, because a round's operations are
        different programs or requests, and a median would pick whichever
        sits in the middle for this seed."""
        by_slot = collections.defaultdict(list)
        for slot, k, s in self.ops:
            if k == kind:
                by_slot[slot].append(s)
        medians = [median(v) for v in by_slot.values()]
        return sum(medians) / len(medians) * 1e3 if medians else 0.0

    def summary(self):
        """One line on how the run went, for its standard error."""
        return (f"{len(self.rounds)} rounds of median "
                f"{median(self.round_times):.2f} s (slowest "
                f"{max(self.round_times, default=0.0):.2f} s) at host speed "
                f"{min(self.speeds, default=0):.2f}-{max(self.speeds, default=0):.2f}; "
                f"{len(self.ops)} operation samples, {len(self.requests)} requests, "
                f"{len(self.setup)} set-up samples")

    def metrics(self, trace):
        if not trace:
            return {
                "cold_op_ms": (self.mean_op_ms("cold"), "ms"),
                "warm_op_ms": (self.mean_op_ms("warm"), "ms"),
                "setup_s": (median(self.setup), "s"),
            }
        n = max(1, len(self.rounds))
        per_round = {k: v / n for k, v in self.counts.items()}
        return {
            "sim_s": (median([s for _, s in self.rounds]), "s"),
            "other_s": (median([w - s for w, s in self.rounds]), "s"),
            "request_p50_ms": (median(self.requests) * 1e3, "ms"),
            "request_p90_ms": (percentile(self.requests, 90) * 1e3, "ms"),
            "requests": (len(self.requests), "count"),
            "host_speed": (median(self.speeds), "ratio"),
            "points_simulated": (per_round.get("simulated", 0), "count"),
            "points_from_store": (per_round.get("from_store", 0), "count"),
            "points_from_cache": (per_round.get("from_cache", 0), "count"),
            "points_skipped": (per_round.get("skipped", 0), "count"),
            "alloc_mwords": (per_round.get("alloc_words", 0) / 1e6, "Mwords"),
            "peak_heap_mib": (self.peak_heap_words * 8 / 2**20, "MiB"),
            "rounds": (len(self.rounds), "count"),
        }


def _csv(xs):
    return ",".join(str(x) for x in xs)


def _spec(units, sizes, buses, configs, loops):
    return (f"units={_csv(units)};size={_csv(sizes)};bus={_csv(buses)};"
            f"config={_csv(configs)};loops={_csv(loops)}")


def _sweep_stats(err):
    """(seconds, computed, reused) from sweep.exe's summary line, or None."""
    m = _SWEEP_DONE.search(err)
    return (float(m.group(1)), int(m.group(2)), int(m.group(3))) if m else None


# --------------------------------------------------------------------------
# tables: the paper's eight tables


def tables(ctx, run):
    """Regenerate Tables 1-8 by simulation, one tables.exe run each, and
    re-render Tables 7 and 8 from a result store, in a seed-shuffled order."""
    progs = ctx.progs
    store = os.path.join(ctx.work, "ruu-store")
    # Set-up: the store Tables 7 and 8 are rendered from.
    rc, _, err, _ = progs.run("sweep", ["--axes", "paper-ruu", "--store", store],
                              span="sweep.populate")
    done = _sweep_stats(err)
    run.check(rc == 0 and done is not None and done[1] > 0, "populating the RUU store")

    ops = [("tables", n) for n in range(1, 9)] + [("store", 7), ("store", 8)]

    def one_round():
        order = ops[:]
        ctx.rng.shuffle(order)
        wall_total = sim = 0.0
        for source, n in order:
            if source == "tables":
                rc, out, err, wall = progs.run("tables", ["--table", str(n)],
                                               span=f"tables.t{n}")
                run.gc(err)
                engine = _ENGINE.search(err)
                ok = rc == 0 and md5(out) == GOLDEN_TABLE_MD5[n] and engine is not None
                if engine:
                    sim += float(engine.group(1))
                run.op((source, n), "cold", wall, ok, f"tables.exe --table {n}")
            else:
                rc, out, err, wall = progs.run(
                    "sweep", ["--axes", f"table{n}", "--store", store, "--resume",
                              "--table", str(n)], span=f"sweep.table{n}")
                run.gc(err)
                done = _sweep_stats(err)
                ok = (rc == 0 and md5(out) == GOLDEN_TABLE_MD5[n]
                      and done is not None and done[1] == 0)
                if done:
                    run.counts["from_store"] += done[2]
                run.op((source, n), "warm", wall, ok, f"sweep.exe --table {n} from the store")
            wall_total += wall
        # Outside the round's time: how long a fresh process takes to open
        # the store, sampled in every round to see the host at its varying
        # speeds.
        for _ in range(3):
            rc, out, _, wall = progs.run("sweep", ["--store-stats", "--store", store],
                                         span="sweep.store-stats")
            if run.check(rc == 0 and _ENTRIES.search(out), "opening the RUU store"):
                run.setup_time(wall)
        return wall_total, sim

    run.measure(one_round)


# --------------------------------------------------------------------------
# sweep: one design-space campaign


def _pareto_sections(report):
    """A Pareto report as {frontier title: its rows and knee line}. Titles
    lose their candidate counts: a guided sweep names fewer candidate
    machines, since pruned machines are not candidates, but must render
    the same frontier rows and knees."""
    sections, rows = {}, None
    for line in report.splitlines():
        title = _PARETO_TITLE.match(line)
        if title:
            rows = sections.setdefault(title.group(1), [])
        elif rows is not None:
            rows.append(line)
    return sections


def sweep(ctx, run):
    """A user's campaign over a 360-point RUU design slice, built up as
    resumable campaigns are: a cold sweep per RUU size into one store,
    Pareto reports from the loose and then the compacted store, and a
    surrogate-guided sweep per machine variant into an empty store.

    The seed orders the sizes and the variants but does not pick them: RUU
    sizes change both the simulation cost and what the guided sweep prunes,
    so seed-drawn sizes would make each seed's round a different amount of
    work."""
    progs = ctx.progs
    sizes = [10, 40, 120]
    configs = ["m11br5", "m5br2"]
    spec = _spec(range(1, 5), sizes, BUSES, configs, SCALAR_LOOPS)
    ctx.rng.shuffle(sizes)
    ctx.rng.shuffle(configs)
    full = os.path.join(ctx.work, "campaign")
    guided = os.path.join(ctx.work, "guided")

    def one_round():
        fresh_dir(full)
        fresh_dir(guided)
        state = {"points": 0, "wall": 0.0, "sim": 0.0}

        def step(slot, kind, args, check):
            rc, out, err, wall = progs.run("sweep", args, span=f"sweep.{slot}")
            run.gc(err)
            ok = rc == 0 and check(out, err)
            run.op(slot, kind, wall, ok, f"sweep.exe {' '.join(args)}")
            state["wall"] += wall
            return out

        def cold_ok(out, err):
            done = _sweep_stats(err)
            if done is None or done[1] == 0 or done[2] != 0:
                return False
            state["points"] += done[1]
            state["sim"] += done[0]
            run.counts["simulated"] += done[1]
            return True

        def warm_ok(out, err):
            done = _sweep_stats(err)
            run.counts["from_store"] += done[2] if done else 0
            return (done is not None and done[1] == 0 and done[2] == state["points"]
                    and out.strip() != "")

        def compact_ok(out, err):
            folded = _FOLDED.search(err)
            return folded is not None and int(folded.group(1)) == state["points"]

        def guided_ok(out, err):
            done, guided_line = _sweep_stats(err), _GUIDED.search(err)
            if done is None or guided_line is None:
                return False
            state["sim"] += done[0]
            run.counts["simulated"] += done[1]
            run.counts["skipped"] += int(guided_line.group(1)) + int(guided_line.group(2))
            got, want = _pareto_sections(out), _pareto_sections(loose)
            return got != {} and all(want.get(t) == rows for t, rows in got.items())

        for i, size in enumerate(sizes):
            step(("cold", i), "cold",
                 ["--axes", _spec(range(1, 5), [size], BUSES, configs, SCALAR_LOOPS),
                  "--store", full], cold_ok)
        loose = step("warm-loose", "warm",
                     ["--axes", spec, "--store", full, "--resume", "--pareto"], warm_ok)
        step("compact", "warm", ["--store", full, "--compact"], compact_ok)
        step("warm-packed", "warm",
             ["--axes", spec, "--store", full, "--resume", "--pareto"],
             lambda out, err: warm_ok(out, err) and out == loose)
        for config in configs:
            step(("guided", config), "cold",
                 ["--axes", _spec(range(1, 5), sorted(sizes), BUSES, [config], SCALAR_LOOPS),
                  "--store", guided, "--guided", "--frontier-stop", "--pareto"],
                 guided_ok)
        # Outside the round's time: how long a fresh process takes to open
        # the campaign's compacted store.
        for _ in range(2):
            rc, out, _, wall = progs.run("sweep", ["--store-stats", "--store", full],
                                         span="sweep.store-stats")
            entries = _ENTRIES.search(out)
            if run.check(rc == 0 and entries and int(entries.group(1)) == state["points"],
                         "reopening the campaign store"):
                run.setup_time(wall)
        return state["wall"], state["sim"]

    run.measure(one_round)


# --------------------------------------------------------------------------
# serve: the result server's documented session

# The README's serving session is a cold table7 query, the same query again
# warm, a curl query of one RUU size and a curl point lookup, all from one
# client; CI runs the first two. A round replays it: the cold table7 query,
# then the warm trio (a table-sized query, a size query, a point lookup)
# WARM_REPEATS times. The repeat count is this benchmark's assumption, not
# observed traffic: enough warm requests that a run holds a few hundred
# samples, and a round still spends most of its time simulating, as the
# documented session does.
WARM_REPEATS = 8
TABLE7_SIZES = (10, 20, 30, 40, 50, 100)
TABLE7_BUSES = ("nbus", "1bus")


def _serve_script(rng, tables):
    """The round's warm requests as (verb, spec): the README's trio in its
    order, the table-sized query alternating between the (sizes, spec)
    tables, the size query and the point lookup drawn from the table just
    asked. Every seed so takes the same paths through the server: the first
    query of a stored table reads the store, everything else its cache."""
    script = []
    for i in range(WARM_REPEATS):
        sizes, table = tables[i % len(tables)]
        script.append(("query", table))
        script.append(("query", f"units=1-4;size={rng.choice(sizes)};loops=scalar"))
        # Every axis of the point is named, so that it enumerates one point.
        script.append(("point", f"units={rng.randint(1, 4)};size={rng.choice(sizes)};"
                                f"bus={rng.choice(TABLE7_BUSES)};config={rng.choice(CONFIGS)};"
                                f"loops={rng.choice(SCALAR_LOOPS)}"))
    return script


def _answer(client, verb, spec):
    """The server's point events as sorted JSON lines, and the query's
    summary (None for a point lookup)."""
    if verb == "point":
        return [client.point(spec)], None
    lines, summary = client.query(spec)
    return sorted(lines), summary


def _results(lines):
    """(key, cycles, instructions) of point events: what must agree when
    the lines themselves differ, as in the source of a computed point."""
    events = [json.loads(line) for line in lines]
    if any(ev.get("event") != "point" for ev in events):
        return None
    return sorted((ev["key"], ev["cycles"], ev["instructions"]) for ev in events)


def serve(ctx, run):
    """The README's serving session against a server freshly started every
    round over a copy of the same packed store. The store holds a Table
    7-shaped spec whose RUU sizes the seed moves off the paper's by 1 to
    5; the cold query is table7 itself, the same work for every seed."""
    progs = ctx.progs
    warm_sizes = [b + ctx.rng.randint(1, 5) for b in TABLE7_SIZES]
    warm = _spec(range(1, 5), warm_sizes, TABLE7_BUSES, CONFIGS, SCALAR_LOOPS)
    cold = "table7"
    script = _serve_script(ctx.rng, [(TABLE7_SIZES, cold), (warm_sizes, warm)])
    master = os.path.join(ctx.work, "master")
    ref = os.path.join(ctx.work, "reference")
    live = os.path.join(ctx.work, "live")
    sock = os.path.join(WORK_DIR, "serve.sock")
    server_log = os.path.join(WORK_DIR, "serve.err")

    # Set-up: the packed store every round starts from, and the reference
    # answer to every request, read back from a second store into which
    # sweep.exe also computed the cold query's points.
    rc, _, _, _ = progs.run("sweep", ["--axes", warm, "--store", master],
                            span="sweep.populate")
    rc2, _, _, _ = progs.run("sweep", ["--store", master, "--compact"], span="sweep.compact")
    run.check(rc == 0 and rc2 == 0, "populating the served store")
    shutil.copytree(master, ref)
    rc, _, _, _ = progs.run("sweep", ["--axes", cold, "--store", ref, "--resume"],
                            span="sweep.reference")
    run.check(rc == 0, "reference sweep of the cold query")
    expected = {}
    proc, _ = progs.start_server(ref, sock)
    try:
        client = Client(sock)
        for verb, spec in sorted(set(script) | {("query", cold)}):
            answer, summary = _answer(client, verb, spec)
            run.check(summary is None or summary["computed"] == 0,
                      f"reference store lacks {spec}")
            expected[(verb, spec)] = answer
        client.close()
    finally:
        stop_server(proc)

    def request(client, slot, kind, verb, spec):
        """Time one request and check its answer against the reference; a
        cold query must compute every point, a warm one none."""
        with ctx.tracer.span(f"http.{verb}", kind=kind):
            t0 = time.perf_counter()
            answer, summary = _answer(client, verb, spec)
            seconds = time.perf_counter() - t0
        want = expected[(verb, spec)]
        ok = ((answer == want or _results(answer) == _results(want))
              and (summary is None
                   or (summary["total"] == len(answer)
                       and summary.get("aborted", 0) == 0
                       and summary["computed"] == (len(answer) if kind == "cold" else 0))))
        run.op(slot, kind, seconds, ok, f"{verb} {spec}")
        if ok:
            run.request_time(seconds)

    def one_round():
        fresh_dir(live)
        shutil.copytree(master, live)
        with open(server_log, "w") as log:
            proc, ready = progs.start_server(live, sock, stderr=log)
        run.setup_time(ready)
        try:
            client = Client(sock)
            try:
                t0 = time.perf_counter()
                request(client, "cold", "cold", "query", cold)
                wall = time.perf_counter() - t0
                # The cold query takes seconds, over which the host's speed
                # may change: measure it again between the two phases.
                run.recalibrate()
                t0 = time.perf_counter()
                for i, (verb, spec) in enumerate(script):
                    request(client, i, "warm", verb, spec)
                wall += time.perf_counter() - t0
                sim = 0.0
                if ctx.tracer.enabled:
                    stats = client.stats()
                    sim = sum(f.get("seconds", 0.0)
                              for f in stats.get("compute_by_family", {}).values())
                    run.counts["simulated"] += stats.get("computed", 0)
                    run.counts["from_store"] += stats.get("store_hits", 0)
                    run.counts["from_cache"] += stats.get("cache_hits", 0)
            finally:
                client.close()
        finally:
            stop_server(proc)
        with open(server_log) as log:
            run.gc(log.read())
        return wall, sim

    run.measure(one_round)


WORKLOADS = {"tables": tables, "sweep": sweep, "serve": serve}
