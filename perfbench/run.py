#!/usr/bin/env python3
"""The purec benchmark: the whole product path, end to end and per layer.

    python3 perfbench/run.py --workload kernels|memo|compile --seed N
                             --seconds S --trace 0|1 [--tiny]

Run from the root of a purec checkout. The first run builds purecc and the
in-process layer probe (perfbench/layers.cpp) into .bench_build; every run
works in .bench_work/<workload>. With --trace 0 the run prints the
end-to-end metrics, with --trace 1 the per-layer metrics (see
perfbench/README.md). Human-readable lines (host stamp, per-program cost
model, failures) come first; the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import itertools
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
PURECC = BUILD / "purec" / "examples" / "purecc"
LAYERS = BUILD / "purec_layers"

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402
import programs  # noqa: E402

# name, unit, better — BENCHMARK.json lists the same (perfbench/smoke_test.py
# checks that they agree).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("speedup", "x", "higher"),
    ("compile_cost_p50", "refloops", "lower"),
    ("compile_cost_p99", "refloops", "lower"),
]

PER_PROGRAM = [("ser_s", "s", "lower"), ("par_s", "s", "lower"),
               ("speedup", "x", "higher"), ("speedup_1t", "x", "higher")]

PER_LAYER = [
    ("preproc.ms", "ms", "lower"),
    ("lexer.ms", "ms", "lower"),
    ("lexer.mtok_per_s", "Mtok/s", "higher"),
    ("parser.ms", "ms", "lower"),
    ("purity.ms", "ms", "lower"),
    ("purity.rejected", "count", "lower"),
    ("polyhedral.extract.ms", "ms", "lower"),
    ("polyhedral.extract.ok_ratio", "ratio", "higher"),
    ("polyhedral.dependence.ms", "ms", "lower"),
    ("polyhedral.dependence.count", "count", "lower"),
    ("polyhedral.schedule.ms", "ms", "lower"),
    ("polyhedral.codegen.ms", "ms", "lower"),
    ("memo.classify.ms", "ms", "lower"),
    ("memo.thunks", "count", "higher"),
    ("emit.ms", "ms", "lower"),
    ("emit.bytes", "bytes", "lower"),
    ("transform.chain.ms", "ms", "lower"),
    ("transform.self.ms", "ms", "lower"),
    ("transform.scops", "count", "higher"),
    ("transform.parallelized", "count", "higher"),
    ("transform.tiled", "count", "higher"),
    ("transform.fused", "count", "higher"),
    ("transform.fissioned", "count", "higher"),
    ("transform.privatized", "count", "higher"),
    ("transform.reductions", "count", "higher"),
    ("purecc.s", "s", "lower"),
    ("gcc.s", "s", "lower"),
] + [(f"{p.name}.{m}", unit, better)
     for p in programs.KERNELS + programs.MEMO
     for m, unit, better in PER_PROGRAM] + [
    ("region.wall_ms", "ms", "lower"),
    ("region.serial_share", "ratio", "lower"),
    ("region.launches", "count", "lower"),
    ("region.imbalance", "ratio", "lower"),
    ("region.steal_ratio", "ratio", "lower"),
    ("instrument.overhead", "ratio", "lower"),
    ("memo.hit_ratio", "ratio", "higher"),
    ("memo.hits", "count", "higher"),
    ("memo.misses", "count", "lower"),
    ("memo.evictions", "count", "lower"),
    ("memo.gain", "ratio", "higher"),
]

WORKLOADS = ("kernels", "memo", "compile")
SETUP_REPS = 3          # set-ups per run; setup_s is their median
CORPUS_REPS = 7         # corpus generations per run (they are cheap)
COMPILE_UNITS = 500     # compile corpus TUs, each in 4 configs
COMPILE_BATCH = 250     # units per timed batch
COMPILE_DUMPS = 16      # seeded sample of outputs checked by gcc
PROBE_UNITS = 1100      # kernels/memo compile probe: >= 10 beyond the p99
PROBE_SLICES = 4        # one slice of them compiles after each round
PROBE_COMPILES = 7      # compiles per probe unit; its cost is their median
RIDGE_FLOP_PER_BYTE = 1.0
GCC = ["gcc", "-O2", "-fopenmp"]


def log(line=""):
    print(f"# {line}", flush=True)


def fail_exit(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def nproc():
    return len(os.sched_getaffinity(0))


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """The q-th percentile (linear interpolation between order
    statistics)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# Build and host stamp


def build():
    """Configures once, then brings purecc and purec_layers up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail_exit(f"{ROOT} is not a purec checkout (no CMakeLists.txt/src)")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", str(nproc()),
                      "--target", "purecc", "purec_layers"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              timeout=880).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail_exit("build failed: " + " ".join(step))


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30,
                             cwd=ROOT, env=dict(
                                 os.environ,
                                 GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unknown"
    lines = out.stdout.splitlines()
    return lines[0].strip() if out.returncode == 0 and lines else "unknown"


def llc_bytes():
    """Size of the largest cache level the kernel reports for cpu0."""
    best = (0, 0)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        value = int(size.rstrip("KMG")) * scale
        best = max(best, (level, value))
    return best[1]


def host_stamp(threads):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    log(f"host: nproc={nproc()} threads={threads} cpu={model!r} "
        f"llc_bytes={llc_bytes()}")
    log(f"host: gcc={first_line(['gcc', '--version'])!r} "
        f"git_sha={first_line(['git', 'rev-parse', 'HEAD'])}")


# ---------------------------------------------------------------------------
# Operations and their failures


class Tally:
    """Counts operations; a failed one is logged with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED {what}")
        return ok


def timed(cmd, tally, what, timeout, env=None, cwd=None):
    """Runs cmd; returns (seconds, stdout) or None when it fails."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, env=env, cwd=cwd)
    except subprocess.TimeoutExpired:
        tally.op(False, f"{what}: timeout after {timeout}s")
        return None
    elapsed = time.perf_counter() - t0
    if not tally.op(proc.returncode == 0,
                    f"{what}: exit {proc.returncode}: {proc.stderr[-300:]}"):
        return None
    return elapsed, proc.stdout


def run_env(threads, **extra):
    env = dict(os.environ, OMP_NUM_THREADS=str(threads))
    for key in ("PUREC_TRACE", "PUREC_STATS_FILE", "PUREC_MEMO_STATS",
                "PUREC_MEMO_PATH"):
        env.pop(key, None)
    env.update(extra)
    return env


def probe(mode, args, timeout=170):
    """Runs purec_layers and returns its JSON result."""
    out = args[args.index("--out") + 1]
    proc = subprocess.run([str(LAYERS), mode] + args, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        fail_exit(f"purec_layers {mode} failed: {proc.stderr[-2000:]}")
    return json.loads(Path(out).read_text())


def write_manifest(path, units):
    path.write_text(json.dumps({"units": [
        {"name": name, "flags": flags, "source": source, "dump": dump}
        for name, flags, source, dump in units]}))


# ---------------------------------------------------------------------------
# kernels and memo: generated C -> purecc -> gcc -> binary at nproc threads


class Built:
    """One program's binaries and the reference output they must print."""

    def __init__(self, program):
        self.program = program
        self.bins = {}
        self.expected = None
        self.purecc_s = 0.0
        self.gcc_s = 0.0


def variant_flags(program, variant, work):
    if variant == "par":
        return program.flags
    if variant == "instr":
        return program.flags + ["--instrument",
                                f"--report=json:{work / program.name}.json"]
    # "plain": the same program without memoization
    return [f for f in program.flags if f != "--memoize"]


def set_up(progs, seed, tiny, work, threads, tally, variants):
    """Generates, transforms, compiles and warms up every program; returns
    the Built programs that made it (a failed step drops the program)."""
    built = []
    for program in progs:
        b = Built(program)
        source = program.source(seed, tiny)
        src = work / f"{program.name}.c"
        src.write_text(source)
        ref_c = work / f"{program.name}_ref.c"
        ref_c.write_text(programs.lower_pure(source))
        sources = {"ref": ref_c}
        ok = True
        for variant in variants:
            out_c = work / f"{program.name}_{variant}.c"
            step = timed([str(PURECC)] + variant_flags(program, variant, work)
                         + ["-o", str(out_c), str(src)],
                         tally, f"purecc {program.name} {variant}", 60)
            if step is None:
                ok = False
                break
            if variant == "par":
                b.purecc_s += step[0]
            sources[variant] = out_c
        for variant, c_file in sources.items() if ok else ():
            exe = work / f"{program.name}_{variant}"
            step = timed(GCC + ["-o", str(exe), str(c_file), "-lm"], tally,
                         f"gcc {program.name} {variant}", 120)
            if step is None:
                ok = False
                break
            if variant in ("ref", "par"):
                b.gcc_s += step[0]
            b.bins[variant] = exe
        if not ok:
            continue
        warm = timed([str(b.bins["ref"])], tally,
                     f"run {program.name} ref", 60, env=run_env(1), cwd=work)
        if warm is None:
            continue
        b.expected = warm[1]
        for variant in variants:
            got = timed([str(b.bins[variant])], tally,
                        f"run {program.name} {variant}", 60,
                        env=run_env(threads), cwd=work)
            if got is not None:
                ok = tally.op(got[1] == b.expected,
                              f"{program.name} {variant}: output "
                              f"{got[1]!r} != reference {b.expected!r}") and ok
            else:
                ok = False
        if ok:
            built.append(b)
    return built


def sample_runs(built, runs, seconds, work, tally, each_round=None):
    """Closed loop: round after round, every (program, variant, threads)
    in `runs` runs once, in alternating order, until `seconds` have passed
    (at least three rounds); `each_round` is called after every round.
    Every output is checked against the reference. Returns the programs
    with samples of every kind, and {(program, variant, threads): [wall
    seconds]}."""
    walls = {(b.program.name, v, t): [] for b in built for v, t in runs}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 3 or time.perf_counter() < deadline:
        order = runs if rounds % 2 == 0 else list(reversed(runs))
        for b in built:
            for variant, threads in order:
                got = timed([str(b.bins[variant])], tally,
                            f"run {b.program.name} {variant}", 60,
                            env=run_env(threads), cwd=work)
                if got is None:
                    continue
                if tally.op(got[1] == b.expected,
                            f"{b.program.name} {variant}@{threads}: output "
                            f"{got[1]!r} != reference {b.expected!r}"):
                    walls[(b.program.name, variant, threads)].append(got[0])
        rounds += 1
        if each_round is not None:
            each_round()
    log(f"{rounds} rounds, {rounds} samples per (program, variant)")
    kept = [b for b in built
            if all(walls[(b.program.name, v, t)] for v, t in runs)]
    return kept, walls


def cost_report(progs, tiny):
    llc = llc_bytes()
    for program in progs:
        flops, streamed, working_set, sweeps = program.cost(tiny)
        moved = working_set if llc and working_set <= llc else streamed
        intensity = flops / moved
        label = ("memory-bound" if intensity < RIDGE_FLOP_PER_BYTE
                 else "compute-bound")
        log(f"program {program.name}: flops={flops} bytes_moved={moved} "
            f"working_set={working_set} llc={llc} sweeps={sweeps} "
            f"flop_per_byte={intensity:.3f} {label}")


def chain_probe(units, work, seconds, threads, batch, dump_dir=None):
    manifest = work / "chain_manifest.json"
    write_manifest(manifest, units)
    args = ["--manifest", str(manifest), "--out", str(work / "chain.json"),
            "--seconds", str(seconds), "--threads", str(threads),
            "--batch", str(batch)]
    if dump_dir is not None:
        args += ["--dump-dir", str(dump_dir)]
    return probe("chain", args)


def layers_probe(units, work, seconds):
    manifest = work / "layers_manifest.json"
    write_manifest(manifest, units)
    return probe("layers", ["--manifest", str(manifest),
                            "--out", str(work / "layers.json"),
                            "--spans", str(work / "spans.json"),
                            "--seconds", str(seconds)])


def program_units(progs, seed, tiny):
    return [(p.name, p.flags, p.source(seed, tiny), False) for p in progs]


def chain_failures(result, tally):
    for reason in result["failures"]:
        log(f"FAILED compile {reason}")
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]


def run_programs(workload, args, work, threads, tally):
    progs = programs.WORKLOAD_PROGRAMS[workload]
    cost_report(progs, args.tiny)
    if not args.trace:
        setups = []
        for rep in range(SETUP_REPS):
            rep_dir = work / f"setup{rep}"
            rep_dir.mkdir()
            t0 = time.perf_counter()
            built = set_up(progs, args.seed, args.tiny, rep_dir, threads,
                           tally, ["par"])
            setups.append(time.perf_counter() - t0)
        if not built:
            return {}
        # The compile probe: seeded instances of the workload's programs,
        # one slice of them compiled after each sampling round, so each
        # instance's compiles are spread over the run.
        count = -(-(48 if args.tiny else PROBE_UNITS) // len(progs))
        units = [(f"{p.name}_{k}", p.flags, p.source(f"{args.seed}.{k}",
                                                      args.tiny), False)
                 for k in range(count) for p in progs]
        slices = [units[i::PROBE_SLICES] for i in range(PROBE_SLICES)]
        unit_ms = {name: [] for name, _, _, _ in units}
        unit_cost = {name: [] for name, _, _, _ in units}
        rounds = itertools.count()

        def compile_slice():
            part = slices[next(rounds) % PROBE_SLICES]
            chain = chain_probe(part, work, 0, 1, len(part))
            chain_failures(chain, tally)
            for (name, _, _, _), ms, cost in zip(part, chain["unit_ms"],
                                                 chain["unit_cost"]):
                unit_ms[name].extend(ms)
                unit_cost[name].extend(cost)

        built, walls = sample_runs(built, [("ref", 1), ("par", threads)],
                                   args.seconds, rep_dir, tally,
                                   compile_slice)
        while min(map(len, unit_ms.values())) < PROBE_COMPILES:
            compile_slice()
        if not built:
            return {}
        ref = [median(walls[(b.program.name, "ref", 1)]) for b in built]
        par = [median(walls[(b.program.name, "par", threads)])
               for b in built]
        log(f"emitted: run_s = {sum(par):.6g} s (sum over programs of the "
            f"median wall at {threads} threads; reference {sum(ref):.6g} s "
            f"at 1 thread)")
        log(f"compile probe: {len(unit_ms)} seeded program instances, each "
            f"timed as the median of its {PROBE_COMPILES} or more "
            f"run_pure_chain compiles")
        return dict(
            setup_s=(median(setups), "s"),
            speedup=(geomean([r / p for r, p in zip(ref, par)]), "x"),
            **compile_costs(unit_ms.values(), unit_cost.values()))

    memoized = any("--memoize" in p.flags for p in progs)
    variants = ["par", "instr"] + (["plain"] if memoized else [])
    built = set_up(progs, args.seed, args.tiny, work, threads, tally,
                   variants)
    metrics = layer_metrics(layers_probe(
        program_units(progs, args.seed, args.tiny), work, 1.0), tally)
    metrics["purecc.s"] = (sum(b.purecc_s for b in built), "s")
    metrics["gcc.s"] = (sum(b.gcc_s for b in built), "s")
    runs = [("ref", 1), ("par", threads), ("par", 1), ("instr", threads)]
    if memoized:
        runs.append(("plain", threads))
    built, walls = sample_runs(built, runs, args.seconds, work, tally)
    if not built:
        return metrics

    def med(b, variant, t):
        return median(walls[(b.program.name, variant, t)])

    for b in built:
        name = b.program.name
        ser, par = med(b, "ref", 1), med(b, "par", threads)
        metrics[f"{name}.ser_s"] = (ser, "s")
        metrics[f"{name}.par_s"] = (par, "s")
        metrics[f"{name}.speedup"] = (ser / par, "x")
        metrics[f"{name}.speedup_1t"] = (ser / med(b, "par", 1), "x")
    metrics["instrument.overhead"] = (
        sum(med(b, "instr", threads) for b in built)
        / sum(med(b, "par", threads) for b in built), "ratio")
    metrics.update(region_metrics(built, work, threads, tally))
    if memoized:
        metrics.update(memo_metrics(built, work, tally, walls, threads))
    return metrics


INSTR_LINE = re.compile(
    r"purec-instr\[(\S+)\] invocations=(\d+) total_ns=(\d+)")


def region_metrics(built, work, threads, tally):
    """Per program, one run of the --instrument binary for its exact
    per-region counters (the exit summary), and one traced run reduced
    through the `purecc trace` analysis for imbalance and steals."""
    wall_ns = process_ns = launches = weighted = chunks = steals = 0
    for b in built:
        name = b.program.name
        summary = work / f"{name}_instr.txt"
        summary.unlink(missing_ok=True)
        got = timed([str(b.bins["instr"])], tally, f"run {name} instr", 60,
                    env=run_env(threads, PUREC_STATS_FILE=str(summary)),
                    cwd=work)
        trace = work / f"{name}_trace.json"
        trace.unlink(missing_ok=True)
        traced = timed([str(b.bins["instr"])], tally, f"run {name} traced",
                       60, env=run_env(threads, PUREC_TRACE=str(trace)),
                       cwd=work)
        if got is None or traced is None:
            continue
        if not (tally.op(got[1] == b.expected, f"{name} instr: output")
                and tally.op(traced[1] == b.expected,
                             f"{name} traced: output")):
            continue
        r = probe("regions", ["--trace", str(trace),
                              "--report", str(work / f"{name}.json"),
                              "--out", str(work / f"{name}_regions.json")])
        parallel = {row["name"]: row for row in r["regions"]
                    if row["parallelized"]}
        for row in r["regions"]:
            chunks += row["chunks"]
            steals += row["steals"]
        process_ns += got[0] * 1e9
        for m in INSTR_LINE.finditer(summary.read_text()):
            launches += int(m.group(2))
            if m.group(1) in parallel:
                wall_ns += int(m.group(3))
                weighted += parallel[m.group(1)]["imbalance"] * int(m.group(3))
    return {
        "region.wall_ms": (wall_ns / 1e6, "ms"),
        "region.serial_share": (1.0 - wall_ns / process_ns if process_ns
                                else 0.0, "ratio"),
        "region.launches": (launches, "count"),
        "region.imbalance": (weighted / wall_ns if wall_ns else 0.0,
                             "ratio"),
        "region.steal_ratio": (steals / chunks if chunks else 0.0, "ratio"),
    }


MEMO_LINE = re.compile(
    r"purec-memo\[(\w+)\] hits=(\d+) misses=(\d+) evictions=(\d+)")


def memo_metrics(built, work, tally, walls, threads):
    """Table counters from a one-thread PUREC_MEMO_STATS run (one thread,
    so they repeat exactly), and the memoized-vs-unmemoized gain."""
    hits = misses = evictions = 0
    for b in built:
        stats = work / f"{b.program.name}_memo_stats.txt"
        stats.unlink(missing_ok=True)
        got = timed([str(b.bins["par"])], tally,
                    f"run {b.program.name} memo stats", 60,
                    env=run_env(1, PUREC_MEMO_STATS="1",
                                PUREC_STATS_FILE=str(stats)), cwd=work)
        if got is None:
            continue
        tally.op(got[1] == b.expected, f"{b.program.name} memo stats: output")
        for m in MEMO_LINE.finditer(stats.read_text()):
            hits += int(m.group(2))
            misses += int(m.group(3))
            evictions += int(m.group(4))
    plain = sum(median(walls[(b.program.name, "plain", threads)])
                for b in built)
    memo = sum(median(walls[(b.program.name, "par", threads)])
               for b in built)
    probes = hits + misses
    return {
        "memo.hit_ratio": (hits / probes if probes else 0.0, "ratio"),
        "memo.hits": (hits, "count"),
        "memo.misses": (misses, "count"),
        "memo.evictions": (evictions, "count"),
        "memo.gain": (plain / memo, "ratio"),
    }


# ---------------------------------------------------------------------------
# compile: a seeded corpus through run_pure_chain, in process


def compile_units(seed, tiny):
    units = []
    dump_rng = random.Random(f"{seed}:dump")
    count = 16 if tiny else COMPILE_UNITS
    generated = corpus.generate(seed, count)
    dumps = set(dump_rng.sample(range(count * len(corpus.CONFIGS)),
                                min(COMPILE_DUMPS, count)))
    for name, source in generated:
        for config, flags in corpus.CONFIGS.items():
            units.append((f"{name}_{config}", flags, source,
                          len(units) in dumps))
    return units


def run_compile(args, work, threads, tally):
    setups = []
    for _ in range(CORPUS_REPS):
        t0 = time.perf_counter()
        units = compile_units(args.seed, args.tiny)
        write_manifest(work / "corpus.json", units)
        setups.append(time.perf_counter() - t0)
    log(f"corpus: {len(units)} units "
        f"({len(units) // len(corpus.CONFIGS)} TUs x "
        f"{len(corpus.CONFIGS)} configs)")
    if args.trace:
        return layer_metrics(layers_probe(units, work, args.seconds), tally)

    dump_dir = work / "dump"
    dump_dir.mkdir()
    result = chain_probe(units, work, args.seconds, threads, COMPILE_BATCH,
                         dump_dir)
    chain_failures(result, tally)
    rejected = 0
    for c_file in sorted(dump_dir.glob("*.c")):
        check = subprocess.run(GCC + ["-fsyntax-only", str(c_file)],
                               capture_output=True, text=True, timeout=60)
        if check.returncode != 0:
            rejected += 1
            log(f"FAILED gcc -fsyntax-only {c_file.name}: "
                f"{check.stderr[:300]}")
    # A rejected sample is a failed unit the chain itself passed.
    tally.failed += rejected
    compiles = sum(map(len, result["unit_ms"]))
    parallel = [median(walls) for walls in result["parallel_batch_s"]]
    # Each serial pass over a batch sits between two parallel ones; their
    # ratio is taken pass by pass, so a drift in the host's speed over the
    # run cancels within each pair.
    paired = [median(s / ((p[2 * k] + p[2 * k + 1]) / 2)
                     for k, s in enumerate(ss))
              for ss, p in zip(result["serial_batch_s"],
                               result["parallel_batch_s"])]
    log(f"{compiles} timed run_pure_chain compiles of "
        f"{len(result['unit_ms'])} units; "
        f"{len(paired)} batches of {COMPILE_BATCH} units, each compiled "
        f"serially {min(map(len, result['serial_batch_s']))} or more times "
        f"and on {threads} threads twice as often; "
        f"{len(list(dump_dir.glob('*.c')))} outputs checked by gcc; "
        f"decisions {json.dumps(result['decisions'])}")
    log(f"parallel batches: run_s = {sum(parallel):.6g} s (sum over "
        f"batches of the median wall on {threads} threads)")
    return dict(
        setup_s=(median(setups), "s"),
        speedup=(geomean(paired), "x"),
        **compile_costs(result["unit_ms"], result["unit_cost"]))


def compile_costs(unit_ms, unit_cost):
    """compile_cost_p50/p99 over the units: each unit's cost is the median
    of its compiles' costs (compile time over the reference loop's time in
    the same pass; see perfbench/layers.cpp). The raw times are logged."""
    ms = [median(m) for m in unit_ms]
    cost = [median(c) for c in unit_cost]
    log(f"compile: raw wall per unit p50 = {median(ms):.4g} ms, "
        f"p99 = {percentile(ms, 99):.4g} ms (host-dependent); reference "
        f"loop ≈ {median(ms) / median(cost):.4g} ms")
    return {
        "compile_cost_p50": (median(cost), "refloops"),
        "compile_cost_p99": (percentile(cost, 99), "refloops"),
    }


def layer_metrics(r, tally):
    """The compiler-layer rows of the traced run, per compile. Each unit
    of a pass is one operation; a pass whose counts differ from the first
    pass's fails them all."""
    ms = r["per_compile_ms"]
    tally.attempted += r["compiles_per_pass"] + r["replica_errors"]
    tally.failed += r["replica_errors"]
    if not r["counts_repeat"]:
        log("FAILED layer probe: counts differ between passes")
        tally.failed += r["compiles_per_pass"]
    layer_sum = sum(ms[k] for k in (
        "preproc", "lexer", "parser", "purity", "memo.classify",
        "polyhedral.extract", "polyhedral.dependence", "polyhedral.schedule",
        "polyhedral.codegen", "emit"))
    d = r["decisions"]
    log(f"layer probe: {r['passes']} passes x {r['compiles_per_pass']} "
        f"compiles, spans in {WORK.name}/.../spans.json")
    metrics = {
        "preproc.ms": (ms["preproc"], "ms"),
        "lexer.ms": (ms["lexer"], "ms"),
        "lexer.mtok_per_s": (r["tokens"] / r["lexer_s"] / 1e6, "Mtok/s"),
        "parser.ms": (ms["parser"], "ms"),
        "purity.ms": (ms["purity"], "ms"),
        "purity.rejected": (r["purity_rejected"], "count"),
        "polyhedral.extract.ms": (ms["polyhedral.extract"], "ms"),
        "polyhedral.extract.ok_ratio": (
            r["extracted"] / r["extract_attempts"]
            if r["extract_attempts"] else 0.0, "ratio"),
        "polyhedral.dependence.ms": (ms["polyhedral.dependence"], "ms"),
        "polyhedral.dependence.count": (r["dependences"], "count"),
        "polyhedral.schedule.ms": (ms["polyhedral.schedule"], "ms"),
        "polyhedral.codegen.ms": (ms["polyhedral.codegen"], "ms"),
        "memo.classify.ms": (ms["memo.classify"], "ms"),
        "memo.thunks": (r["thunks"], "count"),
        "emit.ms": (ms["emit"], "ms"),
        "emit.bytes": (r["emit_bytes"], "bytes"),
        "transform.chain.ms": (ms["transform.chain"], "ms"),
        "transform.self.ms": (ms["transform.chain"] - layer_sum, "ms"),
    }
    for key in ("scops", "parallelized", "tiled", "fused", "fissioned",
                "privatized", "reductions"):
        metrics[f"transform.{key}"] = (d[key], "count")
    return metrics


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args()

    build()
    threads = nproc()
    host_stamp(threads)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    if args.workload == "compile":
        metrics = run_compile(args, work, threads, tally)
    else:
        metrics = run_programs(args.workload, args, work, threads, tally)

    wanted = PER_LAYER if args.trace else END_TO_END
    for name, unit, _ in wanted:
        metrics.setdefault(name, (0, unit))
    if tally.attempted == 0 or len(metrics) != len(wanted):
        fail_exit("no operation completed")
    for name, unit, _ in wanted:
        log(f"{name} = {metrics[name][0]:.6g} {unit}")
    log(f"failed_share = {tally.failed}/{tally.attempted}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit, _ in wanted},
    }))


if __name__ == "__main__":
    main()
