"""nullgrid benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.  One
client drives the program in a closed loop, one case at a time (one child
process at a time in cli-cold).  Every answer is checked: invariants for
any seed, plus the answers frozen in ``expected/`` for the default seed.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs each case
of a fixed list untraced and traced, and reports per-layer metrics from the
spans.  The last line of stdout is the result; the line before it is
the run record (environment, failures), also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
MIN_CASES = 100          # p90 then has ten samples beyond it
HARD_STOP_S = 140        # measuring never runs past this, whatever the case count
SETUP_PROBES = 7
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 60
TRACE_CYCLES = {"enumerate": 2, "dense-support": 3, "cli-cold": 4}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = {"setup_s": "s", "case_mean_ref": "ref", "case_p50_ref": "ref",
              "case_p90_ref": "ref", "peak_rss_mb": "MB"}
REF_WINDOW = 1           # each case: median of the 3 references around it
_REF_TERMS = {(i % 17, i % 19, i % 23): i for i in range(3000)}


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python loop that does not touch nullgrid.

    It substitutes values into a 3000-term dict polynomial, the same kind
    of dict, tuple and modular-power work the program does, and runs right
    before every timed in-process case.  On the 2-core Xeon VM this was
    built on, CPU speed drifted by up to 1.7x over a minute (neighbours'
    load, invisible as steal time); a case's time divided by the reference
    time measured around it cancels most of that drift, so runs made at
    different times compare.  Raw wall times stay in the run record.
    """
    start = time.perf_counter()
    for a in (2, 3, 5):
        out: dict = {}
        for exps, c in _REF_TERMS.items():
            out[exps[1:]] = (out.get(exps[1:], 0) + c * pow(a, exps[0], 10007)) % 10007
    return time.perf_counter() - start


REF_CHILD = "import argparse, json"
# The child reference's median wall time on the 2-core Xeon VM this was
# built on; setup_s is reported in seconds at that speed.
REF_CHILD_NOMINAL_S = 0.063


def reference_child_s() -> float:
    """Seconds for a fresh interpreter to import two stdlib modules and
    exit: the reference for cli-cold, whose cases are process start-ups
    too and do not slow down with the CPU the way a Python loop does."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", REF_CHILD], cwd=ROOT)
    with watchdog(proc):
        code = proc.wait()  # blocking; a wait with a timeout polls and quantizes
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"reference child exited {code}")
    return elapsed


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at nproc, for this process (before numpy is
    imported) and every child it starts."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return nproc


def environment(nproc: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "commit": git_commit(),
            "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
            "loadavg_start": loadavg()}


def loadavg() -> str:
    with contextlib.suppress(OSError):
        return Path("/proc/loadavg").read_text().strip()
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def probe_s(argv: list[str]) -> float:
    """Wall time from spawning ``argv`` to its first stdout line, less the
    time the probe reports on that line for drawing the workload's inputs."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT)
    with watchdog(proc):
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait()
    fields = line.split()
    if code != 0 or len(fields) != 3 or fields[0] != b"ready":
        raise RuntimeError(f"set-up probe {argv} failed with exit {code}")
    return elapsed - float(fields[2])


def setup_sample(argv: list[str]) -> tuple[float, float]:
    """One set-up probe and the child reference timed on either side of it:
    (probe seconds, probe seconds at the reference speed)."""
    before = reference_child_s()
    seconds = probe_s(argv)
    after = reference_child_s()
    return seconds, seconds / ((before + after) / 2) * REF_CHILD_NOMINAL_S


@contextlib.contextmanager
def watchdog(proc: subprocess.Popen):
    """Kill ``proc`` if the block has not finished with it in time."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        yield
    finally:
        timer.cancel()
        if proc.returncode is None and proc.poll() is None:
            proc.kill()
            proc.wait()


def import_times(count: int) -> tuple[float, float]:
    """Medians over fresh interpreters of ``python -X importtime``: the
    cumulative seconds of the top-level nullgrid imports, and of numpy."""
    totals, numpys = [], []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nullgrid.cli"],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, check=True)
        total = numpy = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)", line)
            if not m:
                continue
            cumulative, indent, name = int(m.group(2)), len(m.group(3)), m.group(4)
            if indent == 1 and (name == "nullgrid" or name.startswith("nullgrid.")):
                total += cumulative
            if name == "numpy":
                numpy = max(numpy, cumulative)
        totals.append(total / 1e6)
        numpys.append(numpy / 1e6)
    return statistics.median(totals), statistics.median(numpys)


class Judge:
    """Checks each answer: the workload's invariants, and the frozen
    answer when this run uses the seed the answers were frozen for."""

    def __init__(self, module, expected: dict | None):
        self.module = module
        self.expected = expected or {}
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, index: int, case: dict, out, error: str | None):
        self.attempted += 1
        if error is None:
            rng = random.Random(case.get("check_seed", index))
            try:
                problems = self.module.check(case, out, rng)
                frozen = self.expected.get(str(index))
                if frozen is not None:
                    answer = json.loads(json.dumps(self.module.summarize(case, out)))
                    if answer != frozen:
                        problems.append(f"answer {answer} differs from the frozen {frozen}")
            except Exception as e:  # a malformed answer is a failed case
                problems = [f"answer could not be checked: {e!r}"]
        else:
            problems = [error]
        if problems:
            self.failures.append(f"case {index} ({case.get('kind', case.get('text'))}): {'; '.join(problems)}")


def load_expected(name: str, seed: int, size: str) -> dict | None:
    file = HERE / "expected" / f"{name}-{size}.json"
    if not file.exists():
        return None
    frozen = json.loads(file.read_text())
    return frozen["answers"] if frozen["seed"] == seed else None


# -- one case -----------------------------------------------------------------


def prepare_cases(name: str, module, specs: list[dict]) -> list[dict]:
    """Set-up: build each case's program objects (cli-cold builds none;
    its children parse their own arguments)."""
    if name == "cli-cold":
        return specs
    ng = importlib.import_module("nullgrid")
    return [module.prepare(spec, ng) for spec in specs]


def run_case(name: str, module, case: dict, child_stderr=None):
    """Time one case; returns (seconds, answer, error, extra).

    cli-cold cases run as a ``python -m nullgrid`` child when
    ``child_stderr`` is given (extra: the child's peak RSS in KiB) and
    through ``nullgrid.cli.main`` in this process otherwise (extra: stdout
    bytes).  Other workloads call the library here (extra: 0).
    """
    if name != "cli-cold":
        ng = sys.modules["nullgrid"]
        start = time.perf_counter()
        try:
            out, error = module.execute(case, ng), None
        except Exception as e:  # a failing case is counted, the run goes on
            out, error = None, f"raised {e!r}"
        return time.perf_counter() - start, out, error, 0
    if child_stderr is not None:
        return run_cli_child(case, child_stderr)
    return run_cli_inprocess(case)


def run_cli_child(case, stderr_file):
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "nullgrid", *case["argv"]], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=stderr_file)
    with watchdog(proc):
        stdout = proc.stdout.read()
        proc.stdout.close()
        # wait4 rather than wait: it also returns this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - start
    out, error = parse_cli(proc.returncode, stdout.decode())
    return elapsed, out, error, usage.ru_maxrss


def run_cli_inprocess(case):
    # the attribute is looked up per call, so a traced wrapper is used
    cli = importlib.import_module("nullgrid.cli")
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(case["argv"]))
    except Exception as e:  # a failing case is counted, the run goes on
        return time.perf_counter() - start, None, f"raised {e!r}", 0
    elapsed = time.perf_counter() - start
    text = buf.getvalue()
    out, error = parse_cli(code, text)
    return elapsed, out, error, len(text.encode())


def parse_cli(code: int, text: str):
    try:
        return (code, json.loads(text)), None
    except ValueError:
        return None, f"exit {code} with unparseable output {text[:200]!r}"


# -- the two kinds of run -----------------------------------------------------


def measure(args, name, module, specs, judge) -> tuple[dict, dict]:
    """End-to-end metrics: a timed closed loop, with set-up probes between cases."""
    probe = [sys.executable, str(HERE / "probe.py"), name, str(args.seed), args.size]
    cases = prepare_cases(name, module, specs)
    tiny = args.size != "full"
    # set-up probes are spread over the run, between cases, so their median
    # samples the machine's speed over the run and not over one burst
    probes_due = [args.seconds * k / SETUP_PROBES for k in range(1 if tiny else SETUP_PROBES)]
    setups = []
    child = name == "cli-cold"
    warm = 0 if tiny else (2 if child else len(module.slots(args.size)))
    min_cases = len(cases) if tiny else MIN_CASES
    # The two cores of the host this was built on ran at different speeds
    # at times.  Pinned to one, every case, its reference and the set-up
    # probes (children inherit the pin) run on the same core.  One client
    # runs one single-threaded case at a time, so one core is all it uses.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    times, extras = [], []
    stderr_sink = open(OUT / "cli-stderr.txt", "ab") if child else contextlib.nullcontext()
    with stderr_sink as child_stderr:

        def step(index: int) -> float:
            elapsed, out, error, extra = run_case(name, module, cases[index], child_stderr)
            judge(index, cases[index], out, error)
            extras.append(extra)
            return elapsed

        for i in range(warm):
            step(i)
        refs = []
        begin = time.perf_counter()
        i = warm
        while True:
            if probes_due and time.perf_counter() - begin >= probes_due[0]:
                probes_due.pop(0)
                setups.append(setup_sample(probe))
            refs.append(reference_child_s() if child else reference_s())
            times.append(step(i % len(cases)))
            i += 1
            spent = time.perf_counter() - begin
            if (spent >= args.seconds and len(times) >= min_cases) or spent >= HARD_STOP_S:
                break
    setups += [setup_sample(probe) for _ in probes_due]
    peak_kib = max(extras) if child else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    norm = [t / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, t in enumerate(times)]
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "case_mean_ref": statistics.fmean(norm),
        "case_p50_ref": statistics.median(norm),
        "case_p90_ref": p90(norm),
        "peak_rss_mb": peak_kib / 1024,
    }
    wall = {"cases_per_s": len(times) / sum(times),
            "case_p50_ms": 1000 * statistics.median(times),
            "case_p90_ms": 1000 * p90(times),
            "reference_ms": 1000 * statistics.median(refs),
            "setup_s": statistics.median(seconds for seconds, _ in setups)}
    return metrics, {"timed_cases": len(times), "cpus": sorted(os.sched_getaffinity(0)),
                     "wall": wall, "samples": {"case_s": times, "reference_s": refs}}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def trace(args, name, module, specs, judge) -> tuple[dict, dict]:
    """Per-layer metrics: every case of a fixed list, untraced and traced."""
    from tracer import Tracer, layer_metrics

    import_s, numpy_s = import_times(IMPORT_PROBES if args.size == "full" else 1)
    ng = importlib.import_module("nullgrid")
    importlib.import_module("nullgrid.cli")
    cases = prepare_cases(name, module, specs)
    cycle = len(module.slots(args.size))
    tiny = args.size != "full"
    warm = 0 if tiny else cycle
    count = cycle * (1 if tiny else TRACE_CYCLES[name])

    def step(case):
        return run_case(name, module, case)

    indices = [i % len(cases) for i in range(warm, warm + count)]
    for i in range(warm):
        judge(i, cases[i], *step(cases[i])[1:3])

    # each case runs untraced and traced back to back, the order alternating,
    # so warm-up and drift in the machine fall on both sides alike
    tracer = Tracer()
    untraced = traced = 0.0
    stdout_bytes = []
    for n, i in enumerate(indices):
        for tracing in ((False, True) if n % 2 == 0 else (True, False)):
            if tracing:
                tracer.case = i
                missing = tracer.install(ng)
            try:
                elapsed, out, error, extra = step(cases[i])
            finally:
                tracer.uninstall()
            judge(i, cases[i], out, error)
            if tracing:
                traced += elapsed
                stdout_bytes.append(extra)
            else:
                untraced += elapsed

    layers = tracer.layers()
    metrics = layer_metrics(layers)
    zero_cases = {i for i in indices if cases[i].get("kind") == "verify-zeros"}
    counts = sum(1 for s in tracer.spans if s[0] == "oracle.count_nonzeros" and s[1] in zero_cases)
    metrics.update({
        "cli.import.s": import_s,
        "cli.import.numpy_s": numpy_s,
        "cli.count_nonzeros_per_verify": counts / sum(1 for i in indices if i in zero_cases)
        if zero_cases else 0.0,
        "cli.stdout_bytes": statistics.mean(stdout_bytes) if name == "cli-cold" else 0.0,
        "trace.overhead_frac": (traced - untraced) / untraced,
    })
    with open(OUT / f"spans-{name}-seed{args.seed}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    by_self = sorted(layers.items(), key=lambda item: -item[1]["self_s"])
    return metrics, {"traced_cases": len(indices), "spans": len(tracer.spans),
                     "self_s_by_layer": {layer: row["self_s"] for layer, row in by_self},
                     "missing_targets": missing, "count_hook_errors": tracer.hook_errors}


def units() -> dict:
    from tracer import LAYER_FIELDS, field_unit

    table = {f"{span}.{field}": field_unit(field) for span, fields in LAYER_FIELDS for field in fields}
    table.update({"cli.import.s": "s", "cli.import.numpy_s": "s",
                  "cli.count_nonzeros_per_verify": "ratio", "cli.stdout_bytes": "bytes/call",
                  "trace.overhead_frac": "ratio"})
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("enumerate", "dense-support", "cli-cold"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one short cycle of small cases, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "nullgrid" / "__init__.py").is_file():
        print(f"no nullgrid sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = environment(nproc)

    from workloads import WORKLOADS, specs

    module = WORKLOADS[args.workload]
    cases = specs(args.workload, args.seed, args.size)
    judge = Judge(module, load_expected(args.workload, args.seed, args.size))
    run = trace if args.trace else measure
    values, detail = run(args, args.workload, module, cases, judge)
    table = units() if args.trace else END_TO_END

    env["loadavg_end"] = loadavg()
    failed = len(judge.failures)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": env, **detail,
              "attempted": judge.attempted, "failed": failed,
              "fail_frac": failed / judge.attempted, "failures": judge.failures[:20],
              "metrics": values}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({k: v for k, v in record.items() if k != "samples"}))
    metrics = {name: {"value": int(values[name]) if unit == "count" else values[name], "unit": unit}
               for name, unit in table.items()}
    # a layer the tracer could not hook or count would read 0 like an idle one
    hooked = not detail.get("missing_targets") and not detail.get("count_hook_errors")
    print(json.dumps({"correct": failed == 0 and hooked, "attempted": judge.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
