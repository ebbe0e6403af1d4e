#!/usr/bin/env python3
"""Run one workload of the optprob benchmark.

From the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds the harness (perfbench/optbench.ml) and the
libraries it links with dune, runs the workload, and passes the harness
output through: per-circuit lines (designs, coverage, digests, timings)
and, as the last line, one JSON object with the keys "correct",
"attempted", "failed" and "metrics".  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.

The harness runs with OPTPROB_* and OCAMLRUNPARAM removed from its
environment, so settings meant for other runs never leak in.

--self-test runs the seconds-long smoke workloads on tiny built-ins in
both modes, checks every metric name and unit against BENCHMARK.json,
and injects a wrong output for each output check, and an exception, to
check that each is counted as a failed operation without ending the run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/optbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "optbench.exe")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Self-test fault injections: (kind, trace modes, operations it must fail).
INJECTIONS = [
    ("weights", (0, 1), "all"),
    ("n", (0, 1), "all"),
    ("coverage", (0, 1), "all"),
    ("first-detect", (0, 1), "some"),
    ("drift", (0,), "some"),
    ("raise", (0, 1), "all"),
]


class Failure(Exception):
    pass


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout
    or interruption, and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as e:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(e, subprocess.TimeoutExpired):
            raise Failure("%s: timed out after %d s" % (cmd[0], timeout))
        raise
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        raise Failure("no dune-project at %s: not an optprob checkout" % ROOT)
    try:
        # The shared dune cache lives outside the checkout: keep it out.
        rc, _ = run_group(["dune", "build", "--root", ".", "--cache=disabled", TARGET],
                          BUILD_TIMEOUT_S, cwd=ROOT, stdout=sys.stderr)
    except FileNotFoundError:
        raise Failure("dune not found on PATH")
    if rc != 0:
        raise Failure("dune build %s failed (exit %d)" % (TARGET, rc))


def clean_env():
    return {k: v for k, v in os.environ.items()
            if not k.startswith("OPTPROB_") and k != "OCAMLRUNPARAM"}


def harness(args, stderr=None):
    """Run the harness; return its stdout lines and parsed result."""
    rc, out = run_group([EXE] + args, RUN_TIMEOUT_S, cwd=ROOT, env=clean_env(),
                        stdout=subprocess.PIPE, stderr=stderr, text=True)
    lines = out.splitlines()
    if rc != 0 or not lines:
        raise Failure("optbench %s exited %d" % (" ".join(args), rc))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise Failure("optbench %s: last line is not JSON" % " ".join(args))
    return lines, result


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_shape(result, trace):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise Failure("result keys %s" % sorted(result))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise Failure("attempted/failed are not counts: %r" % result)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        raise Failure("metrics %s differ from BENCHMARK.json %s" % (got, want))
    for k, v in result["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            raise Failure("metric %s has no numeric value: %r" % (k, v))


def self_test():
    build()
    for workload in ("smoke-run", "smoke-simulate"):
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace)]
            _, result = harness(args)
            check_shape(result, trace)
            if not result["correct"] or result["failed"] != 0:
                raise Failure("%s --trace %d failed: %r" % (workload, trace, result))
            print("self-test: %s --trace %d ok (%d operations)"
                  % (workload, trace, result["attempted"]))
    # Each injected fault must be caught by its check; every operation must
    # fail where the fault hits every operation ("all"), and an exception
    # must not end the run.  "drift" needs a second pass, so trace 0 only.
    for inject, traces, hits in INJECTIONS:
        for trace in traces:
            args = ["--workload", "smoke-run", "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--inject", inject]
            _, result = harness(args, stderr=subprocess.DEVNULL)
            caught = not result["correct"] and result["failed"] >= 1
            if hits == "all":
                caught = caught and result["failed"] == result["attempted"]
            if not caught:
                raise Failure("injected %s not caught: %r" % (inject, result))
            print("self-test: injected %s --trace %d caught (%d/%d failed)"
                  % (inject, trace, result["failed"], result["attempted"]))
    print("self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    try:
        if a.self_test:
            self_test()
            return 0
        if None in (a.workload, a.seed, a.seconds, a.trace):
            ap.error("--workload, --seed, --seconds and --trace are required")
        build()
        lines, result = harness(["--workload", a.workload, "--seed", str(a.seed),
                                 "--seconds", str(a.seconds), "--trace", str(a.trace)])
        check_shape(result, a.trace)
    except Failure as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
