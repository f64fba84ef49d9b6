#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
the program from source into .bench_build/ (CMake + Ninja, Release);
later runs only rebuild what changed. The workload's settings come from
perfbench/config.json. The perfbench binary's standard output is passed
through; its last line is the JSON result, checked here against the
metric lists of BENCHMARK.json. Exits 1 after the result when an output
was wrong (correct=false); exits non-zero without a result when the
build fails, the run fails or the result does not match the lists.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j",
         str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def config_arg(section):
    items = []
    for key, value in section.items():
        text = str(value)
        if ";" in text or "=" in key:
            raise ValueError(f"config {key}={text} cannot be passed down")
        items.append(f"{key}={text}")
    return ";".join(items)


def check_result(line, benchmark, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"result keys {sorted(result)}")
    wanted = benchmark["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if list(result["metrics"]) != names:
        raise ValueError(f"metrics {list(result['metrics'])} != BENCHMARK.json {names}")
    for m in wanted:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            raise ValueError(f"unit of {m['name']}")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        print(f"run.py: unknown workload {args.workload}", file=sys.stderr)
        return 2
    if list(config["per_layer"]) != [m["name"] for m in benchmark["per_layer"]]:
        print("run.py: config.json per_layer does not list BENCHMARK.json's "
              "per-layer metrics in order", file=sys.stderr)
        return 2

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--config", config_arg(config[args.workload])]
    # A process group of its own, so a timeout can stop all of it (the
    # daemon, fleet replicas and campaign workers included).
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: the run took over {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    if not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        print(f"run.py: perfbench exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 1
    try:
        check_result(lines[-1], benchmark, args.trace == 1)
    except (ValueError, KeyError) as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"run.py: result does not match BENCHMARK.json: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    # perfbench exits 1 after its result when an output was wrong.
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
