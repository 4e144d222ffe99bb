#!/usr/bin/env python3
"""Build and run the leakbound benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --regenerate-digests

Run from the root of a leakbound checkout.  The first call configures
and builds perfbench/ (which compiles the library from src/) in Release
under $CARGO_TARGET_DIR, or .bench_build/ when that is unset; later
calls rebuild incrementally.  Build output goes to standard error, so
the last line of standard output is always leakbench's JSON result.
"""

import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no leakbound sources next to perfbench/ (run from a checkout)")
    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    # Runs started together in one checkout build once, one at a time.
    lock = open(os.path.join(BUILD_ROOT, "build.lock"), "w")
    fcntl.flock(lock, fcntl.LOCK_EX)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "--target", "leakbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        die("build failed")
    lock.close()
    return os.path.join(build_dir, "leakbench")


def source_revision():
    """The git commit, or a digest of src/ when there is no repository."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if got.returncode == 0:
            return got.stdout.strip()
    digest = hashlib.sha1()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha1:" + digest.hexdigest()[:16]


def base_args():
    return ["--data-dir", HERE, "--work-dir", os.path.join(BUILD_ROOT, "work"),
            "--commit", source_revision()]


def clean_env():
    env = dict(os.environ)
    # A developer's cache directory must not turn a cold run warm.
    env.pop("LEAKBOUND_CACHE_DIR", None)
    env.pop("LEAKBOUND_FAULT_INJECTION", None)
    return env


def self_test(binary):
    """Short-budget runs of every workload, traced and untraced: every
    metric BENCHMARK.json names must be emitted with its unit, every
    check must pass, and the gate must catch a perturbed histogram.
    daemon_sweep is not timed by BENCHMARK.json, but traced runs probe
    it for the serve layers, so it is tested here too."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    names = [w["name"] for w in spec["workloads"]] + ["daemon_sweep"]
    for name in names:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            got = subprocess.run(
                [binary, "--workload", name, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--short"] + base_args(),
                capture_output=True, text=True, env=clean_env(), timeout=170)
            lines = got.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append("%s trace %d: no JSON result (%s)" %
                                (name, trace, got.stderr.strip()[-300:]))
                continue
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared}
            have = {k: v["unit"] for k, v in metrics.items()}
            if want != have:
                problems.append("%s trace %d: metrics differ: missing %s, "
                                "extra %s, unit mismatch %s" % (
                                    name, trace,
                                    sorted(set(want) - set(have)),
                                    sorted(set(have) - set(want)),
                                    sorted(k for k in want if k in have and
                                           want[k] != have[k])))
            if not result["correct"] or result["failed"] or got.returncode:
                problems.append("%s trace %d: correct=%s failed=%s rc=%d %s" %
                                (name, trace, result["correct"],
                                 result["failed"], got.returncode,
                                 got.stderr.strip()[-300:]))
            print("self-test: %s trace %d: %d metrics, %d operations, "
                  "%d failed" % (name, trace, len(metrics),
                                 result["attempted"], result["failed"]))
    got = subprocess.run([binary, "--perturb-check"] + base_args(),
                         capture_output=True, text=True, env=clean_env(),
                         timeout=170)
    print(got.stdout.strip())
    if got.returncode != 0:
        problems.append("perturbation was not caught by the gate")
    for problem in problems:
        print("self-test FAILED: " + problem)
    print("self-test: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main(argv):
    if not argv:
        die(__doc__.strip())
    binary = build()
    sys.stdout.flush()
    if argv == ["--self-test"]:
        return self_test(binary)
    if argv == ["--regenerate-digests"]:
        got = subprocess.run([binary, "--regenerate-digests"] + base_args(),
                             capture_output=True, text=True, env=clean_env())
        if got.returncode != 0:
            die("regeneration failed: " + got.stderr.strip())
        with open(os.path.join(HERE, "expected.json"), "w") as handle:
            handle.write(got.stdout)
        print("perfbench: wrote perfbench/expected.json")
        return 0
    os.execve(binary, [binary] + argv + base_args(), clean_env())
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
