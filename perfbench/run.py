#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <explore|live_edit|sharded_roam> \
        --seed <n> --seconds <s> --trace <0|1> [--held-out]

The benchmark is its own Cargo package (perfbench/Cargo.toml) built against
the repository's crates by path. It is built into $CARGO_TARGET_DIR, or
.bench_build at the repository root when that is unset. The last line of
standard output is the JSON result; everything before it is the
human-readable report. The exit code is the benchmark's: non-zero when the
build fails, the run fails or the correctness gate finds a wrong answer.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 870
# The run is stopped after RUN_LIMIT_S, or after a longer limit derived
# from the run's own work: its set-ups (a traced run sets up twice) at a
# generous allowance each, plus each measured pass at three times its
# length for correctness checks and trace overhead.
RUN_LIMIT_S = 178
SETUPS = {"explore": 11, "live_edit": 11, "sharded_roam": 3}
SETUP_ALLOWANCE_S = {"explore": 3, "live_edit": 3, "sharded_roam": 20}


def run_limit(workload, seconds, traced):
    setups = 2 if traced else SETUPS[workload]
    passes = 2 if traced else 1
    need = 30 + setups * SETUP_ALLOWANCE_S[workload] + passes * 3 * seconds
    return max(RUN_LIMIT_S, need)


def source_fingerprint():
    """The git commit when the root is a checkout, else a hash of the sources
    the binary is built from (so a result still names the code it measured)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in ("target", ".bench_build"))
            files += [os.path.join(base, n) for n in sorted(names)
                      if n.endswith((".rs", ".toml", ".lock", ".py"))]
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["explore", "live_edit", "sharded_roam"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=20,
                        help="measured length of one pass, 1 to 600")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out seed instead of --seed")
    args = parser.parse_args()
    if args.seed is None and not args.held_out:
        parser.error("--seed or --held-out is required")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be between 1 and 600")
    limit = run_limit(args.workload, args.seconds, args.trace == "1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--commit", source_fingerprint(),
    ]
    # any integer is a valid seed; the benchmark takes it as a u64
    cmd += ["--held-out"] if args.held_out else ["--seed", str(args.seed % (1 << 64))]
    started = time.monotonic()
    sys.stdout.flush()
    try:
        ran = subprocess.run(cmd, cwd=ROOT, timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {limit} s", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"perfbench: cannot run the benchmark: {e}", file=sys.stderr)
        return 1
    print(f"perfbench: ran in {time.monotonic() - started:.1f} s", file=sys.stderr)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
