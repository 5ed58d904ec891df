#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the polarstar libraries
from src/ plus the benchmark program, Release) into .bench_build/perfbench;
later calls rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Traced runs write their
spans to .bench_build/spans/<run id>.json.
"""
import hashlib
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_build" / "spans"
BINARY = BUILD / "polarstar_perfbench"
# One run must end within 180 s; the benchmark itself measures for at most
# --seconds plus one workload iteration.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def check_call(cmd):
    # Build chatter goes to stderr; stdout is reserved for the result.
    status = subprocess.run([str(c) for c in cmd], cwd=ROOT,
                            stdout=sys.stderr.fileno()).returncode
    if status != 0:
        fail(f"command failed ({status}): {' '.join(str(c) for c in cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no polarstar sources under {ROOT / 'src'}; "
             "run from a full checkout of the repository")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found on PATH")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        check_call([cmake, "-S", BENCH, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release", *generator])
    check_call([cmake, "--build", BUILD, "-j", "4"])


def revision():
    """Git commit when the checkout is a repository, plus a digest of the
    sources the benchmark builds, which identifies the code either way."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    rev = "src-" + h.hexdigest()[:16]
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            rev = git.stdout.strip() + "+" + rev
    return rev


def main(argv):
    build()
    cmd = [str(BINARY), *argv]
    if argv != ["--self-test"]:
        SPANS.mkdir(parents=True, exist_ok=True)
        cmd += ["--revision", revision(), "--spans-dir", str(SPANS)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
