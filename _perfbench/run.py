#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 _perfbench/run.py --workload ccs-read --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from the checkout's sources into
the build directory ($CARGO_TARGET_DIR, default .bench_build), with the Go
build cache and temporary files kept there too, and then run with the given
arguments. Its last line of output is the result JSON. The exit code is
non-zero, with no result printed, when the build or the run fails.
"""
import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def source_digest(root):
    """Digest of the Go sources, identifying the code when git is absent."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def revision(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return source_digest(root)
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest(root)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    out = os.path.join(build, "perfbench")
    tmp = os.path.join(build, "tmp")
    for d in (out, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               GOTMPDIR=tmp, TMPDIR=tmp,
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", CGO_ENABLED="0")
    binary = os.path.join(out, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: build:", e, file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "-out", out, "-commit", revision(root)] + sys.argv[1:]
    try:
        ran = subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: run:", e, file=sys.stderr)
        return 1
    return 0 if ran.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
