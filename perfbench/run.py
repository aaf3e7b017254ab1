#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload census|spoof-study|verdict-service \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is its own Cargo package
(perfbench/Cargo.toml) with path dependencies on the workspace crates; it
is built in release mode into $CARGO_TARGET_DIR (default `.bench_build`)
and then run with the same arguments plus a fingerprint of the build.
The last line of standard output is the benchmark's JSON result. Build
output goes to standard error. Exits non-zero without a result when the
build or the run fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/src", "perfbench/Cargo.toml"]


def source_digest():
    """SHA-256 over the Rust sources and manifests the build reads."""
    digest = hashlib.sha256()
    for top in SOURCES:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            if f.suffix in (".rs", ".toml", ".lock"):
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    if not MANIFEST.is_file() or not (ROOT / "crates").is_dir():
        print("perfbench: run from the repository root (crates/ and perfbench/ are needed)",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(MANIFEST)],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    fingerprint = {
        "rustc": command_output(["rustc", "--version"]),
        "profile": "release",
        "commit": command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "none",
        "source_sha256": source_digest(),
    }
    args = [str(target / "release" / "perfbench"), *sys.argv[1:]]
    for key, value in fingerprint.items():
        args += ["--fingerprint", f"{key}={value}"]
    return subprocess.run(args, cwd=ROOT, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
