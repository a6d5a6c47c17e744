#!/usr/bin/env python3
"""Compare what two glancer checkouts write for the benchmark's CLI commands.

The commands of each workload come from perfbench/workloads.py (seeded as
in perfbench/run.py). The extra workload ``readme`` runs, once, the
``glancer`` command lines of the README's ``sh`` blocks in this repository
(``classify``, ``quasi-normal``, multi-bounce strip traces and a ``gcc``
audit with the default worker count, which the benchmark does not run).
Each checkout runs all of them in its own Python subprocess, through its
own ``glancer.cli.main``. For every command the script prints SAME or DIFF
for the exit code, for the JSON summary (without ``elapsed_s`` and the
artifact paths) and for the bytes of every file the command wrote. A file
that differs is sized: ``DIFF(max 9.9e-14)`` gives the largest absolute
difference over its numbers when both files have the same text apart from
their numeric tokens, ``DIFF(layout)`` that they differ otherwise (or that
one of them is missing). It exits 1 on any difference, 2 when a checkout
holds no glancer sources.

Against a checkout older than the fix that made ``gcc`` reports independent
of ``--workers``, the README ``gcc`` command is expected to DIFF on a
machine with more than one core: there the older checkout audits in
parallel and also counted the samples after the first witness
(``n_entered`` in the summary and in ``gcc_report.csv``).

Usage:
    python3 scripts/artifact_diff.py CHECKOUT_A CHECKOUT_B \\
        --workloads glide,audit,curved,readme --seed 1 --rounds 3
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
README = HERE.parent / "README.md"
MANIFEST = "manifest.json"
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN")


def readme_commands() -> list[list[str]]:
    """argv of every ``glancer ...`` line in the README's sh blocks."""
    argvs = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("glancer "):
                argvs.append(shlex.split(line)[1:])
    return argvs


def run_checkout(checkout: str, out: str, workloads: str, seed: str, rounds: str) -> None:
    """Run every command against one checkout; write out/manifest.json.

    Meant to run in a fresh interpreter (started with -B, so that nothing is
    written next to the imported sources): glancer is imported from the
    checkout, the workloads from this repository's perfbench directory.
    """
    sys.path[:0] = [str(Path(checkout) / "src"), str(PERFBENCH)]
    import glancer
    import glancer.cli
    import workloads as wl_mod

    out = Path(out)
    records = []
    for name in workloads.split(","):
        if name == "readme":
            rounds_argv = [[(argv[0], argv) for argv in readme_commands()]]
        else:
            wl = wl_mod.WORKLOADS[name](glancer, int(seed))
            rounds_argv = ([(c.kind, c.argv) for c in wl.round(r)] for r in range(int(rounds)))
        for r, cmds in enumerate(rounds_argv):
            for i, (kind, argv) in enumerate(cmds):
                cmd_out = out / name / f"r{r}c{i}"
                cmd_out.mkdir(parents=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        rc = glancer.cli.main(argv + ["--out", str(cmd_out)])
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # a crash is an outcome to compare
                    rc = f"raised {type(exc).__name__}: {exc}"
                lines = stdout.getvalue().strip().splitlines()
                try:
                    summary = json.loads(lines[-1]) if lines else None
                except ValueError:
                    summary = None
                if isinstance(summary, dict):
                    summary = {
                        k: v for k, v in summary.items()
                        if k != "elapsed_s" and not (isinstance(v, str) and v.startswith(str(cmd_out)))
                    }
                records.append({
                    "label": f"{name} r{r} #{i} {kind}",
                    "argv": argv,
                    "rc": rc,
                    "summary": summary,
                    "dir": str(cmd_out),
                })
    (out / MANIFEST).write_text(json.dumps(records))


def _start(checkout: Path, out: Path, args, env: dict | None) -> subprocess.Popen:
    code = "import sys; sys.path.insert(0, sys.argv[1]); import artifact_diff; artifact_diff.run_checkout(*sys.argv[2:])"
    return subprocess.Popen(
        [sys.executable, "-B", "-c", code, str(HERE), str(checkout), str(out),
         args.workloads, str(args.seed), str(args.rounds)],
        cwd=checkout,
        env=env,
    )


def _files(d: Path) -> dict[str, bytes]:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


def file_verdict(a: bytes | None, b: bytes | None) -> str:
    """SAME, DIFF(max <largest numeric change>) or DIFF(layout) for two file bodies."""
    if a == b:
        return "SAME"
    if a is None or b is None or NUMBER.sub(b"#", a) != NUMBER.sub(b"#", b):
        return "DIFF(layout)"
    pairs = zip(NUMBER.findall(a), NUMBER.findall(b))
    worst = max((abs(float(x) - float(y)) for x, y in pairs if x != y), default=0.0)
    return f"DIFF(max {worst:.1e})"


def compare(a: dict, b: dict) -> list[tuple[str, str]]:
    """(item, verdict) pairs for one command run against both checkouts."""
    flags = [("argv", a["argv"] == b["argv"]), ("exit", a["rc"] == b["rc"]),
             ("summary", a["summary"] == b["summary"])]
    items = [(name, "SAME" if ok else "DIFF") for name, ok in flags]
    fa, fb = _files(Path(a["dir"])), _files(Path(b["dir"]))
    for name in sorted(set(fa) | set(fb)):
        items.append((name, file_verdict(fa.get(name), fb.get(name))))
    return items


def add_options(ap: argparse.ArgumentParser) -> None:
    """The options that choose the command set: --workloads, --seed, --rounds."""
    ap.add_argument("--workloads", default="glide,audit,curved",
                    help="comma-separated perfbench workload names, or readme")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=3)


def has_sources(checkout: Path) -> bool:
    if (checkout / "src" / "glancer" / "cli.py").is_file():
        return True
    print(f"artifact_diff: no glancer sources under {checkout / 'src'}", file=sys.stderr)
    return False


def diff_runs(runs: list[tuple[Path, dict | None]], args) -> int:
    """Run the command set for two (checkout, environment) pairs, each in its
    own subprocess (environment None: this one's), and print SAME or DIFF per
    command. Returns the exit code: 0, 1 on any difference, 2 when a run fails."""
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp:
        outs = [Path(tmp) / "a", Path(tmp) / "b"]
        procs = [_start(c, o, args, env) for (c, env), o in zip(runs, outs)]
        if any([p.wait() != 0 for p in procs]):  # a list: wait for both
            print("artifact_diff: a checkout's run failed", file=sys.stderr)
            return 2
        manifests = [json.loads((o / MANIFEST).read_text()) for o in outs]
        n_diff = 0
        for a, b in zip(*manifests):
            items = compare(a, b)
            same = all(verdict == "SAME" for _, verdict in items)
            n_diff += not same
            detail = " ".join(f"{name}={verdict}" for name, verdict in items)
            print(f"{'SAME' if same else 'DIFF'}  {a['label']}: {detail}")
        if len(manifests[0]) != len(manifests[1]):
            n_diff += 1
            print(f"DIFF  command count {len(manifests[0])} vs {len(manifests[1])}")
    print(f"{n_diff} of {max(map(len, manifests))} commands differ")
    return 1 if n_diff else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout_a", type=Path)
    ap.add_argument("checkout_b", type=Path)
    add_options(ap)
    args = ap.parse_args(argv)

    checkouts = [args.checkout_a.resolve(), args.checkout_b.resolve()]
    if not all([has_sources(c) for c in checkouts]):
        return 2
    return diff_runs([(c, None) for c in checkouts], args)


if __name__ == "__main__":
    sys.exit(main())
