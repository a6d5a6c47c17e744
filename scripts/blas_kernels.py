#!/usr/bin/env python3
"""Check that one glancer checkout writes the same artifacts under two BLAS kernels.

OpenBLAS built with DYNAMIC_ARCH picks its kernels by CPU, and the kernels
of newer CPUs fuse multiply and add, so a numpy product on small vectors
can round differently from one CPU model to the next. This script runs the
command set of ``artifact_diff.py`` on one checkout twice, each in its own
Python subprocess: once under the default kernel of this CPU, once under
``OPENBLAS_CORETYPE=Nehalem``, an SSE kernel without fused multiply-add. It
prints SAME or DIFF per command, as ``artifact_diff.py`` does, and exits 1
on any DIFF, 2 when a run fails. On a CPU whose default kernel is Nehalem's,
or with a numpy that does not use OpenBLAS, both runs use the same kernel
and the check shows nothing.

Usage:
    python3 scripts/blas_kernels.py [CHECKOUT] --workloads glide,curved,audit --rounds 1
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from artifact_diff import add_options, diff_runs, has_sources

KERNEL = "Nehalem"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path, nargs="?", default=Path("."))
    add_options(ap)
    args = ap.parse_args(argv)

    checkout = args.checkout.resolve()
    if not has_sources(checkout):
        return 2
    default = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    return diff_runs([(checkout, default), (checkout, {**default, "OPENBLAS_CORETYPE": KERNEL})], args)


if __name__ == "__main__":
    sys.exit(main())
