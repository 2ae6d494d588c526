"""Regenerate bench/reference.json from the program at the current commit.

    python3 bench/make_reference.py

The digests are the byte-identity gate on trace.csv. Regenerate them only in
a change that is meant to alter trace.csv bytes and says so; a refactor or an
optimisation must pass against the recorded values.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from dmtrack import cli
    from dmtrack.harness import preset_microgrid14
    from dmtrack.oracle import solve_dual

    instance, _ = preset_microgrid14()
    x_star_norm = float(np.linalg.norm(solve_dual(instance).x_star))
    ref = {"digests": {}, "rounds_to_tol": None, "x_star_norm": x_star_norm}
    work = ROOT / ".bench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in wl.DIGEST_WORKLOADS:
            config, argv, out = wl.prepare(workload, wl.REF_SEED, 0, False, work)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            _, digest, problems = wl.check_invocation(
                workload, code, buf.getvalue(), out, config, check_tol=False
            )
            if problems:
                raise SystemExit(f"{workload}: {'; '.join(problems)}; not recording a reference")
            ref["digests"][workload] = digest
            if workload == "free_converge":
                ref["rounds_to_tol"] = wl.rounds_to_tol(out / "trace.csv", x_star_norm)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=2) + "\n")
    print(json.dumps(ref, indent=2))


if __name__ == "__main__":
    main()
