"""Regenerate the golden refactor-equivalence outputs.

The golden files pin the observable behaviour of the three pre-existing
policies (``ci``, ``ci-iw``, ``vect``) and of the two configurations
without a mechanism (``scal``, ``wb``) across the full 12-kernel suite,
plus one rendered figure table.  They were generated *before* the
mechanism-pipeline refactor and must stay byte-identical afterwards
(``tests/test_golden_equivalence.py``).

Only regenerate when the *timing model itself* changes deliberately::

    PYTHONPATH=src python tests/golden/regenerate.py

Keep SCALE/SEED in sync with tests/test_golden_equivalence.py.
"""

from __future__ import annotations

import json
import os

SCALE = 0.3
SEED = 1
POLICIES = ("ci", "ci-iw", "vect")
#: runs without a mechanism attached (see ``golden_config``)
BASELINES = ("scal", "wb")
FIG_SCALE = 0.1

HERE = os.path.dirname(os.path.abspath(__file__))


def golden_config(name: str):
    """The config ``suite_<name>.json`` pins: a policy or a baseline."""
    from repro.uarch import ci, scal, wb
    if name == "scal":
        return scal(1, 256)
    if name == "wb":
        return wb(1, 512)
    return ci(1, 512, policy=name)


def suite_stats(name: str) -> dict:
    from repro import run_program
    from repro.workloads import build_program, kernel_names
    cfg = golden_config(name)
    out = {}
    for kernel in kernel_names():
        prog = build_program(kernel, SCALE, SEED)
        out[kernel] = run_program(prog, cfg).as_dict()
    return out


def figure_table() -> str:
    os.environ["REPRO_SCALE"] = str(FIG_SCALE)
    from repro.experiments import fig05
    from repro.runtime import ParallelRunner, ResultCache
    runner = ParallelRunner(scale=FIG_SCALE, seed=SEED, jobs=1,
                            cache=ResultCache(enabled=False))
    return fig05.compute(runner).render()


def run_keys() -> dict:
    """Pin the canonical run keys (tests/test_run_spec.py).

    Regenerate only when the key schema changes deliberately — a drift
    here silently invalidates every user's disk cache.
    """
    from repro.runtime import CACHE_SCHEMA, RunSpec
    from repro.uarch import ci, scal, wb
    specs = [
        RunSpec("gzip", 0.1, 1, ci(1, 512)),
        RunSpec("mcf", 0.1, 1, wb(1, 512)),
        RunSpec("eon", 0.1, 2, ci(1, 512, policy="vect"), policy="vect"),
        RunSpec("perlbmk", 0.05, 3, scal(1, 256)),
        RunSpec("bzip2", 0.1, 1, ci(1, 512), faults="valfail*2,seed=7"),
    ]
    return {"schema": CACHE_SCHEMA,
            "entries": [{"spec": s.to_dict(), "key": s.cache_key()}
                        for s in specs]}


def main() -> None:
    for name in POLICIES + BASELINES:
        path = os.path.join(HERE, f"suite_{name}.json")
        with open(path, "w") as fh:
            json.dump(suite_stats(name), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    path = os.path.join(HERE, "fig05.txt")
    with open(path, "w") as fh:
        fh.write(figure_table() + "\n")
    print(f"wrote {path}")
    path = os.path.join(HERE, "run_keys.json")
    with open(path, "w") as fh:
        json.dump(run_keys(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
