"""Write the check-mix reference table for a range of seeds to stdout.

    python3 bench/record_check_mix.py FIRST LAST > bench/check_mix_refs.txt

Each line is ``seed md5 linked_admissible linked_stage3``: the md5 of the
verdict lines of one pass over the seed's stream, and how the linked
stratum splits between admissible and stage-3 rejects.  The table in the
repository was recorded at the commit that introduced the benchmark, so
it pins the verdicts ``check_betti`` gave there.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
import workloads  # noqa: E402
from bettiforge.aci import AciBetti, check_betti  # noqa: E402


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    print("# seed md5 linked_admissible linked_stage3")
    for seed in range(first, last + 1):
        items = inputs.check_mix(seed)
        verdicts = [check_betti(AciBetti.from_values(d, e, f)) for _, d, e, f in items]
        bad = [s for (s, *_), v in zip(items, verdicts) if not workloads.stratum_holds(s, v)]
        if bad:
            print(f"error: seed {seed}: {len(bad)} verdicts outside their stratum", file=sys.stderr)
            return 1
        _, md5, admissible, stage3 = workloads.check_mix_summary(items, verdicts)
        print(seed, md5, admissible, stage3, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
