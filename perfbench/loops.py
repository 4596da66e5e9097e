"""Write rotation-loop files for connected sums of the fixture knots.

Usage:  python3 perfbench/loops.py FIXTURES OUT_DIR KNOT+KNOT [...]

Each argument such as ``trefoil+figure8`` names fixture knots by their
Morse presentations in FIXTURES/loops/rot_template.json; the file
OUT_DIR/trefoil+figure8.json receives ``rot_loop(connected_sum(...))``
in the ``{"initial": ..., "moves": [...]}`` form that
``python -m knotcocycle eval-loop --loop FILE`` reads.
"""

from __future__ import annotations

import sys
from pathlib import Path

from knotcocycle import fixtures_io as fio
from knotcocycle.cocycles import rot_loop
from knotcocycle.morse import connected_sum


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    fixtures, out = Path(argv[0]), Path(argv[1])
    for spec in argv[2:]:
        events = connected_sum(*(fio.load_morse(fixtures, name) for name in spec.split("+")))
        loop = rot_loop(events)
        fio.save_json(out / f"{spec}.json", {
            "initial": fio.diagram_to_json(loop.initial),
            "moves": [fio.move_to_json(m) for m in loop.moves],
        })
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
