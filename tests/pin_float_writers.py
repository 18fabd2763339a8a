"""Pin both float writers of ``evpoly.documents`` to Python's formatting.

    python tests/pin_float_writers.py N [SEED]

Takes N random 64-bit patterns, then every biased exponent 0..2047 with a
zero and with random mantissas, both signs. Each batch of doubles goes
through ``_array_text``, which must equal ``json.dumps`` of its list
(``float.__repr__``; its finite doubles only), and through the OBJ writer,
whose ``v`` records must equal ``'%.17g'`` of each coordinate. Prints the
counts and exits 1 at the first batch that differs.
"""

import json
import sys

import numpy as np

from evpoly import documents

BATCH = 3 * 2**15  # doubles per comparison


def cases(n: int, rng) -> np.ndarray:
    """n random bit patterns, then each biased exponent with mantissa 0 and random ones."""
    random = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    expo = np.repeat(np.arange(2048, dtype=np.uint64) << np.uint64(52), 4)
    mantissa = rng.integers(0, 2**52, expo.size, dtype=np.uint64)
    mantissa[::4] = 0
    sweep = expo | mantissa
    return np.concatenate([random, sweep, sweep | np.uint64(2**63)]).view(float)


def check(x: np.ndarray) -> tuple:
    """The finite doubles of x and all of x, each pinned; raise AssertionError if one differs."""
    finite = x[np.isfinite(x)]
    assert documents._array_text(finite) == json.dumps(finite.tolist()), "repr"
    rows = np.concatenate([x, np.zeros(-x.size % 3)]).reshape(-1, 3)  # 0 pads the last row
    want = ("v %.17g %.17g %.17g\n" * len(rows)) % tuple(rows.ravel().tolist())
    v_records = documents.obj_records(rows, None, np.empty((0, 3), int), np.empty((0, 2), int))[0]
    assert v_records == want.encode(), "%.17g"
    return finite.size, x.size


def main(argv) -> int:
    n = int(argv[0])
    rng = np.random.default_rng(int(argv[1]) if len(argv) > 1 else 0)
    x = cases(n, rng)
    counts = np.zeros(2, int)
    for i in range(0, x.size, BATCH):
        try:
            counts += check(x[i:i + BATCH])
        except AssertionError as exc:
            print(f"mismatch ({exc}) in doubles {i} .. {i + BATCH}")
            return 1
    print(f"{x.size} doubles: {counts[0]} through _array_text as repr, "
          f"{counts[1]} through the OBJ writer as %.17g")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
