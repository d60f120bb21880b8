"""Seeded input generator of the wall-clock benchmark.

Kept apart from ``repro.tensor.synthetic`` on purpose: a change to the
library's sampler must not change what the benchmark measures.
Coordinates are skewed (Zipf-like rank popularity per mode, shuffled so
heavy rows are spread over the index range) and values log-normal. The
tensor has exactly the workload's nnz distinct coordinates.

Run as a script it writes one ``.npz`` input and prints its checksum::

    python3 perfbench/gen.py --dims 183,24,1140,1717 --nnz 300000 --seed 1 --out x.npz
"""

from __future__ import annotations

import argparse
import hashlib
import os

import numpy as np

ZIPF_EXPONENT = 0.8


def _mode_coords(rng, dim: int, count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, dim + 1, dtype=np.float64) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(count), side="right")
    np.minimum(ranks, dim - 1, out=ranks)
    return rng.permutation(dim)[ranks]


def generate(dims, nnz: int, seed: int):
    """``(indices, values)`` with exactly *nnz* distinct coordinates,
    sorted lexicographically (mode 0 slowest)."""
    dims = tuple(int(d) for d in dims)
    if nnz > int(np.prod(dims, dtype=np.float64)):
        raise ValueError(f"{nnz} nonzeros do not fit in {dims}")
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)
    draw = nnz
    while keys.size < nnz:
        coords = np.stack([_mode_coords(rng, d, draw) for d in dims], axis=1)
        keys = np.union1d(keys, np.ravel_multi_index(coords.T, dims))
        draw = max(2 * (nnz - keys.size), 1024)
    keys = np.sort(rng.choice(keys, size=nnz, replace=False))
    indices = np.stack(np.unravel_index(keys, dims), axis=1).astype(np.int64)
    values = rng.lognormal(mean=0.0, sigma=1.0, size=nnz)
    return indices, values


def checksum(indices: np.ndarray, values: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(indices, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def write_input(path: str, dims, nnz: int, seed: int) -> str:
    """Generate, save atomically to *path* and return the checksum."""
    indices, values = generate(dims, nnz, seed)
    digest = checksum(indices, values)
    tmp = f"{path}.tmp.npz"
    np.savez(tmp, indices=indices, values=values,
             shape=np.asarray(dims, dtype=np.int64), checksum=digest)
    os.replace(tmp, path)
    return digest


def load_input(path: str):
    """``(indices, values, shape, checksum)`` of a file from :func:`write_input`."""
    with np.load(path) as data:
        return (data["indices"], data["values"], tuple(int(d) for d in data["shape"]),
                str(data["checksum"]))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", required=True, help="comma-separated mode lengths")
    ap.add_argument("--nnz", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    dims = tuple(int(d) for d in args.dims.split(","))
    digest = write_input(args.out, dims, args.nnz, args.seed)
    print(f"input dims={dims} nnz={args.nnz} seed={args.seed} sha256[:16]={digest}")


if __name__ == "__main__":
    main()
