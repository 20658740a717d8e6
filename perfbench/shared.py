"""Inputs, reference checks, statistics and span recording for the benchmark.

Everything here is the benchmark's own code: the reference SAD, histogram
matching and optimum used to check outputs are written against NumPy and
SciPy directly, never through the program under test.  Functions that call
the program import ``repro`` lazily, so the orchestrator can start (and fail
cleanly) without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: The paper's four (input -> target) pairs of Figs. 7-8.
PAPER_PAIRS = (
    ("portrait", "sailboat"),
    ("airplane", "portrait"),
    ("peppers", "barbara"),
    ("tiffany", "baboon"),
)


def require_program() -> None:
    """Exit non-zero unless the checkout holds the program's sources."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"benchmark: no program sources under {SRC!r}; run from the "
            "root of a checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- inputs -----------------------------------------------------------------

def perturbed_image(name: str, n: int, seed: int, variant: int = 0) -> np.ndarray:
    """A procedural standard image with seeded +-4 grey-level noise."""
    from repro.imaging import standard_image

    base = standard_image(name, n).astype(np.int16)
    tag = int.from_bytes(hashlib.sha256(f"{name}/{variant}".encode()).digest()[:4], "little")
    rng = np.random.default_rng([seed, tag])
    noise = rng.integers(-4, 5, size=base.shape, dtype=np.int16)
    return np.clip(base + noise, 0, 255).astype(np.uint8)


# -- reference checks (independent of the program) --------------------------

def reference_match_histogram(image: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """CDF-inversion histogram specification, as in the paper's Section II."""
    src_cdf = np.cumsum(np.bincount(image.ravel(), minlength=256)) / image.size
    ref_cdf = np.cumsum(np.bincount(reference.ravel(), minlength=256)) / reference.size
    lut = np.clip(np.searchsorted(ref_cdf, src_cdf, side="left"), 0, 255)
    return lut.astype(np.uint8)[image]


def tiles_of(image: np.ndarray, m: int) -> np.ndarray:
    """Row-major ``(S, m*m)`` tile stack of a square grey image."""
    t = image.shape[0] // m
    return image.reshape(t, m, t, m).swapaxes(1, 2).reshape(t * t, m * m)


def reference_sad(input_tiles: np.ndarray, target_tiles: np.ndarray) -> np.ndarray:
    """Dense ``E[u, v] = sum |I_u - T_v|`` with NumPy broadcasting."""
    a = input_tiles.astype(np.int16)
    b = target_tiles.astype(np.int16)
    s = a.shape[0]
    out = np.empty((s, s), dtype=np.int64)
    rows = max(1, (32 << 20) // (s * a.shape[1]))
    for start in range(0, s, rows):
        out[start:start + rows] = np.abs(a[start:start + rows, None, :] - b[None]).sum(axis=2)
    return out


def optimum_total(matched: np.ndarray, target: np.ndarray, m: int) -> int:
    """Optimal Eq. (2) total, cached on disk by instance content."""
    from scipy.optimize import linear_sum_assignment

    key = hashlib.sha256(
        matched.tobytes() + target.tobytes() + f"/{matched.shape}/{m}".encode()
    ).hexdigest()
    path = os.path.join(OUT, "optimum", key + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            return int(json.load(fh)["total"])
    except (OSError, ValueError, KeyError):
        pass
    matrix = reference_sad(tiles_of(matched, m), tiles_of(target, m))
    rows, cols = linear_sum_assignment(matrix)
    total = int(matrix[rows, cols].sum())
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"total": total}, fh)
    os.replace(tmp, path)
    return total


def eq2_total(image: np.ndarray, target: np.ndarray) -> int:
    """Eq. (2) of an output image: SAD summed over all tiles = all pixels."""
    return int(np.abs(image.astype(np.int32) - target.astype(np.int32)).sum())


def check_output(image, reported_total, matched, target, m, permutation=None) -> list[str]:
    """Every check one finished job must pass; returns the failures."""
    problems = []
    out_tiles = tiles_of(np.asarray(image), m)
    in_tiles = tiles_of(matched, m)
    if permutation is not None:
        perm = np.asarray(permutation)
        if perm.shape != (in_tiles.shape[0],) or not np.array_equal(
            np.sort(perm), np.arange(in_tiles.shape[0])
        ):
            return ["permutation is not a valid rearrangement"]
        if not np.array_equal(out_tiles, in_tiles[perm]):
            problems.append("output tiles differ from the matched input's tiles under the permutation")
    elif sorted(t.tobytes() for t in out_tiles) != sorted(t.tobytes() for t in in_tiles):
        problems.append("output tiles are not a permutation of the matched input's tiles")
    recomputed = eq2_total(image, target)
    if int(reported_total) != recomputed:
        problems.append(f"reported total {reported_total} != Eq. (2) recomputed {recomputed}")
    return problems


def result_digest(image: np.ndarray, permutation: np.ndarray | None = None) -> str:
    h = hashlib.sha256(np.ascontiguousarray(image).tobytes())
    if permutation is not None:
        h.update(np.asarray(permutation, dtype=np.int64).tobytes())
    return h.hexdigest()


# -- statistics ---------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: int) -> float:
    """``q``-th percentile (inclusive method, so small samples stay inside)."""
    values = sorted(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def geomean(values) -> float:
    values = list(values)
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


# -- process probes -----------------------------------------------------------

def status_kb(field: str, pid: str | int = "self") -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def reset_peak_rss() -> None:
    """Reset VmHWM to the current RSS (``clear_refs`` value 5)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


# -- spans --------------------------------------------------------------------

class Tracer:
    """In-memory spans (name, start, end, parent, job) around public calls.

    ``call`` records one layer call.  Per-layer memory comes from resetting
    the peak RSS before the call and reading it after; page faults and
    system time come from ``getrusage``.  The probes run outside the span's
    own start and end.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def call(self, name: str, job: str, parent: int | None, fn, *args, **kwargs):
        reset_peak_rss()
        rss0 = status_kb("VmRSS")
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        end = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        hwm = status_kb("VmHWM")
        self.spans.append({
            "name": name, "start": start, "end": end, "parent": parent, "job": job,
            "mb": (hwm - rss0) / 1024.0,
            "minflt": ru1.ru_minflt - ru0.ru_minflt,
            "sys_s": ru1.ru_stime - ru0.ru_stime,
        })
        return value

    def open(self, name: str, job: str, parent: int | None = None) -> int:
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "job": job})
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()

    def children(self, index: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == index]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


# -- library replay -----------------------------------------------------------

def replay_job(tracer: Tracer, job: str, inp, tgt, *, tile_size, algorithm, top_k=0, seed=None):
    """Replay ``PhotomosaicGenerator.generate`` as its sequence of public calls.

    Returns ``(root_span_index, permutation, total)``.  Each call is one span
    under a root span named ``mosaic``; counts come from returned metadata.
    """
    from repro.assignment import get_solver
    from repro.coloring.groups import build_edge_groups
    from repro.cost import error_matrix, get_metric, sketch_features, sparse_error_matrix, total_error
    from repro.imaging.histogram import match_histogram
    from repro.localsearch import local_search_parallel
    from repro.tiles.grid import TileGrid

    root = tracer.open("mosaic", job)
    adjusted = tracer.call("imaging.histogram", job, root, match_histogram, inp, tgt)
    grid = TileGrid.for_image(adjusted, tile_size)
    in_t, tg_t = tracer.call("tiles.split", job, root, lambda: (grid.split(adjusted), grid.split(tgt)))
    s = grid.tile_count
    groups = None
    if algorithm == "parallel":
        # A cold build: the undecorated function bypasses the groups cache.
        groups = tracer.call("coloring.edge_groups", job, root, build_edge_groups.__wrapped__, s)
    sparse = None
    extra: dict = {"pairs": s * s}
    if top_k:
        prepared = get_metric("sad").prepare(np.asarray(in_t))
        tracer.call("cost.sketch", job, root, sketch_features, prepared, "mean")
        sparse = tracer.call(
            "cost.sparse", job, root, sparse_error_matrix, in_t, tg_t, "sad",
            top_k=top_k, sketch="mean", seed=seed,
        )
        matrix = tracer.call("cost.to_dense", job, root, sparse.to_dense)
        mask = tracer.call("cost.mask", job, root, sparse.mask)
        extra["pair_share"] = sparse.meta["pairs_evaluated"] / sparse.meta["pairs_total"]
    else:
        matrix = tracer.call("cost.dense", job, root, error_matrix, in_t, tg_t, "sad")
        extra["bytes"] = int(matrix.nbytes + np.asarray(in_t).nbytes + np.asarray(tg_t).nbytes)
    solver = get_solver("scipy")
    if algorithm == "optimization":
        if sparse is None:
            perm = tracer.call("assignment.solve", job, root, solver.solve, matrix).permutation
        else:
            perm = tracer.call("assignment.solve_sparse", job, root, solver.solve_sparse, sparse).permutation
    else:
        initial = None
        if sparse is not None:
            initial = tracer.call("assignment.solve_sparse", job, root, solver.solve_sparse, sparse).permutation
        result = tracer.call(
            "localsearch.parallel", job, root, local_search_parallel, matrix, initial,
            groups=groups, candidates=None if sparse is None else mask,
        )
        perm = result.permutation
        evaluated = result.meta.get("pairs_evaluated", 0)
        skipped = result.meta.get("pairs_skipped", 0)
        extra.update(
            sweeps=result.trace.sweeps, swaps=result.trace.total_swaps,
            pairs_evaluated=evaluated, pruned_share=skipped / max(1, evaluated + skipped),
            kernel_launches=result.meta["kernel_launches"],
        )
    tracer.call("tiles.assemble", job, root, grid.assemble, in_t[perm])
    if sparse is None:
        total = tracer.call("cost.eq2", job, root, total_error, matrix, perm)
    else:
        total = tracer.call("cost.eq2", job, root, sparse.exact_total, perm)
    tracer.close(root)
    tracer.spans[root]["counts"] = extra
    return root, perm, total


def layer_metrics(tracer: Tracer, jobs: list[tuple[int, str, str, float]]) -> dict:
    """Per-rung layer metrics from replayed jobs.

    ``jobs`` holds ``(root_span, rung, algorithm, untraced_generate_s)``.
    Each metric is the mean over the rung's jobs that ran the layer.
    """
    acc: dict[str, list[float]] = {}

    def add(name, value):
        acc.setdefault(name, []).append(float(value))

    overhead = []
    for root, rung, _, generate_s in jobs:
        kids = {c["name"]: c for c in tracer.children(root)}
        counts = tracer.spans[root]["counts"]
        dur = {name: c["end"] - c["start"] for name, c in kids.items()}
        for name, quantity in (("imaging.histogram", "histogram_s"), ("tiles.split", "split_s"),
                               ("tiles.assemble", "assemble_s"), ("cost.eq2", "eq2_s")):
            add(f"{name.split('.')[0]}.{quantity}.{rung}", dur[name])
        if "coloring.edge_groups" in kids:
            add(f"coloring.edge_groups_s.{rung}", dur["coloring.edge_groups"])
            add(f"coloring.edge_groups_mb.{rung}", kids["coloring.edge_groups"]["mb"])
        if "cost.dense" in kids:
            span = kids["cost.dense"]
            add(f"cost.dense_s.{rung}", dur["cost.dense"])
            add(f"cost.dense_pairs.{rung}", counts["pairs"])
            add(f"cost.dense_bytes.{rung}", counts["bytes"])
            add(f"cost.dense_minflt.{rung}", span["minflt"])
            add(f"cost.dense_sys_s.{rung}", span["sys_s"])
            add(f"cost.dense_mb.{rung}", span["mb"])
        if "cost.sparse" in kids:
            add(f"cost.sketch_s.{rung}", dur["cost.sketch"])
            add(f"cost.sparse_s.{rung}", dur["cost.sparse"])
            add(f"cost.sparse_pair_share.{rung}", counts["pair_share"])
            add(f"cost.to_dense_s.{rung}", dur["cost.to_dense"])
            add(f"cost.to_dense_mb.{rung}", kids["cost.to_dense"]["mb"])
        for name, quantity in (("assignment.solve", "solve_s"), ("assignment.solve_sparse", "solve_sparse_s")):
            if name in kids:
                add(f"assignment.{quantity}.{rung}", dur[name])
                add(f"assignment.solve_mb.{rung}", kids[name]["mb"])
        if "localsearch.parallel" in kids:
            add(f"localsearch.parallel_s.{rung}", dur["localsearch.parallel"])
            for key in ("sweeps", "swaps", "pairs_evaluated", "pruned_share", "kernel_launches"):
                add(f"localsearch.{key}.{rung}", counts[key])
        # generate() reuses cached edge groups; the replay rebuilds them.
        replay_layers = sum(d for name, d in dur.items() if name != "coloring.edge_groups")
        add(f"mosaic.self_s.{rung}", generate_s - replay_layers)
        replay_wall = tracer.spans[root]["end"] - tracer.spans[root]["start"]
        overhead.append(replay_wall - dur.get("coloring.edge_groups", 0.0) - generate_s)
    out = {name: sum(v) / len(v) for name, v in acc.items()}
    out["trace.overhead_s"] = sum(overhead) / len(overhead)
    return out
