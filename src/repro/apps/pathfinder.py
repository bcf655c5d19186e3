"""PathFinder: grid dynamic programming (Rodinia benchmark).

Finds the minimum-cost path from the top row to the bottom row of a
weight grid, moving straight or diagonally.  Row-by-row DP: each row
depends on the previous one, but within a row everything is independent
— wide regular parallelism with a short serial chain, memory-bound.
"""

from __future__ import annotations

import numpy as np

from repro.apps._ifhelp import interface_from_decl
from repro.apps.costkit import gpu_time, ncores_of, openmp_time, serial_time
from repro.components.context import ContextParamDecl
from repro.components.implementation import ImplementationDescriptor
from repro.hw.devices import AccessPattern

DECLARATION = (
    "void pathfinder(const int* wall, int rows, int cols, int* result);"
)

INTERFACE = interface_from_decl(
    DECLARATION,
    write_params=("result",),
    context=(
        ContextParamDecl("rows", "int", minimum=2, maximum=4096),
        ContextParamDecl("cols", "int", minimum=16, maximum=1 << 20),
    ),
)


#: stands in for the missing neighbour beyond either edge of a row
_EDGE = np.iinfo(np.int64).max // 2


def _pathfinder(wall, rows, cols, result):
    w = wall.reshape(rows, cols)
    # dist lives in buf[1:-1]; the sentinel ends make the left and right
    # neighbours plain views, so a row is three ufuncs and no allocation
    buf = np.full(cols + 2, _EDGE, dtype=np.int64)
    dist, left, right = buf[1:-1], buf[:-2], buf[2:]
    dist[:] = w[0]
    best = np.empty(cols, dtype=np.int64)
    for r in range(1, rows):
        np.minimum(left, right, out=best)
        np.minimum(best, dist, out=best)
        np.add(best, w[r], out=dist)
    result[:] = dist.astype(result.dtype)


def pathfinder_cpu(wall, rows, cols, result):
    """Serial row-sweep DP."""
    _pathfinder(wall, rows, cols, result)


def pathfinder_openmp(wall, rows, cols, result):
    """OpenMP column-parallel row sweep (identical results)."""
    _pathfinder(wall, rows, cols, result)


def pathfinder_cuda(wall, rows, cols, result):
    """Rodinia's ghost-zone CUDA kernel (identical results)."""
    _pathfinder(wall, rows, cols, result)


def _flops(ctx) -> float:
    return 4.0 * float(ctx["rows"]) * float(ctx["cols"])


def _bytes(ctx) -> float:
    return 12.0 * float(ctx["rows"]) * float(ctx["cols"])


def cost_cpu(ctx, device) -> float:
    return serial_time(device, _flops(ctx), _bytes(ctx), AccessPattern.REGULAR)


def cost_openmp(ctx, device) -> float:
    return openmp_time(
        device, ncores_of(ctx), _flops(ctx), _bytes(ctx), AccessPattern.REGULAR
    )


def cost_cuda(ctx, device) -> float:
    # ghost-zone blocking: one launch per pyramid of rows
    base = gpu_time(
        device, _flops(ctx), _bytes(ctx), AccessPattern.REGULAR, library_factor=0.9
    )
    launches = max(float(ctx["rows"]) / 8.0, 1.0)
    return base + launches * device.launch_overhead_s


IMPLEMENTATIONS = [
    ImplementationDescriptor(
        name="pathfinder_cpu",
        provides="pathfinder",
        platform="cpu_serial",
        sources=("pathfinder_cpu.cpp",),
        kernel_ref="repro.apps.pathfinder:pathfinder_cpu",
        cost_ref="repro.apps.pathfinder:cost_cpu",
        prediction_ref="repro.apps.pathfinder:cost_cpu",
    ),
    ImplementationDescriptor(
        name="pathfinder_openmp",
        provides="pathfinder",
        platform="openmp",
        sources=("pathfinder_openmp.cpp",),
        kernel_ref="repro.apps.pathfinder:pathfinder_openmp",
        cost_ref="repro.apps.pathfinder:cost_openmp",
        prediction_ref="repro.apps.pathfinder:cost_openmp",
    ),
    ImplementationDescriptor(
        name="pathfinder_cuda",
        provides="pathfinder",
        platform="cuda",
        sources=("pathfinder_cuda.cu",),
        kernel_ref="repro.apps.pathfinder:pathfinder_cuda",
        cost_ref="repro.apps.pathfinder:cost_cuda",
        prediction_ref="repro.apps.pathfinder:cost_cuda",
    ),
]


def register(repo) -> None:
    repo.add_interface(INTERFACE)
    for impl in IMPLEMENTATIONS:
        repo.add_implementation(impl)


def reference(wall, rows, cols) -> np.ndarray:
    """Row DP over Python lists (independent oracle for the NumPy sweep)."""
    w = wall[: rows * cols].tolist()
    dist = w[:cols]
    for r in range(1, rows):
        row = w[r * cols:(r + 1) * cols]
        dist = [row[c] + min(dist[max(c - 1, 0):c + 2]) for c in range(cols)]
    return np.array(dist, dtype=np.int32)
