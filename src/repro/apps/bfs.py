"""BFS: breadth-first search (Rodinia benchmark).

Level-synchronous BFS over a CSR graph, computing hop distances from a
source node.  Graph traversal is the canonical *irregular* workload:
gather/scatter on edge lists, data-dependent frontier sizes, one kernel
launch per level on the GPU.  This is the app class where the cache-less
C1060 collapses and the CPU stays competitive (Figure 6).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.apps._ifhelp import interface_from_decl
from repro.apps.costkit import gpu_time, ncores_of, openmp_time, serial_time
from repro.components.context import ContextParamDecl
from repro.components.implementation import ImplementationDescriptor
from repro.hw.devices import AccessPattern

DECLARATION = (
    "void bfs(const int* nodes, const int* edges, int n_nodes, int n_edges, "
    "int source, int* costs);"
)

#: expected BFS depth of the random graphs we generate (cost models need
#: a level estimate; random graphs have logarithmic diameter)
TYPICAL_LEVELS = 10

INTERFACE = interface_from_decl(
    DECLARATION,
    write_params=("costs",),
    context=(
        ContextParamDecl("n_nodes", "int", minimum=64, maximum=1 << 22),
        ContextParamDecl("n_edges", "int", minimum=64, maximum=1 << 24),
    ),
)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _bfs(nodes, edges, n_nodes, source, costs):
    """Shared level-synchronous traversal (frontier expansion)."""
    costs[:] = -1
    costs[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    starts = nodes[:-1]
    degrees = np.diff(nodes)
    while len(frontier):
        level += 1
        # gather all outgoing edges of the frontier with one repeat: the
        # j-th gathered edge sits at its node's start plus j minus the
        # number of frontier edges before that node
        deg = degrees[frontier]
        ends = np.cumsum(deg)
        total = int(ends[-1])
        if total == 0:
            break
        gather = np.repeat(starts[frontier] - (ends - deg), deg)
        gather += np.arange(total)
        neighbours = edges[gather]
        fresh = neighbours[costs[neighbours] < 0]
        if len(fresh) == 0:
            break
        costs[fresh] = level
        # next frontier: the fresh nodes, sorted, each kept once
        fresh.sort()
        first = np.empty(len(fresh), dtype=bool)
        first[0] = True
        np.not_equal(fresh[1:], fresh[:-1], out=first[1:])
        frontier = fresh[first]


def bfs_cpu(nodes, edges, n_nodes, n_edges, source, costs):
    """Serial queue-based BFS."""
    _bfs(nodes, edges, n_nodes, source, costs)


def bfs_openmp(nodes, edges, n_nodes, n_edges, source, costs):
    """OpenMP frontier-parallel BFS (identical results)."""
    _bfs(nodes, edges, n_nodes, source, costs)


def bfs_cuda(nodes, edges, n_nodes, n_edges, source, costs):
    """Rodinia-style CUDA BFS, one kernel launch per level."""
    _bfs(nodes, edges, n_nodes, source, costs)


# ---------------------------------------------------------------------------
# cost models
# ---------------------------------------------------------------------------

def _flops(ctx) -> float:
    return 2.0 * float(ctx["n_edges"])


def _bytes(ctx) -> float:
    return 12.0 * float(ctx["n_edges"]) + 16.0 * float(ctx["n_nodes"])


def cost_cpu(ctx, device) -> float:
    return serial_time(device, _flops(ctx), _bytes(ctx), AccessPattern.IRREGULAR)


def cost_openmp(ctx, device) -> float:
    return openmp_time(
        device, ncores_of(ctx), _flops(ctx), _bytes(ctx), AccessPattern.IRREGULAR
    )


def cost_cuda(ctx, device) -> float:
    # naive Rodinia kernel (not library grade) + one launch per level
    base = gpu_time(
        device, _flops(ctx), _bytes(ctx), AccessPattern.IRREGULAR,
        library_factor=1.25,
    )
    return base + TYPICAL_LEVELS * device.launch_overhead_s


IMPLEMENTATIONS = [
    ImplementationDescriptor(
        name="bfs_cpu",
        provides="bfs",
        platform="cpu_serial",
        sources=("bfs_cpu.cpp",),
        kernel_ref="repro.apps.bfs:bfs_cpu",
        cost_ref="repro.apps.bfs:cost_cpu",
        prediction_ref="repro.apps.bfs:cost_cpu",
    ),
    ImplementationDescriptor(
        name="bfs_openmp",
        provides="bfs",
        platform="openmp",
        sources=("bfs_openmp.cpp",),
        kernel_ref="repro.apps.bfs:bfs_openmp",
        cost_ref="repro.apps.bfs:cost_openmp",
        prediction_ref="repro.apps.bfs:cost_openmp",
    ),
    ImplementationDescriptor(
        name="bfs_cuda",
        provides="bfs",
        platform="cuda",
        sources=("bfs_cuda.cu",),
        kernel_ref="repro.apps.bfs:bfs_cuda",
        cost_ref="repro.apps.bfs:cost_cuda",
        prediction_ref="repro.apps.bfs:cost_cuda",
    ),
]


def register(repo) -> None:
    repo.add_interface(INTERFACE)
    for impl in IMPLEMENTATIONS:
        repo.add_implementation(impl)


def reference(nodes, edges, n_nodes, source) -> np.ndarray:
    """Queue-based BFS over Python lists (independent oracle for ``_bfs``)."""
    offsets, targets = nodes.tolist(), edges.tolist()
    costs = [-1] * n_nodes
    costs[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in targets[offsets[u]:offsets[u + 1]]:
            if costs[v] < 0:
                costs[v] = costs[u] + 1
                queue.append(v)
    return np.array(costs, dtype=np.int32)
