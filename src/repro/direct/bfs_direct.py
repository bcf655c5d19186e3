"""BFS written directly against the runtime system (Table I "Direct")."""

from __future__ import annotations

import numpy as np

from repro.apps.bfs import bfs_cpu, bfs_cuda, bfs_openmp, cost_cpu, cost_cuda, cost_openmp
from repro.hw import presets
from repro.runtime import Arch, Codelet, ImplVariant, Runtime


def _bfs_cpu_task(ctx, *args):
    nodes, edges, costs = args[0], args[1], args[2]
    n_nodes, n_edges, source = args[3], args[4], args[5]
    bfs_cpu(nodes, edges, n_nodes, n_edges, source, costs)


def _bfs_openmp_task(ctx, *args):
    nodes, edges, costs = args[0], args[1], args[2]
    n_nodes, n_edges, source = args[3], args[4], args[5]
    bfs_openmp(nodes, edges, n_nodes, n_edges, source, costs)


def _bfs_cuda_task(ctx, *args):
    nodes, edges, costs = args[0], args[1], args[2]
    n_nodes, n_edges, source = args[3], args[4], args[5]
    bfs_cuda(nodes, edges, n_nodes, n_edges, source, costs)


def build_codelet() -> Codelet:
    codelet = Codelet("bfs")
    codelet.add_variant(
        ImplVariant(name="bfs_cpu", arch=Arch.CPU, fn=_bfs_cpu_task, cost_model=cost_cpu)
    )
    codelet.add_variant(
        ImplVariant(
            name="bfs_openmp",
            arch=Arch.OPENMP,
            fn=_bfs_openmp_task,
            cost_model=cost_openmp,
        )
    )
    codelet.add_variant(
        ImplVariant(
            name="bfs_cuda", arch=Arch.CUDA, fn=_bfs_cuda_task, cost_model=cost_cuda
        )
    )
    return codelet


def bfs_call(
    runtime: Runtime,
    codelet: Codelet,
    nodes: np.ndarray,
    edges: np.ndarray,
    costs: np.ndarray,
    source: int,
    sync: bool = True,
):
    """One hand-written bfs invocation: register, pack, submit, flush."""
    n_nodes = len(nodes) - 1
    n_edges = len(edges)
    h_nodes = runtime.register(nodes, "nodes")
    h_edges = runtime.register(edges, "edges")
    h_costs = runtime.register(costs, "costs")
    ctx = {"n_nodes": n_nodes, "n_edges": n_edges}
    task = runtime.submit(
        codelet,
        [(h_nodes, "r"), (h_edges, "r"), (h_costs, "w")],
        ctx=ctx,
        scalar_args=(n_nodes, n_edges, source),
        sync=sync,
        name="bfs",
    )
    if sync:
        runtime.unregister(h_nodes)
        runtime.unregister(h_edges)
        runtime.unregister(h_costs)
    return task


def main(platform: str = "c2050", n_nodes: int = 20_000, seed: int = 0) -> np.ndarray:
    """Complete hand-written application main program."""
    from repro.workloads.graphs import random_graph

    machine = presets.machine(platform)
    runtime = Runtime(machine, scheduler="dmda", seed=seed)
    codelet = build_codelet()
    nodes, edges = random_graph(n_nodes, 8, seed=seed)
    costs = np.zeros(n_nodes, dtype=np.int32)
    bfs_call(runtime, codelet, nodes, edges, costs, 0)
    runtime.shutdown()
    return costs
