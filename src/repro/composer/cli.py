"""``compose`` — the composition tool's command-line front-end.

Usage mirrors the paper's section V-A workflow::

    compose --generateCompFiles=spmv.h        # utility mode (skeletons)
    compose main.xml                          # build the application
    compose main.xml --disableImpls=spmv_cpu  # user-guided narrowing
    compose main.xml --static-dispatch        # static composition
    compose --describe-machine c2050          # inspect a platform preset
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.components.repository import Repository
from repro.components.xml_io import load_descriptor
from repro.components.main_desc import MainDescriptor
from repro.composer.builder import Composer
from repro.composer.recipe import Recipe
from repro.composer.utility import generate_component_files
from repro.errors import PeppherError
from repro.hw.presets import PRESETS, machine
from repro.hw.zoo import ZOO_PRESETS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compose",
        description="PEPPHER composition tool (reproduction)",
    )
    parser.add_argument(
        "main",
        nargs="?",
        help="path to the application's main XML descriptor",
    )
    parser.add_argument(
        "--generateCompFiles",
        metavar="HEADER",
        help="utility mode: generate component skeleton files from a "
        "C/C++ header file",
    )
    parser.add_argument(
        "--repo",
        default=".",
        help="component repository root to scan (default: current directory)",
    )
    parser.add_argument(
        "--out",
        default="composed",
        help="output directory for generated code (default: ./composed)",
    )
    parser.add_argument(
        "--disableImpls",
        default="",
        metavar="NAMES",
        help="comma-separated implementation variants to disable "
        "(user-guided static composition)",
    )
    parser.add_argument(
        "--enableOnly",
        default="",
        metavar="NAMES",
        help="keep only these implementation variants",
    )
    parser.add_argument(
        "--scheduler",
        default=None,
        help="runtime scheduling policy override (eager/random/ws/dm/dmda)",
    )
    parser.add_argument(
        "--platform",
        default=None,
        choices=sorted(PRESETS),
        help="target machine preset override",
    )
    parser.add_argument(
        "--static-dispatch",
        action="store_true",
        help="build static dispatch tables from prediction metadata and "
        "narrow candidates to the scenario winners",
    )
    parser.add_argument(
        "--static-dispatch-codegen",
        action="store_true",
        help="with --static-dispatch: embed the compacted dispatch "
        "function in the generated stubs (fully static composition)",
    )
    parser.add_argument(
        "--no-history-models",
        action="store_true",
        help="disable performance-aware dynamic selection (useHistoryModels)",
    )
    parser.add_argument(
        "--describe-machine",
        metavar="PRESET",
        choices=sorted(PRESETS) + sorted(ZOO_PRESETS),
        help="print a platform or device-zoo preset description and exit",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_repo",
        help="list the repository's interfaces, implementations and "
        "main descriptors, then exit",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true", help="print the composed IR"
    )
    return parser


def _split(names: str) -> tuple[str, ...]:
    return tuple(n.strip() for n in names.split(",") if n.strip())


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.describe_machine:
            print(machine(args.describe_machine).summary())
            return 0

        if args.list_repo:
            repo = Repository.scan(args.repo, with_standard_platforms=True)
            for iface in repo.interface_names():
                impls = repo.implementations_of(iface)
                desc = repo.interface(iface)
                generic = (
                    f" <generic: {', '.join(desc.type_params)}>"
                    if desc.is_generic
                    else ""
                )
                print(f"{iface}{generic}")
                for impl in impls:
                    print(f"  {impl.name}  [{impl.platform}]")
            mains = repo.main_names()
            if mains:
                print("main descriptors: " + ", ".join(mains))
            problems = repo.validate()
            if problems:
                print("problems:")
                for p in problems:
                    print(f"  {p}")
                return 1
            return 0

        if args.generateCompFiles:
            created = generate_component_files(
                args.generateCompFiles, args.out
            )
            print(f"generated {len(created)} skeleton files under {args.out}:")
            for path in created:
                print(f"  {path}")
            return 0

        if not args.main:
            parser.error("either a main descriptor or --generateCompFiles is required")

        main_path = Path(args.main)
        desc = load_descriptor(main_path)
        if not isinstance(desc, MainDescriptor):
            print(f"error: {main_path} is not a main-module descriptor", file=sys.stderr)
            return 2
        repo = Repository.scan(args.repo, with_standard_platforms=True)
        recipe = Recipe(
            disable_impls=_split(args.disableImpls),
            enable_only=_split(args.enableOnly),
            scheduler=args.scheduler,
            use_history_models=not args.no_history_models,
            static_dispatch=args.static_dispatch or args.static_dispatch_codegen,
            static_dispatch_codegen=args.static_dispatch_codegen,
            platform=args.platform,
        )
        composer = Composer(repo, recipe)
        tree = composer.build_ir(desc)
        composer.process(tree)
        if args.verbose:
            print(tree.describe())
        app = composer.generate(tree, args.out)
        print(
            f"composed application {app.name!r}: "
            f"{len(app.artefact_files())} artefacts in {app.out_dir}"
        )
        return 0
    except PeppherError as exc:
        print(f"compose: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - direct execution
    sys.exit(main())
