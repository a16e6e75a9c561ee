"""Command-line harness: run sweeps, list presets, validate spec files.

Exit codes: 0 success, 1 spec error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiments import (
    ExperimentSpec,
    SpecError,
    emit_csv,
    run_experiment,
    scenario_default,
    write_plot_script,
)

EXIT_OK = 0
EXIT_SPEC_ERROR = 1
EXIT_IO_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsuplink",
        description="Monte-Carlo sweeps for IRS-assisted uplink power minimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep from a spec file or preset")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="path to a JSON experiment spec")
    src.add_argument("--preset", help="name of a built-in preset (see `presets`)")
    run.add_argument("--seed", type=int, help="override the spec seed")
    run.add_argument("--out", help="override the output CSV path")
    run.add_argument("--solvers", help="comma-separated solver list override")
    run.add_argument("--trials", type=int, help="override the trial count")
    run.add_argument("--emit-plot-script", action="store_true",
                     help="write a matplotlib script next to the CSV")

    sub.add_parser("presets", help="list built-in presets")

    val = sub.add_parser("validate", help="check a spec file")
    val.add_argument("--spec", required=True, help="path to a JSON experiment spec")
    return parser


def _load_spec(args) -> ExperimentSpec:
    if args.preset is not None:
        presets = scenario_default()
        if args.preset not in presets:
            raise SpecError(f"unknown preset {args.preset!r}; available: {', '.join(sorted(presets))}")
        spec = presets[args.preset]
    else:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = ExperimentSpec.from_json(fh.read())
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.solvers is not None:
        overrides["solvers"] = tuple(s.strip() for s in args.solvers.split(",") if s.strip())
    if args.out is not None:
        overrides["output"] = args.out
    return replace(spec, **overrides)


def _cmd_run(args) -> int:
    spec = _load_spec(args)  # run_experiment validates it before any trial
    out_path = spec.output or f"{spec.name}.csv"
    table = run_experiment(spec)
    emit_csv(table, out_path)
    feasible = sum(1 for r in table.rows if r.feasible)
    print(f"{spec.name}: {len(table.rows)} trials "
          f"({feasible} feasible, {len(table.rows) - feasible} infeasible) -> {out_path}")
    if args.emit_plot_script:
        script = out_path + ".plot.py"
        write_plot_script(out_path, spec.sweep_variable, script)
        print(f"plot script -> {script}")
    return EXIT_OK


def _cmd_presets() -> int:
    for name, spec in scenario_default().items():
        base_bits = ", ".join(f"{k}={v}" for k, v in sorted(spec.base.items()))
        extras = f" [{base_bits}]" if base_bits else ""
        print(f"{name}: sweep {spec.sweep_variable} over {list(spec.grid)}, "
              f"{spec.trials} trials, solvers {list(spec.solvers)}{extras}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = ExperimentSpec.from_json(fh.read())
    spec.validate()
    print(f"{args.spec}: ok ({spec.name}, sweep {spec.sweep_variable}, "
          f"{len(spec.grid)} points x {spec.trials} trials)")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "presets":
            return _cmd_presets()
        return _cmd_validate(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
