"""Command-line front end: analyze, generate, montecarlo, oracle, export-svg."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .complexes import build_complex
from .ensembles import montecarlo_flat_cell, montecarlo_plmorse, summary_to_json
from .homology import grid_oracle
from .morse import UnsupportedNetworkError, analyze, report_to_json
from .network import (
    Network,
    build_coarse_bound_network,
    build_fan_network,
    fraction_to_json,
    load_network,
    network_to_json,
    random_network,
)
from .svg import render_svg


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"cannot write {out}: {exc.strerror or exc}")


def _load(path: str) -> Network:
    try:
        return load_network(path)
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc.strerror or exc}")
    except ValueError as exc:  # NetworkFormatError, JSONDecodeError, an over-long int
        raise SystemExit(f"malformed network file {path}: {exc}")


def _parse_arch(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise SystemExit(f"architecture must be comma-separated integers, got {text!r}")


def _cmd_analyze(args) -> int:
    net = _load(args.network)
    try:
        report = analyze(net)
    except UnsupportedNetworkError as exc:
        print(f"unsupported network: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report_to_json(report), indent=1) + "\n"
    _write(text, args.report)
    if args.report:
        print(f"report written to {args.report}")
    return 0


def _cmd_generate(args) -> int:
    picked = [x for x in (args.fan, args.coarse_bound, args.random) if x is not None]
    if len(picked) != 1:
        raise SystemExit("pick exactly one of --fan, --coarse-bound, --random")
    try:
        if args.fan is not None:
            net = build_fan_network(args.fan)
        elif args.coarse_bound is not None:
            net = build_coarse_bound_network(args.coarse_bound)
        else:
            net = random_network(_parse_arch(args.random), args.seed, scheme=args.scheme)
    except ValueError as exc:
        raise SystemExit(str(exc))
    _write(json.dumps(network_to_json(net), indent=1) + "\n", args.out)
    return 0


def _cmd_montecarlo(args) -> int:
    if (args.plmorse is None) == (args.flat is None):
        raise SystemExit("pick exactly one of --plmorse, --flat")
    try:
        if args.plmorse is not None:
            n, n1 = args.plmorse
            summary = montecarlo_plmorse(n, n1, args.trials, args.seed, scheme=args.scheme)
        else:
            summary = montecarlo_flat_cell(
                _parse_arch(args.flat), args.trials, args.seed, scheme=args.scheme
            )
    except ValueError as exc:
        raise SystemExit(str(exc))
    _write(json.dumps(summary_to_json(summary), indent=1) + "\n", args.out)
    return 0


def _fraction_arg(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(f"{what} must be a rational like 1/3 or 0.25, got {text!r}")


def _cmd_oracle(args) -> int:
    net = _load(args.network)
    thresholds = tuple(_fraction_arg(t, "--threshold") for t in args.threshold)
    c = thresholds[0] if len(thresholds) == 1 else thresholds
    try:
        result = grid_oracle(net, args.mode, c, _fraction_arg(args.resolution, "--resolution"),
                             _fraction_arg(args.box, "--box"))
    except ValueError as exc:
        raise SystemExit(str(exc))
    doc = {
        "mode": args.mode,
        "betti": list(result.betti),
        "margin": fraction_to_json(result.margin),
        "squares": result.squares,
    }
    _write(json.dumps(doc, indent=1) + "\n", args.out)
    return 0


def _cmd_export_svg(args) -> int:
    if args.width < 1:
        raise SystemExit(f"--width must be at least 1, got {args.width}")
    net = _load(args.network)
    if net.n0 != 2:
        print("export-svg needs a two-input network", file=sys.stderr)
        return 2
    _write(render_svg(build_complex(net), width=args.width), args.out)
    return 0


@cache  # built on first use: at import it would add about 1 ms to every start
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plmorse",
        description="Exact polyhedral-complex analysis of ReLU networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full complexity report of a network")
    p.add_argument("network", help="network JSON file")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("generate", help="write a network JSON")
    p.add_argument("--fan", type=int, help="fan network with 2n+2 hidden units")
    p.add_argument("--coarse-bound", type=int, dest="coarse_bound", help="m-line bound example")
    p.add_argument("--random", metavar="ARCH", help="random net, e.g. 2,3,1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scheme", choices=["gaussian", "uniform"], default="gaussian")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(run=_cmd_generate)

    p = sub.add_parser("montecarlo", help="run a Monte Carlo experiment")
    p.add_argument("--plmorse", nargs=2, type=int, metavar=("N", "N1"))
    p.add_argument("--flat", metavar="ARCH")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scheme", choices=["gaussian", "uniform"], default="gaussian")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(run=_cmd_montecarlo)

    p = sub.add_parser("oracle", help="grid Betti numbers for cross-checks")
    p.add_argument("network", help="network JSON file")
    p.add_argument("--mode", choices=["sublevel", "superlevel", "band"], default="sublevel")
    p.add_argument(
        "--threshold",
        action="append",
        required=True,
        help="level as a rational; repeat for band mode; write --threshold=-1/4 for negatives",
    )
    p.add_argument("--resolution", required=True)
    p.add_argument("--box", required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(run=_cmd_oracle)

    p = sub.add_parser("export-svg", help="SVG figure of a two-input complex")
    p.add_argument("network", help="network JSON file")
    p.add_argument("--width", type=int, default=480)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(run=_cmd_export_svg)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
