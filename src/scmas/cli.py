"""Command-line interface: generate, solve, experiment, bench, qbf.

Every subcommand is deterministic given its flags; seeds are always explicit
flags. Exit codes: 0 success, 1 data/IO failure, 2 invalid flags. The
environment variable SCMAS_EXACT_CAP overrides the action cap of the exact,
classical and satisficing solvers.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments, generators, qbf, solvers
from .errors import ParseError, ScmasError, UnsupportedAlternation
from .game import game_from_dict, game_to_dict, validate


def _checked(kind, ok, requirement: str):
    """An argparse type: kind(text), rejected unless ok(value)."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "must be an integer >= 1")
_positive_float = _checked(float, lambda v: v > 0, "must be > 0")


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_game(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        game = game_from_dict(json.load(fh))
    violations = validate(game)
    if violations:
        raise ScmasError("invalid game: " + "; ".join(violations))
    return game


def cmd_generate(args) -> int:
    if args.kind == "random":
        params = generators.GeneratorParams(
            args.nxl, args.nxf, args.topology,
            generators.info_from_token(args.info),
            args.payoff_dist, args.quality, args.seed,
        )
        game = generators.random_instance(params)
    elif args.kind == "synthetic":
        game = generators.synthetic(args.name, args.seed)
    else:
        game = generators.procurement(args.type, args.seed)
    _write_out(json.dumps(game_to_dict(game), indent=2) + "\n", args.out)
    return 0


def cmd_solve(args) -> int:
    game = _load_game(args.game)
    if args.method == "exact":
        profile = solvers.exact_scne(game)
    elif args.method == "classical":
        profile = solvers.classical_stackelberg(game)
    elif args.method == "approx":
        profile = solvers.approx_scne(game, args.epsilon, args.seed)
    else:
        profile = solvers.satisficing_scne(game, args.eps_sat)
    _write_out(json.dumps(solvers.profile_to_dict(profile), indent=2) + "\n",
               args.out)
    return 0


def cmd_experiment(args) -> int:
    if args.suite == "monte_carlo":
        report = experiments.run_monte_carlo(
            args.n, seed=args.seed, jobs=args.jobs, approx_epsilon=args.epsilon
        )
    elif args.suite == "synthetic":
        seed_list = list(range(args.seed, args.seed + args.seeds))
        report = experiments.run_synthetic_suite(
            seed_list, jobs=args.jobs, approx_epsilon=args.epsilon
        )
    else:
        report = experiments.run_procurement(args.n, args.seed)
    experiments.write_report(report, csv_path=args.csv, json_path=args.json)
    if not args.csv and not args.json:
        sys.stdout.write(experiments.report_to_json(report))
    return 0


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    table = experiments.bench_scaling(
        sizes, args.epsilon, args.seed, n_instances=args.n
    )
    _write_out(json.dumps(experiments._round9(table), indent=2, sort_keys=True) + "\n",
               args.json)
    return 0


def cmd_qbf(args) -> int:
    if args.verify:
        with open(args.verify, "r", encoding="utf-8") as fh:
            formula = qbf.parse_qdimacs(fh.read())
        ok = qbf.verify_reduction(formula)
        print("EQUIVALENT" if ok else "MISMATCH")
        return 0 if ok else 1
    if args.exhaustive != 1:
        raise ScmasError("only the one-variable-per-block family is enumerable")
    formulas = qbf.exhaustive_family()
    bad = [f for f in formulas if not qbf.verify_reduction(f)]
    print(f"verified {len(formulas) - len(bad)}/{len(formulas)} formulas")
    return 0 if not bad else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="scmas",
        description="Sequential causal Stackelberg games: generators, "
                    "equilibrium solvers, experiments, and a QBF encoding.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a game as JSON")
    gsub = g.add_subparsers(dest="kind", required=True)
    gr = gsub.add_parser("random", help="seeded random instance")
    gr.add_argument("--nxl", type=int, default=2, help="leader action count (2-5)")
    gr.add_argument("--nxf", type=int, default=2, help="follower action count (2-5)")
    gr.add_argument("--topology", choices=generators.TOPOLOGIES, default="independent")
    gr.add_argument("--info", default="perfect",
                    help="perfect | mechanism | imperfect:SIGMA (default perfect)")
    gr.add_argument("--payoff-dist", dest="payoff_dist",
                    choices=generators.PAYOFF_DISTS, default="uniform")
    gr.add_argument("--quality", type=float, default=0.8,
                    help="instinct quality in [0.2, 0.8] (default 0.8)")
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--out", default=None, help="output path (default stdout)")
    gs = gsub.add_parser("synthetic", help="hand-crafted game")
    gs.add_argument("name", choices=generators.SYNTHETIC_NAMES)
    gs.add_argument("--seed", type=int, default=0)
    gs.add_argument("--out", default=None)
    gp = gsub.add_parser("procurement", help="procurement case game")
    gp.add_argument("--type", choices=generators.PROCUREMENT_TYPES, default="honest")
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--out", default=None)

    s = sub.add_parser("solve", help="solve a game file")
    s.add_argument("game", help="path to a game JSON file")
    s.add_argument("--method", choices=("exact", "classical", "approx", "satisficing"),
                   default="exact")
    s.add_argument("--epsilon", type=_positive_float, default=0.05,
                   help="approximation precision (approx method, default 0.05)")
    s.add_argument("--seed", type=int, default=0, help="sampling seed (approx method)")
    s.add_argument("--eps-sat", dest="eps_sat", default=0.0,
                   type=_checked(float, lambda v: v >= 0, "must be >= 0"),
                   help="satisficing tolerance (satisficing method, default 0)")
    s.add_argument("--out", default=None)

    e = sub.add_parser("experiment", help="run a report suite")
    e.add_argument("--suite", choices=("monte_carlo", "synthetic", "procurement"),
                   required=True)
    e.add_argument("--n", type=_positive_int, default=50,
                   help="instance count (monte_carlo) or even contract count (procurement)")
    e.add_argument("--seed", type=int, default=0, help="master seed")
    e.add_argument("--seeds", type=_positive_int, default=10,
                   help="number of consecutive seeds (synthetic suite, default 10)")
    e.add_argument("--epsilon", type=_positive_float, default=experiments.DEFAULT_APPROX_EPSILON,
                   help="approximation precision for the approx column")
    e.add_argument("--csv", default=None, help="CSV output path")
    e.add_argument("--json", default=None, help="JSON report output path")
    e.add_argument("--jobs", type=int, default=1, help="parallel workers")

    b = sub.add_parser("bench", help="scaling benchmark")
    b.add_argument("--sizes", default="2,3,4,5,10,20",
                   type=_checked(str, lambda text: all(2 <= int(s) <= 20
                                                       for s in text.split(",") if s),
                                 "sizes must lie in [2, 20]"),
                   help="comma-separated action-space sizes in [2, 20]")
    b.add_argument("--epsilon", type=_positive_float, default=0.05)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--n", type=_positive_int, default=30, help="instances per size")
    b.add_argument("--json", default=None, help="output path (default stdout)")

    q = sub.add_parser("qbf", help="verify the formula-to-game encoding")
    mx = q.add_mutually_exclusive_group(required=True)
    mx.add_argument("--verify", default=None, help="QDIMACS file to check")
    mx.add_argument("--exhaustive", type=int, default=None,
                    help="verify the whole 1-existential/1-universal family")

    return p


_HANDLERS = {
    "generate": cmd_generate,
    "solve": cmd_solve,
    "experiment": cmd_experiment,
    "bench": cmd_bench,
    "qbf": cmd_qbf,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiment" and args.suite == "procurement" and args.n % 2:
        parser.error(f"--n must be even for the procurement suite, got {args.n}")
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, UnsupportedAlternation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScmasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
