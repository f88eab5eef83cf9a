"""Command-line front end.

Subcommands: type, preceq, min-excluded, equations, member, contains,
gamma, selfcheck.  Exit codes: 0 = success or true verdict, 1 = false
verdict, 2 = usage or data error (any ValueError the library raises, and
input too deep for the recursive searches) or a stdout closed before the
output was written, 3 = cross-check disagreement, 4 = internal error (any
other exception, reported as one line with no traceback).
Output is deterministic byte-for-byte for fixed inputs and seed.
Only ``partitions`` and ``variety`` run on import; ``equations`` runs when
a subcommand first reads it, and ``selfcheck`` is imported by the one
subcommand that runs it.
"""

import argparse
import importlib.util
import json
import os
import sys

from .partitions import INF, GenComposition, GenPartition, min_excluded, preceq
from .variety import (
    FinitaryPoint,
    PointSetVariety,
    contains,
    gamma_at,
    theta_member,
    type_of,
    variety_from_json,
)


def _lazy(name: str):
    """Submodule ``name``, registered and bound on the package as by an
    import, run on its first attribute access; an imported one is reused."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# cli never calls poly or corr: they are registered because the benchmark
# tracer reads both from sys.modules after importing this module (it wraps
# nothing in selfcheck), and both go once it skips a module not loaded
equations, poly, corr = map(_lazy, ["equations", "poly", "corr"])


def _load_variety(path: str, lam: GenPartition) -> PointSetVariety:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            Z = variety_from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read variety file {path}: {exc}") from exc
    if Z.lam.shape() != lam:
        raise ValueError(
            f"variety file ambient {Z.lam.shape()} does not match partition {lam}"
        )
    return Z


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif text:
        print(text)


def cmd_type(args) -> int:
    x = FinitaryPoint.parse(args.point)
    result = str(type_of(x))
    _emit(args, {"type": result}, result)
    return 0


def cmd_preceq(args) -> int:
    mu = GenPartition.parse(args.mu)
    lam = GenPartition.parse(args.lam)
    verdict = preceq(mu, lam)
    _emit(args, {"preceq": verdict}, "true" if verdict else "false")
    return 0 if verdict else 1


def cmd_min_excluded(args) -> int:
    lam = GenPartition.parse(args.lam)
    result = min_excluded(lam)
    _emit(args, {"min_excluded": [str(a) for a in result]}, "\n".join(str(a) for a in result))
    return 0


def cmd_equations(args) -> int:
    lam = GenPartition.parse(args.lam)
    if not lam.is_infinite:
        raise ValueError("equations require a partition with an infinite part")
    if args.variety:
        Z = _load_variety(args.variety, lam)
        ideal = equations.i_lambda_z(lam, Z)
    else:
        ideal = equations.i_lambda(lam)
    if args.reduce:
        import random

        rng = random.Random(args.seed)
        battery = [equations.random_point(rng, max_width=4) for _ in range(40)]
        reduced = equations.reduce_generators(ideal, battery)
        # a dropped excluded alpha is implied iff a kept excluded alpha' has
        # preceq(alpha', inf ++ alpha[1:]): every type above alpha is above that
        kept = [b.shape for b in reduced.blocks if b.kind == "excluded"]
        needed = [alpha for alpha in (b.shape for b in ideal.blocks if b.kind == "excluded")
                  if alpha not in kept
                  and not any(preceq(a, GenPartition((INF,) + alpha.parts[1:])) for a in kept)]
        if needed:
            names = "; ".join(f"excluded {alpha}" for alpha in needed)
            print(f"note: --reduce dropped generators that no kept excluded generator implies "
                  f"({names}), so the kept excluded generators cut out more than the type "
                  f"locus of {lam}", file=sys.stderr)
        ideal = reduced
    if args.json:
        gens = ideal.generators
        print(json.dumps({
            "lambda": str(lam),
            "generators": [str(g) for g in gens],
            "provenance": [g.provenance() for g in gens],
        }, sort_keys=True))
    else:
        print(ideal.render())
    return 0


def cmd_member(args) -> int:
    lam = GenPartition.parse(args.lam)
    if not lam.is_infinite:
        raise ValueError("membership requires a partition with an infinite part")
    x = FinitaryPoint.parse(args.point)
    Z = _load_variety(args.variety, lam) if args.variety else None

    def direct() -> bool:
        if Z is None:
            return preceq(type_of(x), lam)
        return theta_member(Z.lam, Z, x)

    def by_equations() -> bool:
        ideal = equations.i_lambda(lam) if Z is None else equations.i_lambda_z(lam, Z)
        return equations.member_by_equations(ideal, x)

    if args.method == "direct":
        verdict = direct()
    elif args.method == "equations":
        verdict = by_equations()
        if verdict and Z is not None and not equations.in_exact_domain(lam):
            print("note: lambda has finite weight above 1 and more than two parts, outside "
                  "the equation route's exact domain: true may be an over-acceptance",
                  file=sys.stderr)
    else:
        a, b = direct(), by_equations()
        if a != b:
            print(
                f"cross-check disagreement: direct={a} equations={b}",
                file=sys.stderr,
            )
            return 3
        verdict = a
    _emit(args, {"member": verdict}, "true" if verdict else "false")
    return 0 if verdict else 1


def cmd_contains(args) -> int:
    mu = GenPartition.parse(args.mu)
    lam = GenPartition.parse(args.lam)
    Z1 = _load_variety(args.file1, mu)
    Z2 = _load_variety(args.file2, lam)
    verdict = contains(Z1.lam, Z1, Z2.lam, Z2)
    _emit(args, {"contains": verdict}, "true" if verdict else "false")
    return 0 if verdict else 1


def cmd_gamma(args) -> int:
    lam = GenPartition.parse(args.lam)
    mu = GenPartition.parse(args.mu)
    Z = _load_variety(args.file, lam)
    result = gamma_at(Z.lam, Z, GenComposition.from_partition(mu))
    lines = [",".join(str(c) for c in p) for p in result.points]
    payload = {"points": [[str(c) for c in p] for p in result.points]}
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_selfcheck(args) -> int:
    from . import selfcheck

    summary = selfcheck.run_all(args.seed)
    _emit(args, summary, selfcheck.report(summary))
    return 0 if summary["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symvar",
        description="Exact computations with symmetric-group-stable subvarieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    point_help = "point literal, e.g. 0^inf,1^3, or -- -1^inf,2^1 when it starts with -"
    p = add("type", cmd_type, "print the type of a finitary point")
    p.add_argument("point", help=point_help)

    p = add("preceq", cmd_preceq, "decide the combining order between partitions")
    p.add_argument("mu")
    p.add_argument("lam", metavar="lambda")

    p = add("min-excluded", cmd_min_excluded, "minimal finite partitions not below lambda")
    p.add_argument("lam", metavar="lambda")

    p = add("equations", cmd_equations, "emit ideal generators")
    p.add_argument("lam", metavar="lambda")
    p.add_argument("--variety", help="JSON variety file for slice equations")
    p.add_argument("--reduce", action="store_true", help="heuristic redundancy pruning")
    p.add_argument("--seed", type=int, default=1729)

    p = add("member", cmd_member, "decide membership of a finitary point")
    p.add_argument("lam", metavar="lambda")
    p.add_argument("point", help=point_help)
    p.add_argument("--variety", help="JSON variety file")
    p.add_argument("--method", choices=["direct", "equations", "both"], default="direct")

    p = add("contains", cmd_contains, "decide containment of classified sets")
    p.add_argument("mu")
    p.add_argument("file1")
    p.add_argument("lam", metavar="lambda")
    p.add_argument("file2")

    p = add("gamma", cmd_gamma, "print a slice of the closure system")
    p.add_argument("lam", metavar="lambda")
    p.add_argument("file")
    p.add_argument("mu")

    p = add("selfcheck", cmd_selfcheck, "run the invariant battery")
    p.add_argument("--seed", type=int, default=1729)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull,
        # so the flush at interpreter exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except ValueError as exc:  # the library's report of bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # uncaught, it would exit 1, which reads as "false"
        print("error: input too deep for the recursive search", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect; uncaught, it too would exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
