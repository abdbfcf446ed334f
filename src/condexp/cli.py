"""Command-line front end.

Every subcommand loads a JSON fixture, runs one operation, and writes a JSON
report (stdout or --out).  Exit codes: 0 success / PASS, 1 input error,
2 certified negative (obstruction, failed membership, failed coarseness,
non-convergence, or a failed search).  All randomness is seeded and reports
serialize with sorted keys, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import attainable, equilibrium, pennies, purification, serialize
from .errors import AtomObstructionError, CondexpError, SchemaError
from .games import coarser_info_check

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2
# Caps rademacher/pennies --m and uhc-audit --depth.  The escape audits read
# each level in closed form, so for them it bounds the size of the numbers
# (denominators up to 2^m) and the levels uhc-audit walks; for pennies, the
# action count, which the lab's work grows with.
MAX_LEVEL = 16


def _read(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(path, "file not found")
    except OSError as exc:  # a directory, or no permission
        raise SchemaError(path, f"cannot read: {exc.strerror}")
    except ValueError as exc:  # not UTF-8, not JSON, or an int past the digit limit
        raise SchemaError(path, f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected a JSON object")
    return doc


def _write(path: str, flag: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:  # a missing directory, a directory, or no permission
        raise SchemaError(flag, f"cannot write {path}: {exc.strerror}")


def _emit(report: dict, out: str | None) -> None:
    text = serialize.report_text(report) + "\n"
    if out:
        _write(out, "--out", text)
    else:
        sys.stdout.write(text)


def _frac_arg(text: str) -> Fraction:
    try:
        return serialize.parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _unit_frac_arg(text: str) -> Fraction:
    value = _frac_arg(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text!r}")
    return value


def _tolerance_arg(text: str) -> Fraction:
    value = _frac_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _count_arg(text: str, most: int | None = None) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    if most is not None and int(text) > most:
        raise argparse.ArgumentTypeError(f"must be at most {most}, got {text!r}")
    return int(text)


def _level_arg(text: str) -> int:
    return _count_arg(text, MAX_LEVEL)


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1) naming the argument; argparse's
    own exit code 2 would read as a certified negative."""

    def error(self, message):
        path, _, detail = message.removeprefix("argument ").partition(": ")
        raise SchemaError(path, detail)


def cmd_g_atom(args) -> int:
    doc = _read(args.fixture)
    space = serialize.load_space(doc.get("space", doc))
    has_atom, witness = space.has_g_atom()
    _emit({"has_g_atom": has_atom, "witness": witness}, args.out)
    return EXIT_OK


def cmd_condexp_set(args) -> int:
    doc = _read(args.fixture)
    F = serialize.load_correspondence(doc.get("correspondence", doc))
    ces = attainable.cond_exp_set(F)
    blocks = {label: serialize.dump_block_set(bs) for label, bs in ces.regions.items()}
    report = {"blocks": blocks, "saturated_cells": list(ces.saturated_cells)}
    code = EXIT_OK
    if "h" in doc:
        h = serialize.load_g_measurable(doc["h"], F.space, "h", F.dim)
        tolerance = Fraction(0)
        if args.mode == "float":
            tolerance = Fraction(1, 10**9)
        result = attainable.membership(F, h, tolerance)
        report["membership"] = serialize.dump_membership(result)
        if not result.member:
            code = EXIT_NEGATIVE
    _emit(report, args.out)
    return code


def cmd_convexify(args) -> int:
    doc = _read(args.fixture)
    F = serialize.load_correspondence(doc.get("correspondence", doc))
    s1 = serialize.load_selection(doc.get("s1"), F.space, "s1")
    s2 = serialize.load_selection(doc.get("s2"), F.space, "s2")
    out = attainable.convexify_witness(F, s1, s2, args.alpha)
    if isinstance(out, attainable.AtomObstruction):
        _emit({"obstruction": serialize.dump_obstruction(out)}, args.out)
        return EXIT_NEGATIVE
    _emit(
        {
            "selection": serialize.dump_selection(out, F.space),
            "alpha": serialize.frac_str(args.alpha),
            # convexify_witness raises unless the blend identity holds
            "identity_verified": True,
        },
        args.out,
    )
    return EXIT_OK


def cmd_rademacher(args) -> int:
    doc = _read(args.fixture)
    space = serialize.load_space(doc.get("space", doc))
    cell = args.cell or doc.get("cell")
    if cell is None:
        raise SchemaError("cell", "no cell named (use --cell or fixture key)")
    tests = serialize.load_step_functions(doc.get("tests", []), space, "tests", 1)
    report = attainable.rademacher_escape(space, cell, args.m, tests)
    certificate = attainable.limit_escape_certificate(space, cell)
    _emit(serialize.dump_report(report, limit_escape_certificate=certificate), args.out)
    return EXIT_OK


def cmd_uhc_audit(args) -> int:
    doc = _read(args.fixture)
    space = serialize.load_space(doc.get("space", doc))
    cell = args.cell or doc.get("cell")
    if cell is None:
        raise SchemaError("cell", "no cell named (use --cell or fixture key)")
    report = attainable.uhc_audit(space, cell, args.depth)
    _emit(serialize.dump_uhc(report), args.out)
    return EXIT_OK


def cmd_derive_info(args) -> int:
    doc = _read(args.fixture)
    game = serialize.load_game(doc.get("game", doc))
    _emit({"players": [serialize.dump_report(part) for part in game.info]}, args.out)
    return EXIT_OK


def cmd_coarser_check(args) -> int:
    doc = _read(args.fixture)
    game = serialize.load_game(doc.get("game", doc))
    checks = coarser_info_check(game)
    all_pass = all(c.passes for c in checks)
    _emit({"players": [serialize.dump_report(c) for c in checks], "all_pass": all_pass}, args.out)
    return EXIT_OK if all_pass else EXIT_NEGATIVE


def _solve_options(args) -> equilibrium.SolveOptions:
    return equilibrium.SolveOptions(
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        method=args.method,
    )


def _dump_profile(game, profile) -> list:
    return [serialize.dump_strategy(s, spec) for s, spec in zip(profile, game.players)]


def cmd_solve(args) -> int:
    doc = _read(args.fixture)
    game = serialize.load_game(doc.get("game", doc))
    report = equilibrium.solve_behavioral(game, _solve_options(args))
    payload = serialize.dump_report(report, profile=_dump_profile(game, report.profile))
    code = EXIT_OK if report.converged else EXIT_NEGATIVE
    if args.purify and report.converged:
        try:
            purified = equilibrium.purify_equilibrium(game, report)
            payload["purified"] = serialize.dump_report(
                purified, profile=_dump_profile(game, purified.profile)
            )
        except AtomObstructionError as exc:
            payload["purified"] = {
                "obstruction": serialize.dump_obstruction(exc.obstruction)
            }
            code = EXIT_NEGATIVE
    _emit(payload, args.out)
    return code


def cmd_purify(args) -> int:
    doc = _read(args.fixture)
    game = serialize.load_game(doc.get("game", doc))
    profile = serialize.load_profile(doc.get("profile", []), game.players, "profile")
    try:
        cert = purification.strong_purify(
            game, profile, deviation_samples=args.samples, seed=args.seed
        )
    except AtomObstructionError as exc:
        _emit({"obstruction": serialize.dump_obstruction(exc.obstruction)}, args.out)
        return EXIT_NEGATIVE
    all_zero = cert.report.all_zero
    profile = _dump_profile(game, cert.profile)
    _emit(serialize.dump_report(cert, profile=profile, all_zero=all_zero), args.out)
    return EXIT_OK if all_zero else EXIT_NEGATIVE


def cmd_audit_equivalence(args) -> int:
    doc = _read(args.fixture)
    game = serialize.load_game(doc.get("game", doc))
    f = serialize.load_profile(doc.get("f", []), game.players, "f")
    g = serialize.load_profile(doc.get("g", []), game.players, "g")
    rows = doc.get("deviations")
    deviations = None  # an absent key, null or an empty list means no samples
    if rows not in (None, []):
        deviations = serialize.load_samples(rows, game.players, "deviations")
    report = purification.audit_equivalence(game, f, g, deviations)
    _emit(serialize.dump_report(report, all_zero=report.all_zero), args.out)
    return EXIT_OK if report.all_zero else EXIT_NEGATIVE


def cmd_pennies(args) -> int:
    game = pennies.PenniesGame(args.m, args.variant)
    report = pennies.no_pure_equilibrium_search(
        game, budget=args.budget, grid=args.grid, epsilon=args.epsilon, seed=args.seed
    )
    payload = serialize.dump_report(report, min_gain_float=format(float(report.min_gain), ".12g"))
    if args.csv:
        f1 = pennies.IntervalUnionStrategy.from_grid(report.argmin[0], report.m)
        rows = pennies.interim_weight_rows(f1, samples=args.samples)
        lines = [",".join(["l2"] + [f"w{j + 1}" for j in range(report.m)])]
        lines += [",".join(format(v, ".12g") for v in (l2, *weights)) for l2, weights in rows]
        _write(args.csv, "--csv", "\n".join(lines) + "\n")
    _emit(payload, args.out)
    return EXIT_OK if report.passed else EXIT_NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing keeps no state in it."""
    parser = _Parser(
        prog="condexp",
        description="Conditional-expectation sets of correspondences and "
        "finite-action Bayesian games, with exact certificates.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    common.add_argument(
        "--mode",
        choices=["rational", "float"],
        default="rational",
        help="numeric mode: exact membership (rational) or membership within 1e-9 "
        "(float); solve takes its method from --method alone",
    )
    common.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("g-atom", help="detect saturated or point cells")
    p.add_argument("fixture")
    p.set_defaults(func=cmd_g_atom)

    p = add_parser("condexp-set", help="block regions and optional membership")
    p.add_argument("fixture")
    p.set_defaults(func=cmd_condexp_set)

    p = add_parser("convexify", help="blend two selections' conditional expectations")
    p.add_argument("fixture")
    p.add_argument("--alpha", type=_unit_frac_arg, required=True)
    p.set_defaults(func=cmd_convexify)

    p = add_parser("rademacher", help="alternating escape selection report")
    p.add_argument("fixture")
    p.add_argument("--m", type=_level_arg, required=True)
    p.add_argument("--cell")
    p.set_defaults(func=cmd_rademacher)

    p = add_parser("uhc-audit", help="limit attainability audit")
    p.add_argument("fixture")
    p.add_argument("--cell")
    p.add_argument("--depth", type=_level_arg, default=8)
    p.set_defaults(func=cmd_uhc_audit)

    p = add_parser("derive-info", help="derived inter-player information")
    p.add_argument("fixture")
    p.set_defaults(func=cmd_derive_info)

    p = add_parser("coarser-check", help="coarser inter-player information check")
    p.add_argument("fixture")
    p.set_defaults(func=cmd_coarser_check)

    p = add_parser("solve", help="block-constant equilibrium search")
    p.add_argument("fixture")
    p.add_argument("--method", choices=["auto", "lp", "br", "enum"], default="auto")
    p.add_argument("--epsilon", type=_tolerance_arg, default=Fraction(1, 10**9))
    p.add_argument("--max-iters", type=_count_arg, default=4000)
    p.add_argument("--purify", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = add_parser("purify", help="strong purification of a behavioral profile")
    p.add_argument("fixture")
    p.add_argument("--samples", type=_count_arg, default=16)
    p.set_defaults(func=cmd_purify)

    p = add_parser("audit-equivalence", help="equivalence residuals of two profiles")
    p.add_argument("fixture")
    p.set_defaults(func=cmd_audit_equivalence)

    p = add_parser("pennies", help="triangular-prior matching-pennies lab")
    p.add_argument("--m", type=_level_arg, default=2)
    p.add_argument(
        "--variant",
        choices=list(pennies.VARIANTS),
        default="type-irrelevant",
    )
    p.add_argument("--budget", type=int, default=2)
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--epsilon", type=_tolerance_arg, default=Fraction(1, 100))
    p.add_argument("--csv", help="write (l2, interim weights) rows here")
    p.add_argument("--samples", type=_count_arg, default=99)
    p.set_defaults(func=cmd_pennies)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SchemaError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except AtomObstructionError as exc:
        sys.stderr.write(f"obstruction: {exc}\n")
        return EXIT_NEGATIVE
    except CondexpError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
