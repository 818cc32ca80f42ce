"""Command-line front end.

Commands: extend, verify, enumerate, equilibria, payoff, limits.
Exit codes: 0 success / verified, 1 verification failed, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from .errors import EwlError, ExactnessError
from .exactnum import MODES, exact_cos
from .extensions import (ClassId, ClassParams, _blocks, extension_matrix, limit_check,
                         strategy_set)
from .invariance import (
    ExtendedGame,
    build_extended_game,
    verify_invariance_end_to_end,
)
from .nash import mixed_equilibria, verify_equilibrium
from .payoff import (
    Bimatrix2,
    PayoffPair,
    coefficients,
    format_scalar,
    payoff_closed_form,
    payoff_oracle,
)
from .solver import LatticeSpec, check_relations, search_solutions
from .su2 import StrategyParams

ORACLE_TOL = 1e-10
_CLASS_ANGLES = ("theta1", "alpha1", "beta1", "alpha2", "beta2")
_ANGLE_OPTIONS = {f"--{name}" for name in (*_CLASS_ANGLES, "theta", "p1", "p2")}


class InputError(Exception):
    """User-facing configuration problem; maps to exit code 2."""


def _load_game(spec: str, mode: str, extended: bool = False):
    """The game given by --game: inline JSON (text starting with '{' or '[')
    or the path of a JSON file.  A game with 'labels' is an ExtendedGame, accepted
    only where `extended` allows; any other is a classical Bimatrix2."""
    text = spec.strip()
    if not text.startswith(("{", "[")):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read game file {spec!r}: {exc}") from exc
    try:
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise TypeError("a game must be a JSON object with 'payoffs'")
        if extended and "labels" in raw:
            return ExtendedGame.from_json(raw)
        game = Bimatrix2.from_json(raw)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed game JSON: {exc}") from exc
    if mode == "exact" and not game.is_exact:
        raise InputError(
            "exact mode requires rational game entries; "
            "write payoffs as integers or 'p/q' strings, or pass --mode float"
        )
    return game


def _parse_strategy_list(text: str) -> List[StrategyParams]:
    try:
        data = json.loads(text)
        return [StrategyParams.from_json(item) for item in data]
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed strategy set: {exc}") from exc


def _class_params(args) -> ClassParams:
    return ClassParams.create(args.cls, **{name: getattr(args, name) for name in _CLASS_ANGLES})


def _resolve_strategies(args) -> List[StrategyParams]:
    if args.set:
        strategies = _parse_strategy_list(args.set)
        if not strategies:
            raise InputError("strategy set must be nonempty")
        return strategies
    if args.cls:
        return strategy_set(_class_params(args))
    raise InputError("provide --class (with parameters) or --set")


def _emit(args, text: str) -> None:
    """Write text to --output or stdout, ending in exactly one newline."""
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _oracle_disagrees(game: Bimatrix2, p, q, got: PayoffPair) -> Optional[PayoffPair]:
    """The statevector payoffs of (p, q) if the closed-form payoffs got are
    more than ORACLE_TOL away from them, else None."""
    ref = payoff_oracle(game, p, q)
    if (abs(float(got.u1) - ref.u1) > ORACLE_TOL
            or abs(float(got.u2) - ref.u2) > ORACLE_TOL):
        return ref
    return None


def _oracle_check_extension(game: Bimatrix2, strategies, ext: ExtendedGame) -> None:
    for i, p in enumerate(strategies):
        for j, q in enumerate(strategies):
            got = ext.payoffs[i][j]
            ref = _oracle_disagrees(game, p, q, got)
            if ref is not None:
                raise InputError(
                    f"oracle mismatch at ({ext.labels[i]}, {ext.labels[j]}): "
                    f"closed form {float(got.u1)}, {float(got.u2)} vs "
                    f"statevector {ref.u1}, {ref.u2}"
                )


def _build_extension(args, game: Bimatrix2) -> ExtendedGame:
    strategies = _resolve_strategies(args)
    if args.set:
        ext = build_extended_game(game, strategies, mode=args.mode)
    else:
        params = _class_params(args)
        if args.mode == "exact":  # the block formula's cosines must be exact
            try:
                _blocks(params, lambda a: exact_cos(a.frac))
            except ExactnessError:
                raise ExactnessError("the extension leaves Q(sqrt(2)) at these parameters; "
                                     "pass --mode float") from None
        ext = extension_matrix(params, game)
    if args.oracle_check:
        _oracle_check_extension(game, strategies, ext)
    return ext


def _extension_csv(ext: ExtendedGame) -> str:
    lines = ["row,col,u1,u2"]
    for label_r, row in zip(ext.labels, ext.payoffs):
        for label_c, cell in zip(ext.labels, row):
            lines.append(
                f"{label_r},{label_c},{format_scalar(cell.u1)},{format_scalar(cell.u2)}"
            )
    return "\n".join(lines)


def cmd_extend(args) -> int:
    game = _load_game(args.game, args.mode)
    ext = _build_extension(args, game)
    if args.mode == "float":
        ext = ExtendedGame(ext.labels, tuple(
            tuple(PayoffPair(*map(float, cell)) for cell in row) for row in ext.payoffs))
    if args.format == "pretty":
        _emit(args, ext.pretty())
    elif args.format == "csv":
        _emit(args, _extension_csv(ext))
    else:
        _emit(args, json.dumps(ext.to_json(), indent=2))
    return 0


def cmd_verify(args) -> int:
    game = _load_game(args.game, args.mode)
    strategies = _resolve_strategies(args)
    tol = 0.0 if args.mode == "exact" else 1e-9
    report = verify_invariance_end_to_end(game, strategies, mode=args.mode, tol=tol)
    _emit(args, json.dumps(report.to_json(), indent=2))
    return 0 if report.all_isomorphic else 1


def cmd_enumerate(args) -> int:
    result = search_solutions(LatticeSpec.create(args.theta, args.step), mode=args.mode)
    _emit(args, result.to_csv())
    counts = result.counts()
    summary = ", ".join(f"{k}={v}" for k, v in counts.items()) or "no solutions"
    print(f"tested {result.tested} tuples: {summary}", file=sys.stderr)
    related = sum(all(r.satisfied for r in check_relations(
        s.theta1, s.alpha1, s.beta1, s.alpha2, s.beta2)) for s in result.solutions)
    print(f"criterion only: {len(result.solutions)}, "
          f"criterion + named relations: {related}", file=sys.stderr)
    return 0


def cmd_equilibria(args) -> int:
    if (args.set or args.cls) and not args.extend_first:
        raise InputError("--class/--set require --extend-first")
    game = _load_game(args.game, args.mode, extended=True)
    if isinstance(game, ExtendedGame):
        if args.extend_first:
            raise InputError("--extend-first needs a classical 2x2 game")
        ext = game
    elif args.extend_first:
        ext = _build_extension(args, game)
    else:
        ext = ExtendedGame(("s1", "s2"), game.delta)
    report = mixed_equilibria(ext, mode=args.mode)
    for eq in report.equilibria:
        if not verify_equilibrium(ext, eq):
            raise InputError(f"internal error: deviation check failed for {eq}")
    if report.degenerate:
        print("warning: degenerate game; equilibrium families sampled, "
              "not enumerated", file=sys.stderr)
    if args.format == "csv":
        lines = ["kind,u1,u2,p1,p2"]
        for eq in report.equilibria:
            p1 = ";".join(str(format_scalar(v)) for v in eq.profile.p1)
            p2 = ";".join(str(format_scalar(v)) for v in eq.profile.p2)
            lines.append(f"{eq.kind},{format_scalar(eq.payoff.u1)},"
                         f"{format_scalar(eq.payoff.u2)},{p1},{p2}")
        _emit(args, "\n".join(lines))
    elif args.format == "pretty":
        lines = []
        for eq in report.equilibria:
            p1 = ", ".join(f"{ext.labels[i]}: {format_scalar(eq.profile.p1[i])}"
                           for i in eq.supports[0])
            p2 = ", ".join(f"{ext.labels[j]}: {format_scalar(eq.profile.p2[j])}"
                           for j in eq.supports[1])
            lines.append(f"{eq.kind}: payoff ({format_scalar(eq.payoff.u1)}, "
                         f"{format_scalar(eq.payoff.u2)})  p1 = [{p1}]  p2 = [{p2}]")
        _emit(args, "\n".join(lines) if lines else "no equilibria found")
    else:
        _emit(args, json.dumps(report.to_json(labels=ext.labels), indent=2))
    return 0


def cmd_payoff(args) -> int:
    game = _load_game(args.game, args.mode)
    try:
        p1, p2 = _strategy_from_text(args.p1), _strategy_from_text(args.p2)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"malformed strategy params: {exc}") from exc
    pay = payoff_closed_form(game, p1, p2, mode=args.mode)
    coeff = coefficients(p1, p2, mode=args.mode)
    ref = _oracle_disagrees(game, p1, p2, pay) if args.oracle_check else None
    if ref is not None:
        raise InputError(
            f"oracle mismatch: closed form ({float(pay.u1)}, {float(pay.u2)}) "
            f"vs statevector ({ref.u1}, {ref.u2})"
        )
    _emit(args, json.dumps({
        "u1": format_scalar(pay.u1),
        "u2": format_scalar(pay.u2),
        "coefficients": [format_scalar(c) for c in coeff],
    }, indent=2))
    return 0


def _strategy_from_text(text: str) -> StrategyParams:
    """A JSON triple or object, or 'theta,alpha,beta'."""
    if text.strip().startswith(("{", "[")):
        return StrategyParams.from_json(json.loads(text))
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise InputError(
            f"strategy triple must be 'theta,alpha,beta' or JSON, got {text!r}"
        )
    return StrategyParams.from_json(parts)


def cmd_limits(args) -> int:
    game = _load_game(args.game, "float")
    try:
        thetas = [float(t) for t in args.epsilons]
    except ValueError as exc:
        raise InputError(f"--epsilons: {exc}") from exc
    if not all(math.isfinite(t) for t in thetas):
        raise InputError("--epsilons must be finite numbers")
    lines = ["class,direction,theta1,max_abs_diff,bound,converged"]
    all_ok = True
    for name in ("D1", "D2", "E1", "E2"):
        for direction in ("zero", "pi"):
            chk = limit_check(ClassId(name), direction, game, thetas=thetas)
            all_ok = all_ok and chk.converged
            for th, d, b in zip(chk.thetas, chk.max_abs_diff, chk.bounds):
                arrow = "theta->0" if direction == "zero" else "theta->pi"
                lines.append(
                    f"{name},{arrow},{th!r},{d!r},{b!r},{d <= b}"
                )
    _emit(args, "\n".join(lines))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewlext",
        description="Quantum extensions of 2x2 games: construction, "
                    "invariance verification, solution enumeration, equilibria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, mode=True, formats=False):
        p.add_argument("--game", required=True,
                       help="path to a game JSON file, or inline JSON")
        if mode:
            p.add_argument("--mode", choices=MODES, default="exact")
        if formats:
            p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
        p.add_argument("--output", help="write to file instead of stdout")

    def add_class_params(p):
        p.add_argument("--class", dest="cls",
                       choices=[c.value for c in ClassId],
                       help="extension class shortcut")
        for name in _CLASS_ANGLES:
            p.add_argument(f"--{name}")
        p.add_argument("--set", help="explicit JSON list of strategy parameter triples")

    p = sub.add_parser("extend", help="materialize a 4x4 extension bimatrix")
    add_common(p, formats=True)
    add_class_params(p)
    p.add_argument("--oracle-check", action="store_true",
                   help="recompute every entry via the statevector and compare")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("verify", help="check invariance under the swapped variants")
    add_common(p)
    add_class_params(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="lattice search for permissible parameters")
    p.add_argument("--theta", action="append", required=True,
                   help="theta1 value such as '1/2 pi' (repeatable)")
    p.add_argument("--step", default="1/4", choices=("1/4", "1/8"),
                   help="phase lattice step in units of pi")
    p.add_argument("--mode", choices=MODES, default="exact")
    p.add_argument("--output", help="write CSV to file instead of stdout")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("equilibria", help="pure and mixed Nash equilibria")
    add_common(p, formats=True)
    add_class_params(p)
    p.add_argument("--extend-first", action="store_true",
                   help="extend the classical game before solving")
    p.add_argument("--oracle-check", action="store_true")
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("payoff", help="payoff of a single strategy profile")
    add_common(p)
    p.add_argument("--p1", required=True, help="'theta,alpha,beta' or JSON triple")
    p.add_argument("--p2", required=True)
    p.add_argument("--oracle-check", action="store_true")
    p.set_defaults(func=cmd_payoff)

    p = sub.add_parser("limits", help="D/E to A convergence table (CSV)")
    add_common(p, mode=False)
    p.add_argument("--epsilons", nargs="+", default=["1e-1", "1e-2", "1e-3",
                                                     "1e-4", "1e-5", "1e-6"],
                   help="offsets of theta1 from the limit point")
    p.set_defaults(func=cmd_limits)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    joined: List[str] = []
    for arg in sys.argv[1:] if argv is None else argv:  # argparse takes "-pi/4" for an option
        if joined and joined[-1] in _ANGLE_OPTIONS and arg[:1] == "-" and arg[:2] != "--":
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    args = parser.parse_args(joined)
    try:
        return args.func(args)
    except (InputError, EwlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
