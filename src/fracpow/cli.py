"""Command-line interface.

Subcommands:

    solve      unique series solution of the product equation
    decide     constancy decision with certificate
    count      representation counts over a set file
    construct  write a digit-set file (ruzsa / moser / digit)
    cyclo      phi N | expand D A | part --poly ... --m ...
    enumerate  exponent-lattice listing
    tau        coefficients of q prod (1-q^n)^24

All numeric flags are exact integers or rationals ('num/den'); output
is deterministic JSON (rationals as strings) or plain text.  Exit
codes: 0 success, 1 domain/hypothesis error or failed self-check
(kind "internal"), 2 usage error; errors are reported as one JSON
object on stderr.
"""

import argparse
import json
import sys
from fractions import Fraction

from .arith import MSpec, format_rational, parse_rational
from .counting import (
    build_digit_set,
    constancy_scan,
    format_set_file,
    read_set_file,
)
from .cyclotomic import (
    CycloProduct,
    IntPolynomial,
    cyclotomic_poly,
    expand_phi_power,
    nprime_cyclotomic_part,
)
from .errors import DomainError, FracpowError, InternalError, UsageError
from .lattice import LatticeSpec, enumerate_below
from .series import onemx_coefficients
from .solver import RhsSpec, decide, solve_formal, verify_solution


def _parse_mspec(text: str) -> MSpec:
    try:
        return MSpec.parse(text)
    except DomainError as ex:
        raise UsageError(f"bad --m value: {ex}")


def _parse_poly(text: str, flag: str) -> IntPolynomial:
    try:
        return IntPolynomial.parse(text)
    except DomainError as ex:
        raise UsageError(f"bad {flag} value: {ex}")


def _parse_positive(text: str, flag: str) -> Fraction:
    try:
        value = parse_rational(text)
    except DomainError as ex:
        raise UsageError(f"bad {flag} value: {ex}")
    if value <= 0:
        raise UsageError(f"{flag} must be positive, got {text}")
    return value


def _parse_factor_list(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for chunk in text.split(","):
        try:
            d_str, m_str = chunk.strip().split(":")
            d, v = int(d_str), int(m_str)
        except ValueError:
            raise UsageError(f"bad --rhs-factors chunk {chunk!r}; expected 'd:m'")
        if d in out:
            raise UsageError(f"bad --rhs-factors value: order {d} is repeated")
        out[d] = v
    return out


def _rhs_from_flags(args) -> RhsSpec:
    if getattr(args, "rhs_factors", None) is not None:
        if args.rhs_poly is not None:
            raise UsageError("--rhs-poly and --rhs-factors are mutually exclusive")
        return RhsSpec.onemx_product(_parse_factor_list(args.rhs_factors))
    if args.rhs_poly is not None:
        return RhsSpec.poly_over_1mx(_parse_poly(args.rhs_poly, "--rhs-poly"))
    return RhsSpec.poly_over_1mx(IntPolynomial.one())


def _emit(args, payload_json, payload_text) -> None:
    if args.format == "json":
        print(json.dumps(payload_json))
    else:
        print(payload_text)


def _cmd_solve(args) -> int:
    m = _parse_mspec(args.m)
    rhs = _rhs_from_flags(args)
    cutoff = _parse_positive(args.cutoff, "--cutoff")
    f = solve_formal(m, rhs, cutoff)
    if not verify_solution(f, m, rhs):
        raise InternalError("solution failed residual verification")
    _emit(args, f.to_json_dict(), str(f))
    return 0


def _cmd_decide(args) -> int:
    m = _parse_mspec(args.m)
    poly = _parse_poly(args.rhs_poly, "--rhs-poly") if args.rhs_poly is not None else None
    report = decide(m, poly)
    text = f"verdict: {report.verdict}"
    _emit(args, report.to_json_dict(), text)
    return 0


def _cmd_count(args) -> int:
    m = _parse_mspec(args.m)
    bounded = read_set_file(args.set)
    report = constancy_scan(m, bounded, args.upto)
    text = " ".join(str(v) for v in report.values)
    _emit(args, report.to_json_dict(), text)
    return 0


def _cmd_construct(args) -> int:
    kind = args.kind
    if kind == "ruzsa":
        if args.k is not None or args.period is not None:
            raise UsageError("--kind ruzsa takes no --k or --period")
        ds = build_digit_set(2, 2, args.bound)
    elif kind == "moser":
        if args.k is None:
            raise UsageError("--kind moser needs --k")
        if args.period is not None:
            raise UsageError("--kind moser takes no --period")
        ds = build_digit_set(args.k, 2, args.bound)
    else:
        if args.k is None or args.period is None:
            raise UsageError("--kind digit needs --k and --period")
        ds = build_digit_set(args.k, args.period, args.bound)
    text = format_set_file(ds)
    if args.out:
        try:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as ex:
            raise UsageError(f"cannot write {args.out}: {ex.strerror or ex}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_cyclo(args) -> int:
    if args.cyclo_op == "phi":
        poly = cyclotomic_poly(args.n)
        _emit(args, {"n": args.n, "coefficients": poly.to_json_list()}, str(poly))
        return 0
    if args.cyclo_op == "expand":
        product = expand_phi_power(args.d, args.a)
        _emit(args, product.to_json_dict(), _cyclo_text(product))
        return 0
    m = _parse_mspec(args.m)
    poly = _parse_poly(args.poly, "--poly")
    product = nprime_cyclotomic_part(poly, m, not args.no_1mx_inverse)
    _emit(args, product.to_json_dict(), _cyclo_text(product))
    return 0


def _cyclo_text(product: CycloProduct) -> str:
    if product.is_one:
        return "1"
    name = "Phi" if product.basis == "phi" else "(1-x^d)"
    return " ".join(f"{name}[{d}]^{format_rational(v)}" for d, v in product.exps)


def _cmd_enumerate(args) -> int:
    try:
        thetas = tuple(parse_rational(t) for t in args.thetas.split(",")) if args.thetas else ()
    except DomainError as ex:
        raise UsageError(f"bad --thetas value: {ex}")
    spec = LatticeSpec(args.b, thetas)
    below = _parse_positive(args.below, "--below")
    values = enumerate_below(spec, below)
    _emit(
        args,
        [format_rational(v) for v in values],
        " ".join(format_rational(v) for v in values),
    )
    return 0


def _cmd_tau(args) -> int:
    n = args.upto
    if n < 1:
        raise UsageError(f"--upto must be >= 1, got {n}")
    # tau(k) is the coefficient of q^{k-1} in prod (1 - q^j)^24
    coeffs = onemx_coefficients(n - 1, [(j, 24) for j in range(1, n)])
    values = list(enumerate(coeffs, 1))
    _emit(
        args,
        [[k, v] for k, v in values],
        "\n".join(f"{k}\t{v}" for k, v in values),
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Flag errors raise UsageError (one JSON object on stderr), not
    argparse's usage text; subparsers inherit the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracpow",
        description="Exact fractional power series and representation-function tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default):
        p.add_argument("--format", choices=("json", "text"), default=default)

    p = sub.add_parser("solve", help="solve the substituted product equation")
    p.add_argument("--m", required=True, help="form spec 'b0:e0,b1:e1,...'")
    p.add_argument("--rhs-poly", help="ascending coefficients of P(x), e.g. '1,0,2'")
    p.add_argument("--rhs-factors", help="product right side 'd:m,...'")
    p.add_argument("--cutoff", required=True, help="truncation cutoff (rational)")
    add_format(p, "json")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decide", help="decide eventual constancy")
    p.add_argument("--m", required=True)
    p.add_argument("--rhs-poly")
    add_format(p, "json")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("count", help="representation counts over a set file")
    p.add_argument("--m", required=True)
    p.add_argument("--set", required=True, help="set file path")
    p.add_argument("--upto", type=int, required=True)
    add_format(p, "json")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("construct", help="write a digit-set file")
    p.add_argument("--kind", choices=("ruzsa", "moser", "digit"), required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--period", type=int)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("cyclo", help="cyclotomic polynomial utilities")
    cyclo_sub = p.add_subparsers(dest="cyclo_op", required=True)
    q = cyclo_sub.add_parser("phi", help="the cyclotomic polynomial of order n")
    q.add_argument("n", type=int)
    add_format(q, "text")
    q.set_defaults(func=_cmd_cyclo)
    q = cyclo_sub.add_parser("expand", help="Phi_d(x^a) as a product of Phi_f")
    q.add_argument("d", type=int)
    q.add_argument("a", type=int)
    add_format(q, "json")
    q.set_defaults(func=_cmd_cyclo)
    q = cyclo_sub.add_parser("part", help="smooth-order cyclotomic part of P/(1-x)")
    q.add_argument("--poly", required=True)
    q.add_argument("--m", required=True)
    q.add_argument("--no-1mx-inverse", action="store_true")
    add_format(q, "json")
    q.set_defaults(func=_cmd_cyclo)

    p = sub.add_parser("enumerate", help="list exponent-lattice elements")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--thetas", default="", help="comma list of rationals > 1")
    p.add_argument("--below", required=True)
    add_format(p, "json")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("tau", help="coefficients of q prod (1-q^n)^24")
    p.add_argument("--upto", type=int, required=True)
    add_format(p, "text")
    p.set_defaults(func=_cmd_tau)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as ex:
        _report_error(ex)
        return 2
    except FracpowError as ex:
        _report_error(ex)
        return 1


def _report_error(ex: FracpowError) -> None:
    print(json.dumps({"error": {"kind": ex.kind, "message": str(ex)}}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
