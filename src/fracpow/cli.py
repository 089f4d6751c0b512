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

Flag values are parsed by argparse type= converters, so a malformed
value is a usage error that reads "fracpow <cmd>: argument --flag:
<reason>".  A well-formed value that the library refuses afterwards
(such as --rhs-poly 1,1/2, not integral) is a domain error.

The argparse tree is built on the first call of main and shared by
every later call in the process.  Each handler passes _emit two
zero-argument renderers, and only the one that --format names runs.
"""

import argparse
import functools
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
from .errors import CapacityError, DomainError, FracpowError, InternalError, UsageError
from .lattice import LatticeSpec, enumerate_below
from .series import MAX_LIST_LEN, onemx_coefficients
from .solver import RhsSpec, decide, solve_formal, verify_solution


def _flag(parse):
    """An argparse type= converter running parse: a DomainError becomes
    "argument --flag: <reason>", which _Parser.error raises as a
    UsageError (exit 2)."""

    def convert(text):
        try:
            return parse(text)
        except DomainError as ex:
            raise argparse.ArgumentTypeError(str(ex))

    return convert


def _positive(text: str) -> Fraction:
    value = parse_rational(text)
    if value <= 0:
        raise DomainError(f"must be positive, got {text}")
    return value


def _rationals(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(t) for t in text.split(","))


def _parse_factor_list(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for chunk in text.split(","):
        try:
            d_str, m_str = chunk.strip().split(":")
            d, v = int(d_str), int(m_str)
        except ValueError:
            raise DomainError(f"bad chunk {chunk!r}; expected 'd:m'")
        if d in out:
            raise DomainError(f"order {d} is repeated")
        out[d] = v
    return out


def _emit(args, render_json, render_text) -> None:
    """Print the payload in the format that --format names; the two
    renderers take no arguments, and only the chosen one runs."""
    if args.format == "json":
        print(json.dumps(render_json()))
    else:
        print(render_text())


def _cmd_solve(args) -> int:
    if args.rhs_factors is not None:
        rhs = RhsSpec.onemx_product(args.rhs_factors)
    else:
        poly = IntPolynomial.one() if args.rhs_poly is None else args.rhs_poly
        rhs = RhsSpec.poly_over_1mx(poly)
    f = solve_formal(args.m, rhs, args.cutoff)
    if not verify_solution(f, args.m, rhs):
        raise InternalError("solution failed residual verification")
    _emit(args, f.to_json_dict, f.__str__)
    return 0


def _cmd_decide(args) -> int:
    report = decide(args.m, args.rhs_poly)
    _emit(args, report.to_json_dict, lambda: f"verdict: {report.verdict}")
    return 0


def _cmd_count(args) -> int:
    bounded = read_set_file(args.set)
    report = constancy_scan(args.m, bounded, args.upto)
    _emit(args, report.to_json_dict, lambda: " ".join(map(str, report.values)))
    return 0


# each kind's fixed (k, period); None is taken from its flag
_KIND_FIXED = {"ruzsa": (2, 2), "moser": (None, 2), "digit": (None, None)}


def _cmd_construct(args) -> int:
    values = []
    flags = zip(("--k", "--period"), _KIND_FIXED[args.kind], (args.k, args.period))
    for flag, fixed, given in flags:
        if (fixed is None) == (given is None):
            need = "needs" if fixed is None else "takes no"
            raise UsageError(f"--kind {args.kind} {need} {flag}")
        values.append(given if fixed is None else fixed)
    ds = build_digit_set(*values, args.bound)
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
        _emit(args, lambda: {"n": args.n, "coefficients": poly.to_json_list()}, poly.__str__)
        return 0
    if args.cyclo_op == "expand":
        product = expand_phi_power(args.d, args.a)
    else:
        product = nprime_cyclotomic_part(args.poly, args.m, not args.no_1mx_inverse)
    _emit(args, product.to_json_dict, lambda: _cyclo_text(product))
    return 0


def _cyclo_text(product: CycloProduct) -> str:
    if product.is_one:
        return "1"
    name = "Phi" if product.basis == "phi" else "(1-x^d)"
    return " ".join(f"{name}[{d}]^{format_rational(v)}" for d, v in product.exps)


def _cmd_enumerate(args) -> int:
    values = enumerate_below(LatticeSpec(args.b, args.thetas), args.below)
    _emit(
        args,
        lambda: [format_rational(v) for v in values],
        lambda: " ".join(map(format_rational, values)),
    )
    return 0


def _cmd_tau(args) -> int:
    n = args.upto
    if n < 1:
        raise UsageError(f"--upto must be >= 1, got {n}")
    if n > MAX_LIST_LEN:
        raise CapacityError(f"tau up to {n} needs more than {MAX_LIST_LEN} entries")
    # tau(k) is the coefficient of q^{k-1} in prod (1 - q^j)^24
    coeffs = onemx_coefficients(n - 1, [(j, 24) for j in range(1, n)])
    _emit(
        args,
        lambda: [[k, v] for k, v in enumerate(coeffs, 1)],
        lambda: "\n".join(f"{k}\t{v}" for k, v in enumerate(coeffs, 1)),
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Flag errors raise UsageError (one JSON object on stderr), not
    argparse's usage text; subparsers inherit the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by every
    later one; parse_args keeps no state between calls."""
    parser = _Parser(
        prog="fracpow",
        description="Exact fractional power series and representation-function tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default):
        p.add_argument("--format", choices=("json", "text"), default=default)

    mspec, poly, positive = _flag(MSpec.parse), _flag(IntPolynomial.parse), _flag(_positive)

    p = sub.add_parser("solve", help="solve the substituted product equation")
    p.add_argument("--m", type=mspec, required=True, help="form spec 'b0:e0,b1:e1,...'")
    rhs = p.add_mutually_exclusive_group()
    rhs.add_argument("--rhs-poly", type=poly, help="ascending coefficients of P(x), e.g. '1,0,2'")
    factors = _flag(_parse_factor_list)
    rhs.add_argument("--rhs-factors", type=factors, help="product right side 'd:m,...'")
    p.add_argument("--cutoff", type=positive, required=True, help="truncation cutoff (rational)")
    add_format(p, "json")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decide", help="decide eventual constancy")
    p.add_argument("--m", type=mspec, required=True)
    p.add_argument("--rhs-poly", type=poly)
    add_format(p, "json")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("count", help="representation counts over a set file")
    p.add_argument("--m", type=mspec, required=True)
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
    q.add_argument("--poly", type=poly, required=True)
    q.add_argument("--m", type=mspec, required=True)
    q.add_argument("--no-1mx-inverse", action="store_true")
    add_format(q, "json")
    q.set_defaults(func=_cmd_cyclo)

    p = sub.add_parser("enumerate", help="list exponent-lattice elements")
    p.add_argument("--b", type=int, required=True)
    thetas = _flag(_rationals)
    p.add_argument("--thetas", type=thetas, default=(), help="comma list of rationals > 1")
    p.add_argument("--below", type=positive, required=True)
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
