"""Command-line front end.

Verbs: classgroup, genus, bounds, factors, equation, classpoly, scan.
Every verb supports --json, which wraps the payload in a stable envelope
{schema_version, command, result, warnings}.  Flags can also be supplied via
environment variables with the SINGK3_ prefix (SINGK3_PRECISION,
SINGK3_BOUND, SINGK3_JSON, SINGK3_KUMMER).  They are read when a command runs,
for the options its command line leaves out, so the parser is built once per
process and a typed flag wins.  fractions, mpmath and the k3,
lattices and modular layers are imported inside the verbs that use them, so
classgroup, genus and scan start without them; bounds, factors and equation
are in _numeric_verbs, which only they import.

Exit codes: 0 success, 1 stdout closed before all output was written (e.g.
piped into `head`; reported without a traceback), 2 usage error (a bad
SINGK3_* value names its variable; an input over a size limit names the
limit), 3 computation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .classgroup import (
    class_group,
    class_number,
    distinct_fields,
    fundamental_data,
    genus_partition,
    scan_one_class_per_genus,
)
from .errors import (
    InputTooLarge,
    InvalidDiscriminant,
    NotNegativeDiscriminant,
    NotPositiveDefinite,
    ParseError,
    SingK3Error,
)
from .forms import form_sort_key

SCHEMA_VERSION = "5"

_USAGE_ERRORS = (
    ParseError,
    NotPositiveDefinite,
    NotNegativeDiscriminant,
    InvalidDiscriminant,
    InputTooLarge,
)

_SCAN_CAVEAT = (
    "the scan bound is a search cutoff, not a completeness proof: classically "
    "at most one further qualifying discriminant (of very large absolute value) "
    "could exist beyond any bound"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, like the errors a verb reports
        self.exit(2, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    # argparse reports a ValueError as "invalid positive_int value: ..."
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def precision_digits(text: str) -> int:
    # a positive digit count whose bits the numeric layer accepts
    from mpmath.libmp import dps_to_prec, prec_to_dps

    from .modular import _MAX_PRECISION_BITS

    value = positive_int(text)
    if dps_to_prec(value) > _MAX_PRECISION_BITS:
        raise argparse.ArgumentTypeError(
            f"precision is limited to {prec_to_dps(_MAX_PRECISION_BITS)} digits, got {value}"
        )
    return value


def scan_bound(text: str) -> int:
    # scan_one_class_per_genus needs bound >= 4; argparse reports the ValueError
    value = int(text)
    if value < 4:
        raise ValueError(text)
    return value


def _env_flag(text: str) -> bool:
    return text.strip().lower() not in ("", "0", "false", "no", "off")


# option -> (its environment variable, the conversion of a value, the value
# when the variable is unset); read when a command runs, for each of these
# options that the command line leaves out
_ENV_DEFAULTS = {
    "precision": ("SINGK3_PRECISION", precision_digits, "128"),
    "bound": ("SINGK3_BOUND", scan_bound, "10000"),
    "json": ("SINGK3_JSON", _env_flag, ""),
    "kummer": ("SINGK3_KUMMER", _env_flag, ""),
}


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="singk3",
        description="class groups, CM lattices, and field-of-definition bounds "
        "for singular K3 surfaces",
        epilog="environment overrides: SINGK3_PRECISION, SINGK3_BOUND, "
        "SINGK3_JSON, SINGK3_KUMMER",
    )
    parser.add_argument("--version", action="version", version=f"singk3 {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    parser.verbs = sub.choices

    def add_precision(p):
        p.add_argument(
            "--precision",
            type=precision_digits,
            metavar="DIGITS",
            help="working precision in decimal digits, positive (default 128)",
        )

    p = sub.add_parser("classgroup", help="reduced forms and structure of Cl(d)")
    p.add_argument("d", type=int)

    p = sub.add_parser("genus", help="genus partition and characters of Cl(d)")
    p.add_argument("d", type=int)

    p = sub.add_parser("bounds", help="field-of-definition bounds for a form")
    p.add_argument("--form", required=True, metavar="a,b,c")
    add_precision(p)

    p = sub.add_parser("factors", help="CM points tau1, tau2 and their lattices")
    p.add_argument("--form", required=True, metavar="a,b,c")
    p.add_argument("--kummer", action="store_true",
                   help="also report the half form when 2-divisible")

    p = sub.add_parser("equation", help="Weierstrass model of the pencil")
    p.add_argument("--form", required=True, metavar="a,b,c")
    p.add_argument("--kummer", action="store_true", help="emit the Kummer base change instead")
    add_precision(p)

    p = sub.add_parser("classpoly", help="ring class polynomial of d")
    p.add_argument("d", type=int)

    p = sub.add_parser("scan", help="one-class-per-genus discriminant scan")
    p.add_argument("--bound", type=scan_bound)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for dest, (name, convert, unset) in _ENV_DEFAULTS.items():
        if getattr(args, dest, True) not in (None, False):
            continue  # typed on the command line, or not an option of this verb
        text = os.environ.get(name)
        try:
            value = convert(unset if text is None else text)
        except ValueError:
            message = f"invalid {convert.__name__} value {text!r}"
        except argparse.ArgumentTypeError as exc:
            message = str(exc)
        else:
            setattr(args, dest, value)
            continue
        # a usage error of the verb that names the variable
        parser.verbs[args.verb].error(f"argument --{dest}: {message} from {name}")
    return args


def _form_list(forms) -> list[dict]:
    return [f.as_json() for f in sorted(forms, key=form_sort_key)]


def _form_str(f: dict) -> str:
    return f"({f['a']},{f['b']},{f['c']})"


def _run_classgroup(args, warnings):
    g = class_group(args.d)
    return {
        "d": args.d,
        "h": g.order,
        "forms": _form_list(g.elements),
        "cyclic_decomposition": [
            {"generator": f.as_json(), "order": k} for f, k in g.generators
        ],
    }


def _render_classgroup(result, out):
    print(f"Cl({result['d']}): h = {result['h']}", file=out)
    for f in result["forms"]:
        print(f"  {_form_str(f)}", file=out)
    orders = [c["order"] for c in result["cyclic_decomposition"]]
    print(f"cyclic decomposition: {' x '.join(f'Z/{k}' for k in orders) or 'trivial'}", file=out)


def _run_genus(args, warnings):
    # the genera come from the elements alone, so Cl(d) is not decomposed
    part = genus_partition(args.d)
    return {
        "d": args.d,
        "h": class_number(args.d),
        "g": len(part.cosets),
        "n": len(part.principal_genus),
        "cosets": [_form_list(c) for c in part.cosets],  # the principal genus first
    }


def _render_genus(result, out):
    print(
        f"Cl({result['d']}): h = {result['h']}, genera g = {result['g']}, "
        f"classes per genus n = {result['n']}",
        file=out,
    )
    for i, coset in enumerate(result["cosets"]):
        tag = "" if i else " (principal)"
        print(f"  genus {i}{tag}: {' '.join(map(_form_str, coset))}", file=out)


def _run_classpoly(args, warnings):
    from .modular import class_polynomial

    poly = class_polynomial(args.d)
    return {
        "d": args.d,
        "degree": poly.degree,
        "coefficients": poly.as_json(),
        "certificate": {
            "precision_bits": poly.precision_bits,
            "error_bound_log2": poly.error_bound_log2,
        },
    }


def _render_classpoly(result, out):
    print(f"H_{result['d']}(x), degree {result['degree']}:", file=out)
    print("  coefficients (constant first): " + " ".join(result["coefficients"]), file=out)
    cert = result["certificate"]
    print(
        f"  certified at {cert['precision_bits']} bits, error < 2^{cert['error_bound_log2']}",
        file=out,
    )


def _run_scan(args, warnings):
    hits = scan_one_class_per_genus(args.bound)
    fields = distinct_fields(hits)
    warnings.append(_SCAN_CAVEAT)
    records = []
    for d in hits:
        fd = fundamental_data(d)
        records.append(
            {"d": d, "h": class_number(d), "d_K": fd.field_discriminant, "f": fd.conductor}
        )
    return {
        "bound": args.bound,
        "count": len(hits),
        "field_count": len(fields),
        "largest": hits[-1] if hits else None,
        "fields": sorted(fields, key=abs),
        "records": records,
    }


def _render_scan(result, out):
    print(
        f"one class per genus, |d| <= {result['bound']}: {result['count']} discriminants, "
        f"{result['field_count']} fields, largest {result['largest']}",
        file=out,
    )
    print("  " + " ".join(str(r["d"]) for r in result["records"]), file=out)


# verb -> (compute the JSON result, print it as text); bounds, factors and
# equation are in _numeric_verbs, which is compiled only when one of them runs
_VERBS = {
    "classgroup": (_run_classgroup, _render_classgroup),
    "genus": (_run_genus, _render_genus),
    "classpoly": (_run_classpoly, _render_classpoly),
    "scan": (_run_scan, _render_scan),
}


def _verb(name: str):
    if name in _VERBS:
        return _VERBS[name]
    from ._numeric_verbs import VERBS

    return VERBS[name]


def run(argv: list[str], out=None) -> int:
    """Dispatch a command line; returns the exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    compute, render = _verb(args.verb)
    warnings: list[str] = []
    try:
        result = compute(args, warnings)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingK3Error, ValueError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3
    if args.json:
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": {
                "verb": args.verb,
                "arguments": {
                    k: v for k, v in sorted(vars(args).items()) if k not in ("verb", "json")
                },
            },
            "result": result,
            "warnings": warnings,
        }
        print(json.dumps(envelope), file=out)
    else:
        render(result, out)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush at
        # exit does not fail again (the idiom from the Python signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
