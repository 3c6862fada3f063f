"""The bounds, factors and equation verbs of the command line.

singk3.cli imports this module only when one of these verbs runs, so the
class group verbs and classpoly neither compile it nor load mpmath and the
numeric layers.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp
from mpmath.libmp import dps_to_prec

from .cli import _form_str
from .forms import Form
from .k3 import analyze, inose_pencil, kummer_equation, kummer_reduction
from .lattices import lattice_from_form, sm_factors


def _value_json(v, digits: int) -> dict:
    # `digits` significant digits, within one unit in the last (the tests check
    # this against a rerun at twice the digits); an exact zero (the imaginary
    # part of a real value, or j at d = -3) prints as 0.0, with fewer digits
    if isinstance(v, Fraction):
        return {"type": "rational", "value": str(v)}
    re, im = (mp.nstr(x, digits, strip_zeros=False) for x in (mp.re(v), mp.im(v)))
    return {"type": "complex", "re": re, "im": im}


def _tau_json(tau) -> dict:
    return {
        "d_K": tau.field_discriminant,
        "x": [tau.x.numerator, tau.x.denominator],
        "y": [tau.y.numerator, tau.y.denominator],
    }


def _value_str(v: dict) -> str:
    if v["type"] == "rational":
        return v["value"]
    im = v["im"]
    return f"{v['re']} - {im[1:]}*i" if im.startswith("-") else f"{v['re']} + {im}*i"


def _quad_str(t: dict) -> str:
    x = Fraction(t["x"][0], t["x"][1])
    y = Fraction(t["y"][0], t["y"][1])
    return f"({x} + {y}*sqrt({t['d_K']}))"


def _run_bounds(args, warnings):
    q = Form.from_text(args.form)
    report = analyze(q, dps_to_prec(args.precision))
    sc = report.surface
    return {
        "form": q.as_json(),
        "d": sc.discriminant,
        "d_prime": sc.primitive_discriminant,
        "m": sc.content,
        "f": sc.conductor,
        "f_prime": sc.primitive_conductor,
        "d_K": sc.field_discriminant,
        "n": report.classes_per_genus,
        "h_upper": report.class_number_upper,
        "parity_forced": report.parity_forced,
        "exact_minimal_field": report.exact_minimal_field,
        "model_field": {
            "j_tau1_normalized": _value_json(report.j_tau1_normalized, args.precision),
            "j_tau2_normalized": _value_json(report.j_tau2_normalized, args.precision),
        },
    }


def _render_bounds(result, out):
    print(
        f"form {_form_str(result['form'])}: "
        f"d = {result['d']} = {result['m']}^2 * ({result['d_prime']}), "
        f"d_K = {result['d_K']}, f = {result['f']}",
        file=out,
    )
    print(
        f"  degree over K: divisible by n = {result['n']}, divides h(d) = {result['h_upper']}",
        file=out,
    )
    print(f"  degree over Q forced even: {result['parity_forced']}", file=out)
    if result["exact_minimal_field"]:
        print(f"  exact minimal field: {result['exact_minimal_field']}", file=out)
    field = result["model_field"]
    print("  model over Q(j(tau1), j(tau2)) (inside K(j(tau2)))", file=out)
    print(f"    j_n(tau1) = {_value_str(field['j_tau1_normalized'])}", file=out)
    print(f"    j_n(tau2) = {_value_str(field['j_tau2_normalized'])}", file=out)


def _run_factors(args, warnings):
    q = Form.from_text(args.form)
    pair = sm_factors(q)
    lat = lattice_from_form(q)
    result = {
        "form": q.as_json(),
        "d": pair.discriminant,
        "tau1": _tau_json(pair.tau1),
        "tau2": _tau_json(pair.tau2),
        "tau1_lattice": lat.as_json(),
    }
    if args.kummer:
        reduction = kummer_reduction(q)
        if reduction is None:
            result["kummer"] = None
            warnings.append("form is not 2-divisible; no Kummer reduction")
        else:
            half, halved = reduction
            result["kummer"] = {
                "half_form": half.as_json(),
                "tau1": _tau_json(halved.tau1),
                "tau2": _tau_json(halved.tau2),
                "d": halved.discriminant,
            }
    return result


def _render_factors(result, out):
    print(f"d = {result['d']}", file=out)
    print(f"  tau1 = {_quad_str(result['tau1'])}", file=out)
    print(f"  tau2 = {_quad_str(result['tau2'])}", file=out)
    lat = result["tau1_lattice"]
    print(
        f"  tau1 lattice: class {_form_str(lat['canonical_form'])}, "
        f"conductor {lat['conductor']}",
        file=out,
    )
    km = result.get("kummer")
    if km:
        print(
            f"  Kummer: half form {_form_str(km['half_form'])}, "
            f"tau1 = {_quad_str(km['tau1'])}, tau2/2 = {_quad_str(km['tau2'])}",
            file=out,
        )


def _run_equation(args, warnings):
    q = Form.from_text(args.form)
    prec = dps_to_prec(args.precision)
    model = kummer_equation(q, prec) if args.kummer else inose_pencil(q, prec)
    if not (isinstance(model.A, Fraction) and isinstance(model.B, Fraction)):
        warnings.append(
            f"A and B are not proven rational; emitted numerically at {args.precision} digits"
        )
    return {
        "form": q.as_json(),
        "kind": model.kind,
        "A": _value_json(model.A, args.precision),
        "B": _value_json(model.B, args.precision),
        "degenerate_rule_applied": model.degenerate_rule_applied,
        "equation": model.equation(),
        "a4": {str(k): _value_json(v, args.precision) for k, v in sorted(model.a4_polynomial().items())},
        "a6": {str(k): _value_json(v, args.precision) for k, v in sorted(model.a6_polynomial().items())},
    }


def _render_equation(result, out):
    print(result["equation"], file=out)
    print(f"  A = {_value_str(result['A'])}", file=out)
    print(f"  B = {_value_str(result['B'])}", file=out)
    if result["degenerate_rule_applied"]:
        print("  (degenerate substitution rule applied)", file=out)


# verb -> (compute the JSON result, print it as text), as in cli._VERBS
VERBS = {
    "bounds": (_run_bounds, _render_bounds),
    "factors": (_run_factors, _render_factors),
    "equation": (_run_equation, _render_equation),
}
