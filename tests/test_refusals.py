"""Library refusals that no other test reaches: each public function names
the argument it refuses and the rule it breaks.  Every integer argument goes
through ``combinat.at_least``, so a value below its least gives one message
shape and a float gives a ``TypeError``; a route refuses before it charges.
Each refusal is a ``combinat.UsageError``, which the command line reports as
its own: one ``error:`` line with the library's message, exit 2."""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager

import pytest

from segre_degrees import asympt, eddeg, hyperdet
from segre_degrees.asympt import (binary_asymptotics, convergence_sweep, discriminant_quotients,
                                  discriminant_route, log_ed_asymptotic, log_hyperdet_asymptotic,
                                  log_sv_hyperdet_asymptotic, relative_error)
from segre_degrees.cli import main
from segre_degrees.combinat import (UsageError, as_format, at_least, binomial, binomial_row,
                                    fold_cost, horner, multinomial, power_cost, show_int)
from segre_degrees.eddeg import (binary_generic_ed_degree, generic_ed_degree,
                                 stabilization_onset, veronese_frobenius_ed_degree)
from segre_degrees.hyperdet import (binary_hyperdet_degree, mixed_partial_at_symmetric_point,
                                    sv_hyperdet_degree)
from segre_degrees.polar import (ChernData, alpha_coefficients, alternating_binomial_identity_holds,
                                 chern_data_product, chern_data_smooth_hypersurface,
                                 delta0_product_with_hypersurface, dual_profile, f_identity_holds,
                                 g_identity_holds, identity_sweep, stabilization_ratio_check)

# above the largest double, so too large for a float estimate
HUGE = 10 ** 400
# past the default int -> str limit of 4300 digits, so a refusal shows its digit count
HUGER = 10 ** 5000


@contextmanager
def _digit_limit(digits):
    """The int <-> str digit limit at ``digits`` (0 lifts it) in the block, where the
    interpreter has one (Python 3.10.7 and later)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _too_large(d, n=None):
    """The estimates' refusal of a d, or of a d and n, above the largest double."""
    sizes = f"factor count d={d} is" if n is None else f"factor count d={d} and grid value n={n} are"
    return f"{sizes} too large for a float estimate"


def _short_id(text):
    """``text`` with each run of 40 or more digits written as its digit count."""
    return re.sub(r"\d{40,}", lambda digits: f"<{len(digits[0])} digits>", text)


# one row per ``at_least`` call, plus the range and shape refusals no other test reaches
REFUSALS = [
    (as_format, ((1, -1),), "each dimension must be at least 0, got -1"),
    (binomial, (-1, 0), "binomial upper index must be at least 0, got -1"),
    (binomial_row, (-1,), "binomial upper index must be at least 0, got -1"),
    (multinomial, ((2, -1),), "each multinomial part must be at least 0, got -1"),
    (log_ed_asymptotic, (2, 5), "d must be at least 3, got 2"),
    (log_ed_asymptotic, (3, 0), "n must be at least 1, got 0"),
    (log_sv_hyperdet_asymptotic, (3, 5, 0), "omega must be at least 1, got 0"),
    (binary_asymptotics, (1,), "d must be at least 2, got 1"),
    (discriminant_quotients, (0, 3), "n must be at least 1, got 0"),
    (discriminant_quotients, (3, 2), "omega must be at least 3, got 2"),
    (discriminant_route, (0, 3), "n must be at least 1, got 0"),
    (discriminant_route, (3, 2), "omega must be at least 3, got 2"),
    (log_ed_asymptotic, (3, HUGE), _too_large(3, HUGE)),
    (log_hyperdet_asymptotic, (HUGE, 5), _too_large(HUGE, 5)),
    (log_sv_hyperdet_asymptotic, (HUGE, 5, 1), _too_large(HUGE, 5)),
    (binary_asymptotics, (HUGE,), _too_large(HUGE)),
    (asympt.FORMULAS["hyperdet"][0], (3, HUGE, 1), _too_large(3, HUGE)),
    (convergence_sweep, ("ed", 3, [HUGE], 1, False), _too_large(3, HUGE)),
    (relative_error, (0, 1.0), "exact must be at least 1, got 0"),
    (asympt.FORMULAS["sv"][0], (3, 2, 0), "omega must be at least 1, got 0"),
    (asympt.FORMULAS["ed"][0], (2, 2, 1), "d must be at least 3, got 2"),
    (veronese_frobenius_ed_degree, (-1, 3), "n must be at least 0, got -1"),
    (veronese_frobenius_ed_degree, (2, 1), "omega must be at least 2, got 1"),
    (generic_ed_degree, ((1, 1), (1,)), "weights must match the number of factors"),
    (generic_ed_degree, ((1, 1), (0, 1)), "each weight must be at least 1, got 0"),
    (eddeg.route, ((2, 2), (0, 3), True), "each weight must be at least 1, got 0"),
    (binary_generic_ed_degree, (0,), "d must be at least 1, got 0"),
    (stabilization_onset, ((2, 3), 4), "m_max must be at least 5, got 4"),
    (sv_hyperdet_degree, ((1, 1, 1), 0), "weight must be at least 1, got 0"),
    (hyperdet.route, ((1, 1, 1), 0), "weight must be at least 1, got 0"),
    (binary_hyperdet_degree, (0,), "d must be at least 1, got 0"),
    (mixed_partial_at_symmetric_point, (1, 1), "d must be at least 2, got 1"),
    (mixed_partial_at_symmetric_point, (3, 0), "k must be at least 1, got 0"),
    (mixed_partial_at_symmetric_point, (3, 4), "need 1 <= k <= 3 differentiated variables, got 4"),
    (ChernData, (-1, ()), "dim must be at least 0, got -1"),
    (ChernData, (1, (0, 1)), "the variety degree must be at least 1, got 0"),
    (ChernData, (2, (1, 2)), "need 3 class degrees for dimension 2, got 2"),
    (chern_data_smooth_hypersurface, (-1, 2), "n must be at least 0, got -1"),
    (chern_data_smooth_hypersurface, (2, 0), "hypersurface degree must be at least 1, got 0"),
    (alpha_coefficients, (-1, 0, 2), "n must be at least 0, got -1"),
    (alpha_coefficients, (0, -1, 2), "m must be at least 0, got -1"),
    (alpha_coefficients, (1, 1, 0), "hypersurface degree must be at least 1, got 0"),
    (stabilization_ratio_check, (-1, 0, 2, print), "m_max must be at least 0, got -1"),
    (stabilization_ratio_check, (0, -1, 2, print), "n_max must be at least 0, got -1"),
    (stabilization_ratio_check, (0, 0, 1, print), "d_max must be at least 2, got 1"),
    (identity_sweep, (-5, print), "max_n must be at least 0, got -5"),
    (f_identity_holds, (1, 2), "n must be at least 2, got 1"),
    (f_identity_holds, (1, -1), "m must be at least 0, got -1"),
    (alternating_binomial_identity_holds, (3, 2, -1), "i must be at least 0, got -1"),
    (alternating_binomial_identity_holds, (3, 1, 2), "m must be at least 2, got 1"),
    (alternating_binomial_identity_holds, (1, 2, 0), "n must be at least 2, got 1"),
    (g_identity_holds, (3, 0), "j must be at least 1, got 0"),
    (g_identity_holds, (1, 2), "n must be at least 2, got 1"),
    # past 4300 digits a refused value shows as its digit count (``combinat.show_int``)
    (at_least, (-HUGER, 0, "n"), "n must be at least 0, got -<5001-digit integer>"),
    (log_ed_asymptotic, (3, HUGER), _too_large(3, "<5001-digit integer>")),
    (binary_asymptotics, (HUGER,), _too_large("<5001-digit integer>")),
    (hyperdet.route, ((1, -HUGER),), "each dimension must be at least 0, got -<5001-digit integer>"),
    (f_identity_holds, (1, HUGER), "n must be at least <5001-digit integer>, got 1"),
    (alternating_binomial_identity_holds, (1, HUGER, 0),
     "n must be at least <5001-digit integer>, got 1"),
    (g_identity_holds, (1, HUGER), "n must be at least <5001-digit integer>, got 1"),
    (ChernData, (HUGER, ()),
     "need <5001-digit integer> class degrees for dimension <5001-digit integer>, got 0"),
    (eddeg.route, ((1, 2), (2, HUGER), False),
     "no Frobenius ED degree route for weights (2, <5001-digit integer>) on (1, 2): "
     "non-unit weights need a single factor or the generic metric"),
]

with _digit_limit(0):
    _REFUSAL_IDS = [_short_id(f"{f.__name__}{args}") for f, args, _ in REFUSALS]


@pytest.mark.parametrize("function, args, message", REFUSALS, ids=_REFUSAL_IDS)
def test_library_refusals_are_value_errors_that_name_the_rule(function, args, message):
    """Under the default digit limit, so that no refusal turns into a bare ``ValueError``."""
    with _digit_limit(4300), pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        function(*args)


def test_a_route_past_the_digit_limit_names_its_size():
    """A format or exponent past 4300 digits is not refused: its route charges a peak whose text
    shows each such integer as its digit count."""
    with _digit_limit(4300):
        fold = hyperdet.route((HUGER, HUGER))
        closed_form = eddeg.route((HUGER,), (3,), False)
    assert fold.name == "segre-fold"
    assert fold.peak[0] == "the degree kernel for N=<5001-digit integer>, d=2"
    assert closed_form.name == "veronese-closed-form"
    assert closed_form.peak[0] == "the closed form with 2^<5001-digit integer>"


TOP = int(sys.float_info.max)


@pytest.mark.parametrize("call", [
    lambda: log_ed_asymptotic(3, TOP),
    lambda: log_ed_asymptotic(TOP, 5),
    lambda: log_hyperdet_asymptotic(TOP, TOP),
    lambda: log_sv_hyperdet_asymptotic(3, TOP, 2),
    lambda: binary_asymptotics(TOP),
    lambda: asympt.FORMULAS["hyperdet"][0](3, TOP, 1),
    lambda: asympt.FORMULAS["ed"][0](TOP, 5, 1),
    lambda: convergence_sweep("ed", 3, [TOP], 1, False),
], ids=["ed-n", "ed-d", "hyperdet-d-and-n", "sv-n", "binary-d", "formulas-hyperdet-n",
        "formulas-ed-d", "sweep-ed-n"])
def test_the_largest_double_is_not_too_large_for_an_estimate(call):
    """The size rule refuses only above ``sys.float_info.max``: the integer equal to it is read,
    and an estimate that overflows there is ``inf`` or ``nan``, not an error."""
    call()


# argv -> the library call that refuses its value, and that call's message; the command line
# keeps no copy of these rules, so each line comes from the library
ARGV_REFUSALS = [
    ("asympt binary 1", lambda: binary_asymptotics(1), "d must be at least 2, got 1"),
    ("asympt ed 2 5", lambda: asympt.FORMULAS["ed"][0](2, 5, 1), "d must be at least 3, got 2"),
    ("asympt hyperdet 2 3", lambda: asympt.FORMULAS["hyperdet"][0](2, 3, 1),
     "d must be at least 3, got 2"),
    ("asympt discriminant 1 2", lambda: discriminant_route(1, 2), "omega must be at least 3, got 2"),
    ("asympt discriminant 5 2", lambda: discriminant_route(5, 2), "omega must be at least 3, got 2"),
    ("asympt discriminant 5 0", lambda: discriminant_route(5, 0), "omega must be at least 3, got 0"),
    ("eddeg 1,1 --weights 2", lambda: eddeg.route((1, 1), (2,), False),
     "weights must match the number of factors"),
    ("eddeg 1,2 --weights 2,2", lambda: eddeg.route((1, 2), (2, 2), False),
     "no Frobenius ED degree route for weights (2, 2) on (1, 2): "
     "non-unit weights need a single factor or the generic metric"),
    ("hyperdet 1,-1", lambda: at_least(-1, 0, "dims"), "dims must be at least 0, got -1"),
    (f"asympt binary {HUGE}", lambda: binary_asymptotics(HUGE), _too_large(HUGE)),
    (f"asympt hyperdet 3 {HUGE}", lambda: asympt.FORMULAS["hyperdet"][0](3, HUGE, 1),
     _too_large(3, HUGE)),
    (f"asympt ed {HUGE} 5", lambda: asympt.FORMULAS["ed"][0](HUGE, 5, 1), _too_large(HUGE, 5)),
]
with _digit_limit(0):
    ARGV_REFUSALS += [
        (f"asympt binary {HUGER}", lambda: binary_asymptotics(HUGER),
         _too_large("<5001-digit integer>")),
        (f"hyperdet 1,-{HUGER}", lambda: at_least(-HUGER, 0, "dims"),
         "dims must be at least 0, got -<5001-digit integer>"),
        (f"eddeg 1,2 --weights 2,{HUGER}", lambda: eddeg.route((1, 2), (2, HUGER), False),
         "no Frobenius ED degree route for weights (2, <5001-digit integer>) on (1, 2): "
         "non-unit weights need a single factor or the generic metric"),
    ]


@pytest.mark.parametrize("argv, call, message", ARGV_REFUSALS,
                         ids=[_short_id(argv) for argv, _, _ in ARGV_REFUSALS])
def test_the_command_line_reports_the_library_refusal(capsys, argv, call, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        call()
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, quantities", [("asympt binary 2", 5),
                                              ("asympt discriminant 1 3", 3)])
def test_the_least_d_of_a_formula_is_accepted(capsys, argv, quantities):
    assert main(argv.split()) == 0
    out, err = capsys.readouterr()
    assert (len(out.splitlines()), err) == (quantities, "")


# argv with one integer slot: one per integer argument of the command line and per ``asympt``
# formula, with the grid and weight slots of ``asympt`` and ``--omega`` where each formula reads it
FINAL_REFUSALS = [
    "hyperdet 1,{}", "hyperdet 1,1 --omega {}", "hyperdet 1,1 --cap-bytes {}",
    "eddeg 1,{}", "eddeg 1,{} --generic", "eddeg 1,1 --weights 1,{}",
    "eddeg 1,1 --weights {},2 --generic", "table table2 --jobs {}",
    "verify identities --max {}", "verify rw-constants --max {}",
    "verify stabilization --max {}", "verify cross-oracle --max {}",
    "asympt hyperdet {} 5", "asympt ed {} 5", "asympt sv {} 5", "asympt binary {}",
    "asympt discriminant {} 3", "asympt discriminant 5 {}",
    "asympt hyperdet 3 {}", "asympt ed 3 {}", "asympt sv 3 5,{} --omega 2",
    "asympt hyperdet 3 {}:5", "asympt ed 3 1:5:{}", "asympt sv 3 {}:4",
    "asympt sv 3 5 --omega {}", "asympt hyperdet 3 5 --omega {}",
]


@pytest.mark.parametrize("value", [-3, 0])
@pytest.mark.parametrize("template", FINAL_REFUSALS)
def test_a_refusal_names_the_bound_that_decides(capsys, template, value):
    """Each argument is refused once: where a request is refused with ``must be at least B``,
    the same request with B in the slot is not refused again (exit 0, or 3 for the cap)."""
    refused = main(template.format(value).split()) == 2
    least = re.fullmatch(r"error: .* must be at least (-?\d+), got -?\d+\n", capsys.readouterr().err)
    if refused and least:
        code = main(template.format(least[1]).split())
        assert code != 2, capsys.readouterr().err


# one row per function that reads an integer through ``at_least``: a float below its least,
# so a comparison before ``operator.index`` would give a ValueError instead
FLOAT_ARGUMENTS = [
    (as_format, ((-1.0, 2),)),
    (binomial, (-1.0, 0)),
    (binomial_row, (-1.0,)),
    (multinomial, ((-1.0, 1),)),
    (log_ed_asymptotic, (3, 0.5)),
    (log_sv_hyperdet_asymptotic, (3, 2, 0.5)),
    (binary_asymptotics, (1.5,)),
    (discriminant_quotients, (0.5, 3)),
    (discriminant_route, (0.5, 3)),
    (relative_error, (0.5, 0.0)),
    (asympt.FORMULAS["ed"][0], (3, 2.0, 1)),
    (veronese_frobenius_ed_degree, (2, 1.5)),
    (generic_ed_degree, ((1, 1), (0.5, 1))),
    (eddeg.route, ((1, 1), (0.5, 1), True)),
    (binary_generic_ed_degree, (0.5,)),
    (stabilization_onset, ((1, 1), 1.0)),
    (sv_hyperdet_degree, ((1, 1, 1), 0.5)),
    (hyperdet.route, ((1, 1, 1), 0.5)),
    (binary_hyperdet_degree, (0.5,)),
    (mixed_partial_at_symmetric_point, (1.0, 1)),
    (ChernData, (1, (0.5, 2))),
    (chern_data_smooth_hypersurface, (-1.0, 2)),
    (alpha_coefficients, (-1.0, 1, 2)),
    (stabilization_ratio_check, (-1.0, 1, 2, print)),
    (identity_sweep, (-1.0, print)),
    (alternating_binomial_identity_holds, (3, 1, -1.0)),
    (f_identity_holds, (2, -1.0)),
    (g_identity_holds, (3, 0.5)),
    (fold_cost, ((1.0, 2), (1, 1), 2)),
    (fold_cost, ((1, 2), (1.5, 1), 2)),
    (fold_cost, ((1, 2), (1, 1), 2.0)),
    (fold_cost, ((1, 2), (1, 1), 2, 1.0)),
    (power_cost, (2.0, 5)),
    (power_cost, (2, 5.0)),
    # the integers a refusal shows, a float least included
    (show_int, (2.0,)),
    (at_least, (1, 2.0, "x")),
    (at_least, (10 ** 6, float("inf"), "x")),
    (horner, ((1, 2), 0.5)),  # read through ``operator.index`` alone
]


@pytest.mark.parametrize("function, args", FLOAT_ARGUMENTS,
                         ids=[f"{f.__name__}{args}" for f, args in FLOAT_ARGUMENTS])
def test_a_float_integer_argument_is_a_type_error(function, args):
    """Read by ``operator.index`` before any comparison, so a float is neither
    truncated nor compared with a bound."""
    with pytest.raises(TypeError):
        function(*args)


# a ``ChernData`` argument is read by one checker, whose ``TypeError`` names the argument
NOT_CHERN_DATA = [
    (chern_data_product, ((1, 2), (1,)), "a must be ChernData, got tuple"),
    (chern_data_product, (ChernData(0, (1,)), None), "b must be ChernData, got NoneType"),
    (dual_profile, (None,), "cd must be ChernData, got NoneType"),
    (dual_profile, ((1, 2),), "cd must be ChernData, got tuple"),
    (delta0_product_with_hypersurface, ((1, 2), 3, 2), "cd must be ChernData, got tuple"),
]


@pytest.mark.parametrize("function, args, message", NOT_CHERN_DATA,
                         ids=[f"{f.__name__}{args}" for f, args, _ in NOT_CHERN_DATA])
def test_a_chern_data_argument_of_another_type_is_a_type_error_naming_it(function, args,
                                                                         message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        function(*args)


@pytest.mark.parametrize("make, error", [
    (lambda: eddeg.route((50, 50, 50), (7,), True), ValueError),
    (lambda: eddeg.route((2, 2), (0, 3), True), ValueError),
    (lambda: eddeg.route((1, 2), (2, 2), False), ValueError),
    (lambda: hyperdet.route((1, 1, 1), 0), ValueError),
    (lambda: discriminant_route(2.0, 3), TypeError),
    (lambda: discriminant_route(0, 3), ValueError),
    (lambda: asympt.FORMULAS["sv"][0](3, 2, 0), ValueError),
    (lambda: asympt.FORMULAS["ed"][0](3, 2.0, 1), TypeError),
    (lambda: asympt.FORMULAS["hyperdet"][0](3, HUGE, 1), UsageError),
    (lambda: asympt.FORMULAS["ed"][0](3, HUGE, 1), UsageError),
], ids=["eddeg-short-weights", "eddeg-zero-weight", "eddeg-weighted-frobenius",
        "hyperdet-zero-weight", "discriminant-float-n", "discriminant-zero-n",
        "formulas-sv-zero-omega", "formulas-ed-float-n", "formulas-hyperdet-huge-n",
        "formulas-ed-huge-n"])
def test_a_route_refuses_before_any_cost_model_runs(monkeypatch, make, error):
    """A route's peak describes the request its call computes: the route
    refuses what its call would, before ``fold_cost`` or ``power_cost`` runs."""
    charged = []
    for module in (asympt, eddeg, hyperdet):
        for name in ("fold_cost", "power_cost"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *args: charged.append(args))
    with pytest.raises(error):
        make()
    assert charged == []
