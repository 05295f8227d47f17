"""One parameter domain, one verdict per route.

Every entry point that takes (L, mu, gamma) is run on each row of one
table. A route refuses a row with a DomainError exactly when the row's
bad parameter is one it takes; the mu <= L gate refuses only on the gated
routes, and a subnormal mu/L only on the routes that read float
constraint tables (L/mu overflows there). Every other route answers.
"""
import math

import numpy as np
import pytest

from proxrate import certificate as cm
from proxrate import rates
from proxrate.cli import main
from proxrate.errors import DomainError
from proxrate.pepsearch import SearchParams, search_worst_case
from proxrate.pgm import PgmConfig
from proxrate.problem import CompositeProblem, SmoothOracle, zero_prox

NAN, INF = math.nan, math.inf

# (id, L, mu, gamma, the bad parameter: "L", "mu", "gamma", "modulus"
# (mu > L), "float" (a subnormal mu/L) or None)
ROWS = [
    ("valid", 1.0, 0.1, 0.5, None),
    ("valid-scaled", 4.0, 0.4, 0.125, None),
    ("L=0", 0.0, 0.1, 0.5, "L"),
    ("L=-1", -1.0, 0.1, 0.5, "L"),
    ("L=nan", NAN, 0.1, 0.5, "L"),
    ("L=inf", INF, 0.1, 0.5, "L"),
    ("L-subnormal", 1e-310, 1e-311, 1e300, "L"),
    ("mu=0", 1.0, 0.0, 0.5, "mu"),
    ("mu=nan", 1.0, NAN, 0.5, "mu"),
    ("mu=inf", 1.0, INF, 0.5, "mu"),
    ("mu/L-underflow", 1e300, 1e-300, 1e-300, "mu"),
    ("mu/L-overflow", 1e-300, 1e300, 1e299, "mu"),
    ("gamma=0", 1.0, 0.1, 0.0, "gamma"),
    ("gamma=2/L", 1.0, 0.1, 2.0, "gamma"),
    ("gamma=nan", 1.0, 0.1, NAN, "gamma"),
    ("mu>L", 1.0, 2.0, 0.5, "modulus"),
    ("mu/L-subnormal", 1.0, 1e-310, 0.5, "float"),
]


def _verify(exact):
    def run(L, mu, gamma, _tmp):
        # t = L*gamma lies in Thm3.2-case1's (0, 1.5] on every row whose
        # gamma is in the domain; a gamma outside it is outside the interval
        chk = cm.verify_certificate(cm.certificate_for("Thm3.2-case1"), L, mu, gamma, exact=exact)
        assert chk.ok, chk.failures

    return run


def _rate_grid_cli(L, mu, _gamma, tmp):
    argv = ["rate", "--fn-class", "convex", "--ineq", "pl", "--L", repr(L), "--mu", repr(mu), "--grid", "3",
            "--output", str(tmp / "curve.csv")]
    code = main(argv)
    if code == 3:
        raise DomainError("rate --grid exited 3")
    assert code == 0


def _composite(L, mu, _gamma, _tmp):
    CompositeProblem(SmoothOracle(lambda x: 0.0, np.zeros_like, L), zero_prox(), mu, "pl")


# name -> (call, parameters it takes, gated by mu <= L, reads float tables)
ROUTES = {
    "rate": (lambda L, mu, g, _: rates.rate(rates.RateQuery("convex", "pl", L, mu, g)), "L mu gamma", True, False),
    "rate_formula": (lambda L, mu, g, _: rates.rate_formula("convex", "pl", L, mu, g), "L mu gamma", False, False),
    "optimal_step": (lambda L, mu, g, _: rates.optimal_step("nonconvex", "pl", L, mu), "L mu", True, False),
    "baseline_garrigos": (lambda L, mu, g, _: rates.baseline_garrigos(L, mu, g), "L mu gamma", False, False),
    "verify_certificate": (_verify(False), "L mu gamma", True, True),
    "verify_certificate-exact": (_verify(True), "L mu gamma", True, False),
    "interval_grid": (lambda L, mu, g, _: cm.interval_grid(cm.certificate_for("Thm3.2-case1"), L, 3), "L", False, False),
    "search": (lambda L, mu, g, _: search_worst_case(SearchParams("convex", "pl", L, mu, g)), "L mu gamma", True, True),
    "rate-grid-cli": (_rate_grid_cli, "L mu", True, False),
    "PgmConfig": (lambda L, mu, g, _: PgmConfig(step=g).validate(L), "L gamma", False, False),
    "SmoothOracle": (lambda L, mu, g, _: SmoothOracle(lambda x: 0.0, np.zeros_like, L), "L", False, False),
    "CompositeProblem": (_composite, "L mu", False, False),
}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("row", ROWS, ids=[r[0] for r in ROWS])
def test_every_route_gives_the_row_verdict(row, route, tmp_path):
    _id, L, mu, gamma, bad = row
    call, takes, gated, float_tables = ROUTES[route]
    refuses = bad in takes.split() or (bad == "modulus" and gated) or (bad == "float" and float_tables)
    if refuses:
        with pytest.raises(DomainError):
            call(L, mu, gamma, tmp_path)
    else:
        call(L, mu, gamma, tmp_path)
