"""The record contract: every public record is a named tuple that keeps
its field names, order and defaults, keyword construction, attribute
access, immutability, equality and hashing by value, and the repr
``Name(field=value, ...)``."""

import math
from fractions import Fraction as Fr

import pytest

from coulombstar import (CoulombParams, CriterionResult, DiskScanReport,
                         EpsilonTable, EulerRayleighBounds, Family, OrderFit,
                         RadiusQuery, RadiusResult, RayleighTable, SeriesEval,
                         Sqrt2Rational, epsilon_coeffs)
from coulombstar.errors import GateViolation

P = CoulombParams(1.5, -0.25)

# (record, the fields given by keyword, the defaults of the others); the
# fields of each record are the keys of the two dicts, in order
RECORDS = [
    (CoulombParams, {"L": 1.5, "eta": -0.25}, {}),
    (SeriesEval, {"value": 0.5, "derivative": 1 + 2j, "terms_used": 12,
                  "est_error": 1e-16}, {"retry_bits": 0, "method": "series"}),
    (RadiusResult, {"value": 1.25, "bracket": (1.0, 1.5), "residual": 1e-17,
                    "iterations": 4, "error_bound": 3e-16}, {}),
    (RadiusQuery, {"family": Family.F_SHIFT},
     {"beta": 0.0, "L": None, "eta": None, "nu": None, "alpha": None}),
    (RayleighTable, {"params": P, "kind": "Z", "values": {2: Fr(1, 3)},
                     "exact": True}, {}),
    (EulerRayleighBounds, {"s": 3, "lower": 1.5, "upper": 1.75}, {}),
    (EpsilonTable, {"c": Sqrt2Rational.sqrt2(), "eps": []}, {}),
    (OrderFit, {"slope": -2.5, "fit_residual": 0.125,
                "errors": [0.5, 0.25]}, {}),
    (DiskScanReport, {"radius_scanned": 1.5, "grid_size": 64,
                      "min_real_part": 0.25, "argmin_angle": 3.0},
     {"witness_rotation": 0.0}),
    (CriterionResult, {"cid": "1", "description": "d", "passed": True,
                       "detail": "ok", "seconds": 0.5}, {}),
]

#: records whose fields include a dict or a list, and so have no hash
UNHASHABLE = (RayleighTable, EpsilonTable, OrderFit)


@pytest.mark.parametrize("cls, given, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, given, defaults):
    rec = cls(**given)
    fields = {**given, **defaults}
    assert cls._fields == tuple(fields)
    assert cls._field_defaults == defaults
    for name, value in fields.items():
        assert getattr(rec, name) == value, name
    # immutable: no field can be set or deleted, and no attribute added
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 0
    assert repr(rec) == "{}({})".format(cls.__name__, ", ".join(
        f"{k}={v!r}" for k, v in fields.items()))
    # equal by value, and a tuple of the same values
    twin = cls(*fields.values())
    assert twin == rec and not twin != rec
    assert rec == tuple(fields.values())
    assert rec != cls(**{**fields, cls._fields[-1]: "other"})
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(twin) == hash(rec) and len({rec, twin}) == 1


def test_series_eval_replace_and_tuple_behaviour():
    res = SeriesEval(0.5, 1.0, 12, 1e-16)
    got = res._replace(value=0.25, method="steed")
    assert got == SeriesEval(0.25, 1.0, 12, 1e-16, 0, "steed")
    assert res.value == 0.5                     # the original is unchanged
    value, derivative, *_ = got
    assert (value, derivative, len(got)) == (0.25, 1.0, 6)
    with pytest.raises(ValueError):
        res._replace(no_such_field=1)


def test_record_methods_and_properties_stay():
    assert RayleighTable(P, "Z", {2: 0.5, 3: 0.25}, False)[3] == 0.25
    assert EulerRayleighBounds(2, 1.5, 1.75).width == 0.25
    fit = OrderFit(-2.5, 0.125, [0.5])
    assert float(fit) == -2.5
    table = epsilon_coeffs(2)
    assert table.order == 2 and len(table.as_floats(0.5)) == 3
    q = RadiusQuery("g", L=0.0, eta=0.0)
    assert q.solve().value == pytest.approx(math.pi / 2, rel=1e-14)


@pytest.mark.parametrize("make", [
    lambda L, eta: CoulombParams(L, eta),
    lambda L, eta: CoulombParams(L=L, eta=eta),
    lambda L, eta: P._replace(L=L, eta=eta),
    lambda L, eta: CoulombParams._make([L, eta]),
], ids=["positional", "keyword", "_replace", "_make"])
def test_coulomb_params_keeps_each_gate_and_demotion(make):
    # a complex L or eta with zero imaginary part is demoted to its real
    # part; a complex eta, a non-finite input and a real L <= -1 are refused
    p = make(2.0 + 0j, -0.5 + 0j)
    assert type(p.L) is float and type(p.eta) is float
    assert (p.L, p.eta) == (2.0, -0.5)
    assert not p.is_complex and p.real_L() == 2.0
    p = make(0.5 + 0.25j, Fr(1, 3))
    assert p.is_complex and p.L == 0.5 + 0.25j and p.real_L() == 0.5
    assert make(Fr(-1, 2), 0).eta == 0
    with pytest.raises(ValueError, match="eta must be real"):
        make(1.0, 0.5 + 1e-300j)
    for L, eta in ((math.inf, 0.0), (1.0, math.nan),
                   (complex(math.nan, 1.0), 0.0)):
        with pytest.raises(GateViolation, match="must be finite"):
            make(L, eta)
    for L in (-1, -1.0, Fr(-3, 2), -1.0 + 0j):
        with pytest.raises(GateViolation, match="<= -1"):
            make(L, 0.0)
    assert make(-1.0 + 0.5j, 0.0).is_complex      # complex L below -1 is kept
