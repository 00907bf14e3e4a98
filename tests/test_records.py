"""Value semantics of the package's record types: every record is immutable,
keeps its validation, and copies or pickles to an equal record; a grid is
equal and hashable by value, so the caches keyed on it find a fresh one."""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from gaussherm import hermite
from gaussherm.bargmann import SectorParams
from gaussherm.cli import InputSpec, Option
from gaussherm.decay import EnvelopeReport, HardyReport, Membership
from gaussherm.errors import NumericalDomainError
from gaussherm.gaussians import BargmannGaussian, GeneralizedGaussian
from gaussherm.grid import GridSpec, SampledFunction
from gaussherm.hermite import HermiteExpansion
from gaussherm.oscillator import ConfinementParams, ConfinementReport
from gaussherm.verify import CriterionResult, VerifyConfig
from gaussherm.weighted import CentralBinomialCertificate, WeakConfinementParams


def _records():
    """One record of each of the package's 17 record types."""
    side = EnvelopeReport(0.5, 1.0, 0.0, False)
    ts = np.array([0.0, 0.5])
    grid = GridSpec(8.0, 32)
    return [
        side,
        Membership(side, side),
        HardyReport(side, side, 1e-16),
        CentralBinomialCertificate(1.1, 0.2, 3, -0.1, 0.8, 0.7, 100),
        ConfinementReport(0.3, 0.5, ts, ts + 1.0, ts + 2.0, 3.0, 0.5, ts[1:], False, None),
        CriterionResult("pins", True, 0.1, 1.0, "worst part: pin"),
        VerifyConfig(),
        Option("--kmax", "kmax", "highest index", key="kmax", type=int, default=60),
        InputSpec("gaussian:b=0.5", GeneralizedGaussian(1.0, 0.5), 0.5),
        grid,
        GeneralizedGaussian(1.0, 0.5 + 0.1j),
        BargmannGaussian(0.5, 0.1),
        SectorParams(0.5, 2.0),
        ConfinementParams(0.5, 0.3, 0.4),
        WeakConfinementParams(3.0, 2.0, 0.5),
        HermiteExpansion([1.0, 0.5j]),
        SampledFunction(grid, np.exp(-0.5 * grid.xs ** 2)),
    ]


RECORDS = _records()
IDS = [type(r).__name__ for r in RECORDS]


def _fields(record) -> tuple[str, ...]:
    cls = type(record)
    return cls._fields if hasattr(cls, "_fields") else cls.__slots__


def test_seventeen_record_types():
    assert len(set(IDS)) == len(RECORDS) == 17


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_records_are_immutable(record):
    for name in _fields(record):
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1  # no field may be added either


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_records_copy_to_equal_records(record, clone):
    """A copy is built from the record's own fields, derived fields included."""
    other = clone(record)
    assert type(other) is type(record)
    for name in _fields(record):
        a, b = getattr(record, name), getattr(other, name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, name


def test_derived_fields():
    s = SectorParams(0.5)
    assert (s.big_c, s.mu) == (1.0, 1.0 / 3.0)
    assert s.theta0 == pytest.approx(math.atan(math.sqrt(1.0 / 3.0)), abs=1e-15)
    assert s.theta1 == 0.5 * math.pi - s.theta0
    assert ConfinementParams(0.5, 0.3, 0.4).r == 0.3 / 0.4
    w = WeakConfinementParams(3.0, 2.0, 0.5)
    assert (w.a, w.b) == (math.tanh(0.5), math.tanh(1.5))
    g = GeneralizedGaussian(2, 1)
    assert type(g.amplitude) is complex and type(g.width) is complex
    cfg = VerifyConfig()
    assert (cfg.grid, cfg.kmax, cfg.grid_kmax) == (GridSpec(16.0, 4096), 60, 81)
    hardy = HardyReport(EnvelopeReport(1.0, 2.0, 0.0, False),
                        EnvelopeReport(1.0, 3.0, 0.0, False), None)
    assert (hardy.member, hardy.constant) == (True, 3.0)
    assert HardyReport(hardy.time_report, hardy.time_report._replace(divergent=True),
                       None).constant is None


@pytest.mark.parametrize(("build", "error", "message"), [
    (lambda: GridSpec(1.0, 15), ValueError, "num_points must be even and >= 16, got 15"),
    (lambda: GeneralizedGaussian(1, -1), ValueError, "Re(width) must be positive, got -1"),
    (lambda: SectorParams(1.5), NumericalDomainError, "a must be in (0,1), got 1.5"),
    (lambda: SectorParams(0.5, 0.0), ValueError, "C must be positive, got 0.0"),
    (lambda: BargmannGaussian(1, 0.25), ValueError, "|4*quad_coeff| must be < 1, got 1.0"),
    (lambda: ConfinementParams(0.5, 0.4, 0.3), ValueError,
     "need 0 < gamma < gamma_prime < beta, got gamma=0.4, gamma_prime=0.3, beta=0.5"),
    (lambda: WeakConfinementParams(1.0, 1.0, 1.0), ValueError, "N must exceed 1, got 1.0"),
    (lambda: HermiteExpansion([]), ValueError, "coeffs must be a non-empty 1-d sequence"),
    (lambda: SampledFunction(GridSpec(8.0, 32), np.zeros(31)), ValueError,
     "values has shape (31,), grid has 32 points"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_grids_equal_by_value_share_the_caches(monkeypatch):
    """Each request builds a fresh GridSpec: the second one of the same
    numbers is equal, hashes alike, hits the chirp-z plan and reads the
    cached basis without building it again."""
    monkeypatch.setattr(hermite, "_GRID_BASIS", None)
    hermite._chirp_z_plan.cache_clear()
    first, second = GridSpec(16.0, 4096), GridSpec(16.0, 4096)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert GridSpec(16.0, 4096) != GridSpec(16.0, 2048)
    hermite._chirp_z_plan(first)
    hermite.grid_basis(first, 40)
    build = hermite.hermite_phi_all
    builds = []
    monkeypatch.setattr(hermite, "hermite_phi_all",
                        lambda kmax, xs: builds.append(kmax) or build(kmax, xs))
    hermite._chirp_z_plan(second)
    assert hermite._chirp_z_plan.cache_info()[:2] == (1, 1)  # (hits, misses)
    rows = hermite.grid_basis(second, 40)
    assert builds == []
    assert np.array_equal(rows, build(40, second.xs))
