"""The built-in equation bank: integrity, round trips, and spot values."""

import numpy as np
import pytest

from rwtkit.equation_bank import (
    BANK_SHA256,
    BANK_VERSION,
    SET_NAMES,
    BankEntry,
    load_bank,
)
from rwtkit.errors import NotFound, SchemaMismatch
from rwtkit.symbolic import parse_expression, to_text, variables


@pytest.fixture(scope="module")
def bank():
    return load_bank()


def test_twenty_entries_two_sets(bank):
    assert len(bank.entries) == 20
    for set_name in SET_NAMES:
        counts = sorted(e.n_inputs for e in bank.entries if e.set_name == set_name)
        assert counts == list(range(1, 11))


def test_every_entry_roundtrips_byte_for_byte(bank):
    for entry in bank.entries:
        reparsed = parse_expression(entry.expression_text)
        assert to_text(reparsed) == entry.expression_text
        assert reparsed == entry.expression


def test_entry_uses_exactly_its_declared_variables(bank):
    for entry in bank.entries:
        assert variables(entry.expression) == tuple(range(1, entry.n_inputs + 1))


def test_published_r2_values_are_sane(bank):
    for entry in bank.entries:
        assert 0.0 < float(entry.r2_text) < 1.0


def test_get_and_not_found(bank):
    entry = bank.get("simple", 4)
    assert entry.n_inputs == 4
    with pytest.raises(NotFound):
        bank.get("simple", 11)
    with pytest.raises(NotFound):
        bank.get("fancy", 1)


def test_spot_values_single_input(bank):
    entry = bank.get("simple", 1)
    assert entry.evaluate({1: 0.0}) == pytest.approx(0.04, abs=1e-9)
    assert entry.evaluate({1: 0.5}) == pytest.approx(0.465, abs=1e-9)
    assert entry.evaluate({1: 1.0}) == pytest.approx(0.89, abs=1e-9)


def test_spot_value_two_input_origin(bank):
    # 0.85*0 + 0.013/(-0.19) + 0.05 computed by hand.
    expected = 0.05 + 0.013 / -0.19
    got = bank.get("simple", 2).evaluate({1: 0.0, 2: 0.0})
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(-0.01842, abs=5e-6)


def test_no_poles_on_unit_cube_sample(bank):
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 1.0, size=(2000, 10))
    for entry in bank.entries:
        values = entry.evaluate(x)
        assert np.all(np.isfinite(values))


def test_packaged_bytes_match_pinned_checksum():
    import hashlib
    from importlib import resources

    assert BANK_VERSION >= 1
    raw = resources.files("rwtkit.data").joinpath("equation_bank_v1.txt").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == BANK_SHA256


def test_malformed_bank_rejected(tmp_path):
    short_line = tmp_path / "short.txt"
    short_line.write_text("simple,1,0.82\n")
    with pytest.raises(SchemaMismatch):
        load_bank(short_line)

    bad_count = tmp_path / "count.txt"
    bad_count.write_text("simple,one,0.82,x1\n")
    with pytest.raises(SchemaMismatch):
        load_bank(bad_count)

    incomplete = tmp_path / "incomplete.txt"
    incomplete.write_text("simple,1,0.82,0.85*x1 + 0.04\n")
    with pytest.raises(SchemaMismatch):
        load_bank(incomplete)


def test_loading_explicit_path_matches_default(tmp_path, bank):
    from importlib import resources

    raw = resources.files("rwtkit.data").joinpath("equation_bank_v1.txt").read_bytes()
    path = tmp_path / "copy.txt"
    path.write_bytes(raw)
    assert load_bank(path).entries == bank.entries


def test_entry_validation():
    with pytest.raises(ValueError):
        BankEntry("fancy", 1, "0.9", "x1", parse_expression("x1"))
    with pytest.raises(ValueError):
        # Declares two inputs but only uses one.
        BankEntry("simple", 2, "0.9", "x1", parse_expression("x1"))
