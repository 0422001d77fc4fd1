"""Property tests: a corrupted RAKB file must end in a typed RaddError.

Byte flips, truncations and appended bytes on a small valid base file are
generated by hypothesis (an optional test dependency; the module is skipped
without it). The run is derandomized and keeps no example database.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import random_base  # noqa: E402
from radd.errors import RaddError  # noqa: E402
from radd.store import load, save  # noqa: E402


@pytest.fixture(scope="module")
def rakb(tmp_path_factory) -> tuple[bytes, object]:
    """The bytes of a valid 3-row base and a scratch path to write mutants to."""
    folder = tmp_path_factory.mktemp("fuzz")
    save(random_base(np.random.default_rng(0), n=3, d_cm=2, d_prof=3), folder / "valid.rakb")
    return (folder / "valid.rakb").read_bytes(), folder / "mutant.rakb"


# Three properties of 60 examples each.
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _assert_rejected(path, mutant: bytes) -> None:
    path.write_bytes(mutant)
    with pytest.raises(RaddError):
        load(path)


@FUZZ
@given(data=st.data())
def test_byte_flips_rejected(rakb, data):
    valid, path = rakb
    flips = data.draw(st.lists(
        st.tuples(st.integers(0, len(valid) - 1), st.integers(1, 255)),
        min_size=1, max_size=4, unique_by=lambda flip: flip[0],
    ))
    mutant = bytearray(valid)
    for pos, mask in flips:
        mutant[pos] ^= mask
    _assert_rejected(path, bytes(mutant))


@FUZZ
@given(data=st.data())
def test_truncations_rejected(rakb, data):
    valid, path = rakb
    _assert_rejected(path, valid[: data.draw(st.integers(0, len(valid) - 1))])


@FUZZ
@given(extra=st.binary(min_size=1, max_size=64))
def test_appended_bytes_rejected(rakb, extra):
    valid, path = rakb
    _assert_rejected(path, valid + extra)
