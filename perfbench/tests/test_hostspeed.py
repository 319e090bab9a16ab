"""Host-speed correction."""

import pytest

import hostspeed


def test_correction_rescales_by_the_mean_of_the_neighbouring_blocks():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.corrected(2.0, ref, ref) == pytest.approx(2.0)
    # The host ran at half speed around the command: half the wall time.
    assert hostspeed.corrected(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert hostspeed.corrected(3.0, ref, 2 * ref) == pytest.approx(2.0)


def test_reference_block_takes_time_and_leaves_the_collector_on():
    assert hostspeed.reference_block() > 0
    import gc
    assert gc.isenabled()
