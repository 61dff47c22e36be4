"""Unit tests for the channel/die/plane hierarchy."""

import pytest

from repro.flash import FlashArray, FlashGeometry


@pytest.fixture(scope="module")
def array():
    return FlashArray(FlashGeometry.functional(num_bitlines=64, wordlines=16))


class TestHierarchy:
    def test_plane_count(self, array):
        g = array.geometry
        assert len(array.planes()) == g.channels * g.dies_per_channel * g.planes_per_die

    def test_planes_share_ledgers(self, array):
        planes = array.planes()
        assert planes[0].timing is planes[-1].timing
        assert planes[0].energy is planes[-1].energy

    def test_plane_indexing(self, array):
        assert array.plane(0) is array.planes()[0]
        assert array.plane(3) is array.planes()[3]

    def test_channel_iteration(self, array):
        for channel in array.channels:
            assert len(list(channel.planes())) == (
                array.geometry.dies_per_channel * array.geometry.planes_per_die
            )

