"""Tests for NetJoin advertisements."""

import pytest

from repro.errors import ConfigurationError
from repro.xia import HID, NID, SID
from repro.xia.netjoin import AdvertisementDirectory, NetworkAdvertisement


def make_ad(vnf=True):
    return NetworkAdvertisement(
        nid=NID("edge-a"),
        gateway_hid=HID("cache-a"),
        vnf_sid=SID("staging-a") if vnf else None,
    )


def test_advertisement_fields_and_vnf_flag():
    ad = make_ad()
    assert ad.has_vnf
    assert not make_ad(vnf=False).has_vnf


def test_advertisement_type_checks():
    with pytest.raises(ConfigurationError):
        NetworkAdvertisement(HID("h"), HID("h"))
    with pytest.raises(ConfigurationError):
        NetworkAdvertisement(NID("n"), NID("n"))
    with pytest.raises(ConfigurationError):
        NetworkAdvertisement(NID("n"), HID("h"), vnf_sid=HID("h"))


def test_directory_announce_lookup():
    directory = AdvertisementDirectory()
    ad = make_ad()
    directory.announce("ap-A", ad)
    assert directory.lookup("ap-A") is ad
    assert directory.lookup("ap-B") is None


def test_directory_rejects_duplicate():
    directory = AdvertisementDirectory()
    directory.announce("ap-A", make_ad())
    with pytest.raises(ConfigurationError):
        directory.announce("ap-A", make_ad())
