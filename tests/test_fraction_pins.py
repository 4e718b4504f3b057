"""Frozen reports of the labeled-fraction experiments and the speed delta.

Each pin hashes the JSON and CSV of one report, run on one worker and on
two, so a change in how the labeled counts or the fraction rows are
built shows as a moved digest.  The spy checks that speed_delta reads a
listed family's top level off the level below, with no membership call
of that order.
"""

import hashlib
import json

import pytest

from hfspeed.critical import (verify_constellation_cover, verify_kpr,
                              verify_partition_fraction)
from hfspeed.enumeration import speed_delta
from hfspeed.families import Family, Forb, S
from hfspeed.graphs import complete, cycle, matching


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _report_digest(report):
    body = json.dumps(report.to_json_obj(), sort_keys=True)
    return _sha(body), _sha(report.to_csv())


PINS = {
    "kpr": (lambda t: verify_kpr(2, 8, threads=t), (
        "d1cfb4e52d093463cd0dfeaf95a8b3d6a9cc5d9ceb7a56ae98352d0d991db152",
        "367af4039898fcdde2c7b750bbb2795e16030f64296ce07233ff20132b36a927")),
    "partition": (lambda t: verify_partition_fraction(
        Forb([complete(3)]), S, 2, 7, threads=t), (
        "547defc1f20d8c9e637520cb367fb4a52b78e8f6d1c59511e6ec0b4d23eec40e",
        "97370d86215fe0d0b49a66d154227ef7ef374b045c38e9b556f2d9520b9126dc")),
    "cover-c5": (lambda t: verify_constellation_cover(
        Forb([cycle(5)]), 2, 1, 6, threads=t), (
        "f4cbca28dc5cbab4f175f190c92ff4808845b2915f3565cbf0b9251073fd2649",
        "330fb509e72eddaec85867c57eb54491f35f0f9526098e04de57fff57351dacf")),
    "cover-2k2": (lambda t: verify_constellation_cover(
        Forb([matching(2)]), 2, 0, 7, threads=t), (
        "5820da43b1f0fb3260ac9901ab64093779f5ca5dfd9c4f75bc919feb0a889f45",
        "358776559fdee0e06c78ce3c0352e9cca43d65eaf62fdc1af6cf570da19588dc")),
}

DELTA_DIGEST = (
    "7f255a83316c5b85daa6a7e23b5226658d0d631fa2755f12c9184adcb0cf04ee")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(PINS))
def test_fraction_report_digest(name, threads):
    run, digests = PINS[name]
    assert _report_digest(run(threads)) == digests


@pytest.mark.parametrize("threads", [1, 2])
def test_speed_delta_digest(threads):
    rep = speed_delta(Forb([complete(3)]), 2, 8, threads=threads)
    assert _sha(json.dumps(rep.to_json_obj(), sort_keys=True)) == DELTA_DIGEST


def test_speed_delta_reads_the_listed_top_level(monkeypatch):
    orders = []
    real = Family.membership

    def membership(self, g, *rest):
        orders.append(g.n)
        return real(self, g, *rest)

    monkeypatch.setattr(Family, "membership", membership)
    speed_delta(Forb([complete(3)]), 2, 8)
    assert orders and orders.count(8) == 0
