"""Simulator results pinned to values.

Every other simulator parity suite compares two live implementations (sim
≡ live, shards=1 ≡ reference wiring, batch ≡ per-record); a change that
moves both sides moves none of them.  This file pins the six algorithms on
six workload variants — the three arrival patterns, partial updates,
in-order updates and a warmup reset — to the sha256 of their full
``asdict`` results (``events_dispatched`` included), recorded on the
commit *before* arrivals left the event heap (PR 23).

The digests depend on the stdlib ``random`` draw algorithms
(``expovariate``, ``randrange``, ``uniform``, ``gauss``); CI runs this file
on every supported interpreter so a difference between minors shows here.

To re-record after a deliberate model change::

    PYTHONPATH=src python tests/test_sim_golden.py
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.config import UpdatePattern, baseline_config
from repro.core.simulator import run_simulation

ALGORITHMS = ("UF", "TF", "SU", "OD", "FX", "TF-SPLIT")


def _aperiodic():
    return baseline_config(duration=25.0, seed=101)


def _periodic():
    return baseline_config(duration=25.0, seed=102).with_updates(
        pattern=UpdatePattern.PERIODIC
    )


def _bursty():
    return baseline_config(duration=30.0, seed=103).with_updates(
        pattern=UpdatePattern.BURSTY, burst_dwell_mean=1.5
    )


def _partial():
    return baseline_config(duration=20.0, seed=104).with_updates(
        partial_probability=0.3
    )


def _in_order():
    return baseline_config(duration=20.0, seed=105).with_updates(mean_age=0.0)


def _warmup():
    config = baseline_config(duration=25.0, seed=106)
    config.warmup = 5.0
    return config


VARIANTS = {
    "aperiodic": _aperiodic,
    "periodic": _periodic,
    "bursty": _bursty,
    "partial": _partial,
    "mean_age_0": _in_order,
    "warmup": _warmup,
}

GOLDEN = {
    ("aperiodic", "UF"):
        "627e815cfe0741c2cf0d1e94fa3c390cd669b31ec83d36caf8555fe08818e10f",
    ("aperiodic", "TF"):
        "61ae3d633fc3c791483e22c49e8a68c356fc477466abdc25c8cfedad73c755f9",
    ("aperiodic", "SU"):
        "7bce6aab9321b645e0f1e5c6a8b14f3a40ba7405e1dc470dd379507f30ad81a6",
    ("aperiodic", "OD"):
        "27b5f57484d4ea26e7f66617d46d4235e8b07c5b0147482cac3ccb010814107f",
    ("aperiodic", "FX"):
        "adb27805a513c6838853616754b8578f01b63f866070f7abb947386a9c82e6dd",
    ("aperiodic", "TF-SPLIT"):
        "6eb0a41fdffd340fddd0628a13280c7d5166b6e8b47aa606064243a3f5353dcb",
    ("bursty", "UF"):
        "3c4c08c376a0aed300f42ff6f586e4cd0f0561cf6b3c9805b695ef911416dd02",
    ("bursty", "TF"):
        "76dd2c6b5706d9e3845c17c75ad9cf946327f0b70691270d5e9c39bc3f15e3d6",
    ("bursty", "SU"):
        "3fd1d92c3124d5b27196b2c7980a5b60ee41eb9cb21af01a03043318c49661da",
    ("bursty", "OD"):
        "ba619432ebe38fac4ccd99eb26e859dc358023b50cd0a330bc8af1d444ea0e71",
    ("bursty", "FX"):
        "d1d143c197451c4c6bdd3925ef4b9df5d1ae02b9ed75b4c6b349064fb60c5095",
    ("bursty", "TF-SPLIT"):
        "6d894d8b27dd3841f9b130ef4d45105d45c7b56d41c2fb541be9a6deb9f113e9",
    ("mean_age_0", "UF"):
        "136172ca87fc721ca86e9307d6f17df852057727b34c0974aa3837098a8f903f",
    ("mean_age_0", "TF"):
        "e5c8a5aad2d8d921e60121c3d8e60745762d12d3f5980fa070fee5fe9e86a276",
    ("mean_age_0", "SU"):
        "6815f710420c9bf9021aee54c05edb0b94d6ccc7369d9d9437ef95dc095ab911",
    ("mean_age_0", "OD"):
        "50b29a44b5cb1964042215cbdb11ab93922355e9c5717f9962bb145158e9f1e4",
    ("mean_age_0", "FX"):
        "06f95eca55f6bd543eaa344b11b681a9e9bf8895463d366d6fe60c439efd9cb1",
    ("mean_age_0", "TF-SPLIT"):
        "e510fb4ffd2480b8284e38d4aa340c0a8ab9780fdd726f2f45247765ec29f84b",
    ("partial", "UF"):
        "90dbb3452ac0f778250b02530f1acd2d234370cc5b3839a2e84c365bb657180d",
    ("partial", "TF"):
        "59320aafc06a9b6d9dd6ffef9e6297a6395df2adea04de30d111b2d8953b0705",
    ("partial", "SU"):
        "57fb0e8d690b65a8b0b5bdce6ebae2dbd334806b210929bb4a2155efd925733d",
    ("partial", "OD"):
        "b9917124c91116440b2d5d3b849d99defb37b8c7d7a0a6afac040c34624fdc04",
    ("partial", "FX"):
        "6adb581b2ab07d5bb2f4be75bd05f5b5ec5bad54d91fd09bd33eb0df0b34e2d8",
    ("partial", "TF-SPLIT"):
        "065cc964a96b76d50fc98201f05cd0bbf3adb8bed88fb241a9a54a5646f7216e",
    ("periodic", "UF"):
        "3374982640339d856d94edf36d2e12ad15ed048d31b5e0903b081369e5ae9e9e",
    ("periodic", "TF"):
        "70904785f24ed7db2d5cb235ad31e94896bedcf9317e83445e1500781134205c",
    ("periodic", "SU"):
        "fff775e20f90b24c991693685d302a420217dbe960fb4d24b02d323c2442eb40",
    ("periodic", "OD"):
        "07ec31515be0da7edfaaa3115794ba6661f877c71c1ce34639d840de30edc908",
    ("periodic", "FX"):
        "1f82ab2965ad6f0875f1e8dc1a8be1a1e442be8d5cfd0ff7a86888caf2bebcaf",
    ("periodic", "TF-SPLIT"):
        "b88082d6af7003efbe879fa55d1759f3643a730f65457fbbacca899d706874d8",
    ("warmup", "UF"):
        "99f256e567f40a74cbe8fb923a430d71382c57a02b047f9e4a42397f4cdc355a",
    ("warmup", "TF"):
        "f60a6a5b01c00941afd0da470b2cb9ad9bd1cb468c8817a4142919c1412c8402",
    ("warmup", "SU"):
        "15d49bf6c99e49e3c7c12e28666f4d0a116ee5196e6137aaabec46f496ee68c6",
    ("warmup", "OD"):
        "62ebf43f2e097e582b3a1afd58ce2538ea181bd6bfc1a0a999b8ea1adffafe6e",
    ("warmup", "FX"):
        "2271fb1d6f1a384420398acf10232aea24f398047b9d3eeabc9071c9fcf5b773",
    ("warmup", "TF-SPLIT"):
        "2a9c8fad699c32df62746fbaf204044306aa5a88174e65a38af7ef60bd3edbb2",
}


def result_digest(variant: str, algorithm: str) -> str:
    result = run_simulation(VARIANTS[variant](), algorithm)
    return hashlib.sha256(
        json.dumps(asdict(result), sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_result_is_pinned(variant, algorithm):
    assert result_digest(variant, algorithm) == GOLDEN[variant, algorithm]


if __name__ == "__main__":
    for variant in sorted(VARIANTS):
        for algorithm in ALGORITHMS:
            print(f'    ("{variant}", "{algorithm}"):\n'
                  f'        "{result_digest(variant, algorithm)}",')
