"""Simulator results pinned to values.

Every other simulator parity suite compares two live implementations (sim
≡ live, shards=1 ≡ reference wiring, batch ≡ per-record); a change that
moves both sides moves none of them.  This file pins the six algorithms on
twelve workload variants to the sha256 of their full ``asdict`` results
(``events_dispatched`` included).  The first six — the three arrival
patterns, partial updates, in-order updates and a warmup reset — were
recorded on the commit *before* arrivals left the event heap; the other
six — switch, queue and scan costs, UU with ABORT, LIFO with transaction
preemption, a hot stream against ``OSmax = 3``, no feasibility test with
WARN, bursty arrivals with a switch cost — on the commit before UF, SU and
FX took the update stream by the run.

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

from repro.config import (
    QueueDiscipline,
    StaleReadAction,
    StalenessPolicy,
    UpdatePattern,
    baseline_config,
)
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


# The six variants above all run with x_switch = x_queue = x_scan = 0;
# these charge every cost and take the less travelled policy branches.
def _costs():
    return baseline_config(duration=12.0, seed=107).with_system(
        x_switch=2000, x_queue=300, x_scan=50
    )


def _uu_abort():
    config = baseline_config(duration=12.0, seed=108).with_transactions(
        stale_read_action=StaleReadAction.ABORT
    ).with_system(x_scan=40)
    config.staleness = StalenessPolicy.UNAPPLIED_UPDATE
    return config


def _lifo_preemption():
    return baseline_config(duration=12.0, seed=109).with_system(
        queue_discipline=QueueDiscipline.LIFO, transaction_preemption=True
    )


def _hot_os_max():
    return baseline_config(duration=6.0, seed=110).with_updates(
        arrival_rate=1500.0
    ).with_system(os_queue_max=3)


def _infeasible_warn():
    return baseline_config(duration=12.0, seed=111).with_transactions(
        stale_read_action=StaleReadAction.WARN
    ).with_system(feasible_deadline=False)


def _bursty_switch():
    return baseline_config(duration=12.0, seed=112).with_updates(
        pattern=UpdatePattern.BURSTY, burst_dwell_mean=1.0
    ).with_system(x_switch=3000)


VARIANTS = {
    "aperiodic": _aperiodic,
    "periodic": _periodic,
    "bursty": _bursty,
    "partial": _partial,
    "mean_age_0": _in_order,
    "warmup": _warmup,
    "costs": _costs,
    "uu_abort": _uu_abort,
    "lifo_preemption": _lifo_preemption,
    "hot_os_max": _hot_os_max,
    "infeasible_warn": _infeasible_warn,
    "bursty_switch": _bursty_switch,
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
    ("bursty_switch", "UF"):
        "86d62e2a1e01cb40872c8859c7e9bc95e08b704485df04d75c5d1aae0360c1c8",
    ("bursty_switch", "TF"):
        "181a95ca9998869daebccf76d812c61a33f6221da92c19f38ef923384af7adbc",
    ("bursty_switch", "SU"):
        "aed6c8632e4c2a5c82569e1cdf43f0367ab0d8302de34b6d6e425bebe6221912",
    ("bursty_switch", "OD"):
        "2ba19ae5ba237fad95ebe2ce032528457e81176ebd7a71d603bf1edc89a63cdd",
    ("bursty_switch", "FX"):
        "cc1dfd5978f5f5158b81e2b9d48b8d0e08b3c7de317c55f7d2a16e5674efcd40",
    ("bursty_switch", "TF-SPLIT"):
        "01769c47ee1d29198008b33e7bc6bc8c457239503205de57a1c288448d38df22",
    ("costs", "UF"):
        "c12dbf3e36dadaba91a86798681c14487d07222fefab68a3dc99740af43c54c7",
    ("costs", "TF"):
        "1ea9020de1e3e6cc0deb7c79e34ee21da9bdf51351a12a397411fcaeab0daed1",
    ("costs", "SU"):
        "234fe48f212604f466e65757a527b2acc05e29adea2a348aed8de710240bf378",
    ("costs", "OD"):
        "e83611fdcfb73b62e273d2575d3832254c5222888b65b64549ee324f21023ede",
    ("costs", "FX"):
        "3dad703e616df9edd41219d1367cdf50a16d6fd9d9ebb2e6202c5d22f1f9132a",
    ("costs", "TF-SPLIT"):
        "d8b531d848b03f9f8c5de180c0031783455c26064aaef494b0e3a1ca40877818",
    ("hot_os_max", "UF"):
        "d5fb56377d271b5ae51d2535ae85f0c22b12c335a43bc2210cb421484b93c7d7",
    ("hot_os_max", "TF"):
        "f53fbb8d29f48383d1ae342694cc011670449fb866f0efeb24496bfc1fe98c85",
    ("hot_os_max", "SU"):
        "29448b7b041b5919b6b6d5fa0acd4becf954d40981d967fac648f27c70c5ab1a",
    ("hot_os_max", "OD"):
        "a0b508c378c1cb3b6b84c11258868b7a7446411d23f87034f84516cbbd1cbb3a",
    ("hot_os_max", "FX"):
        "cc547c0fb93c56c936b455afd6211e1a63be77aa79409bfedc58940cceaef69f",
    ("hot_os_max", "TF-SPLIT"):
        "dbbe87c252939a4d531c5333df04d37ea091ec8a63abac223c63e092db5a5732",
    ("infeasible_warn", "UF"):
        "32bfe29790ae2953439a85fc26820333e2da8f0f5f7d48cb19d389ab8da755a7",
    ("infeasible_warn", "TF"):
        "185206251b28f443f593b3d2130cf197cf969f7719712d8b38e3b7ff9d08186d",
    ("infeasible_warn", "SU"):
        "54f5e955d306adc91f6428e250b72e8515573066e519abc0c8790ab04c54883a",
    ("infeasible_warn", "OD"):
        "49a760db3c7bda0a2861d2dbef98c22f2bc2d8b8d4e3ffce3eb4e726565f6a5a",
    ("infeasible_warn", "FX"):
        "3ffef76f7f0e54fce334581a0b96884ecc6a13b2069c1bdd456e9d601fc7452c",
    ("infeasible_warn", "TF-SPLIT"):
        "97838d98d579c9b6cf66fff4cb29ac9102a820c7eb2c6f26585085af74a229ff",
    ("lifo_preemption", "UF"):
        "6d69af40d62ca77138e32898cdd48c6a627b90538aa47abfbe335feb726a7ab0",
    ("lifo_preemption", "TF"):
        "5fc78af9f7e7b50097298789f6e098ff4d34bf6e4f560ff4fbf4eb17bf78792e",
    ("lifo_preemption", "SU"):
        "7e47c2825a00f77fa5bc0bd0c4bccf1c5ef3cde9293a11fe8cf15e3326e52f0d",
    ("lifo_preemption", "OD"):
        "5cb733967958484f657f5cd616fa62ba40f616deab91b6eba6fce7f48021409a",
    ("lifo_preemption", "FX"):
        "03e8dc553d3a26a1346364a3ba95de03c49d0bd02897f89e987c25a4c851b95e",
    ("lifo_preemption", "TF-SPLIT"):
        "c78df89618daaa643629b3c6ab481f545e2abf7ad2b3f30df57f1f08169593d8",
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
    ("uu_abort", "UF"):
        "54aec201575e1738672e614d5a3ba9ac0a3b07970b99ce6e585909d3d0214126",
    ("uu_abort", "TF"):
        "e2ae6f91314f8a2c5a17512f7305980ba4b2518650e217cb37299018a52aca45",
    ("uu_abort", "SU"):
        "4a3a440b02b0fdce0c79f05da7c9953f4a724a4505388c3eb63fbee1a061c739",
    ("uu_abort", "OD"):
        "4f54f7ee0f60a166e340b6717be3e025bbe60c593c62c4ef2573b404bdc74690",
    ("uu_abort", "FX"):
        "17135e40c591ceeac758d6912fd72a3804f32043b9372b125d3668465902e7e9",
    ("uu_abort", "TF-SPLIT"):
        "7428ab9a55b4b1052d05744efe97681e0474506b67422e3c505392f971fa584e",
    ("warmup", "UF"):
        "99f256e567f40a74cbe8fb923a430d71382c57a02b047f9e4a42397f4cdc355a",
    ("warmup", "TF"):
        "f60a6a5b01c00941afd0da470b2cb9ad9bd1cb468c8817a4142919c1412c8402",
    ("warmup", "SU"):
        "15d49bf6c99e49e3c7c12e28666f4d0a116ee5196e6137aaabec46f496ee68c6",
    ("warmup", "OD"):
        "62ebf43f2e097e582b3a1afd58ce2538ea181bd6bfc1a0a999b8ea1adffafe6e",
    ("warmup", "FX"):
        "978877e49b45c5e278073cc82dbcf747ee0782b3650d5de349d13fe99d4ce376",
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
